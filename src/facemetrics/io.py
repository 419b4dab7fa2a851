"""Parsers and writers for annotation, detection, and curve files.

Region-list files follow the FDDB layout: an image-id line, a region
count line, then one region per line.  A region line is classified by
its field count:

* 4 fields: rectangle ``x y w h`` (left-top corner plus size), parsed
  to a :class:`~facemetrics.geometry.Rect`,
* 5 fields: rectangle ``x y w h score``, parsed to a
  :class:`~facemetrics.matching.Detection` on its block's image,
* 6 fields: ellipse ``major minor angle cx cy label`` (the axes are
  semi-axis lengths; the trailing label is required but its value is
  not interpreted), parsed to a :class:`~facemetrics.geometry.Ellipse`.

Ellipse angles default to radians, counter-clockwise from the +x axis;
pass ``angle_unit="degrees"`` for files written under the degree
convention.  Parsing is strict: any malformed line raises
:class:`ParseError` with a 1-based line number, and region counts must
match exactly.  Silent recovery would quietly corrupt evaluation
results, so there is none.  :func:`read_detections` reads a detection
file one image block at a time, under the same rules.

Writers are canonical: the same curve (and metadata) always serializes
to byte-identical UTF-8 text with LF newlines, numbers rendered with 6
significant digits.  An infinite threshold (the empty operating point)
is written as ``inf`` in CSV and as the string ``"inf"`` in JSON, which
has no literal for infinities.
"""

from __future__ import annotations

import json
import json.scanner
import math
from collections import Counter
from dataclasses import dataclass
from typing import Container, Iterator, NamedTuple, Union

from ._version import __version__
from .geometry import Ellipse, Rect, _check_number, _is_int, _score_order
from .matching import Detection, GroundTruth
from .metrics import Curve, CurvePoint, CurvePointError, EvalDataset, XSemantics, YSemantics

__all__ = [
    "ParseError",
    "Region",
    "AnnotationEntry",
    "AnnotationFile",
    "parse_region_list",
    "parse_scored_rects",
    "format_rect",
    "build_dataset",
    "read_detections",
    "write_curve",
    "read_curve",
]


_ANGLE_UNITS = ("radians", "degrees")
_FORMATS = ("csv", "json")


class ParseError(ValueError):
    """Malformed input; ``line`` is the 1-based line the problem was found on."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


Region = Union[Rect, Detection, Ellipse]


class AnnotationEntry(NamedTuple):
    """One image's regions; ``line`` is that of its image id, or 0 if not read from a file."""

    image_id: str
    regions: tuple[Region, ...]
    line: int = 0


@dataclass(frozen=True, slots=True)
class AnnotationFile:
    """Ordered per-image region lists; image ids are unique within a file."""

    entries: tuple[AnnotationEntry, ...]

    def __post_init__(self) -> None:
        counts = Counter(entry.image_id for entry in self.entries)
        if len(counts) != len(self.entries):
            dupes = sorted(i for i, n in counts.items() if n > 1)
            raise ValueError(f"duplicate image ids: {dupes}")


def _parse_floats(tokens: list[str], lineno: int) -> list[float]:
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            raise ParseError(f"expected a number, got {token!r}", lineno) from None
    return values


def _parse_region_line(line: str, lineno: int, angle_unit: str, image_id: str) -> Region:
    """A region line's ``Rect``, its ``Detection`` on ``image_id``, or its ``Ellipse``."""
    tokens = line.split()
    if len(tokens) in (4, 5):
        values = _parse_floats(tokens, lineno)
        try:
            rect = Rect.from_xywh(values[0], values[1], values[2], values[3])
            if len(tokens) == 4:
                return rect
            _check_number(values[4], "region score")
            return Detection(rect, values[4], image_id)
        except ValueError as exc:
            raise ParseError(f"invalid rectangle: {exc}", lineno) from None
    if len(tokens) == 6:
        values = _parse_floats(tokens[:5], lineno)
        angle = values[2]
        if angle_unit == "degrees":
            angle = math.radians(angle)
        try:
            return Ellipse(
                center_x=values[3],
                center_y=values[4],
                semi_major=values[0],
                semi_minor=values[1],
                angle=angle,
            )
        except ValueError as exc:
            raise ParseError(f"invalid ellipse: {exc}", lineno) from None
    raise ParseError(
        f"expected 4 fields (rect), 5 (scored rect) or 6 (ellipse), got {len(tokens)}",
        lineno,
    )


# Characters per chunk of :func:`_lines`.
_CHUNK = 8192


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """``enumerate(text.splitlines(), 1)``, split about ``_CHUNK`` characters at a time.

    Each chunk but the last ends just after a ``\\n``.  A ``\\n`` always
    ends a line break, also as the end of ``\\r\\n``, so each chunk splits
    exactly as it does inside the whole text, and only one chunk's lines
    are held at a time.
    """
    lineno = 1
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        for line in text[start:end].splitlines():
            yield lineno, line
            lineno += 1
        start = end


def _entries(lines: Iterator[tuple[int, str]], angle_unit: str) -> Iterator[AnnotationEntry]:
    """A region-list file's image blocks, one at a time (see :func:`parse_region_list`).

    ``lines`` yields each line with its 1-based number, as :func:`_lines`
    does; a line past the end reads as blank, one number on.
    """
    first_seen: dict[str, int] = {}
    for id_line, line in lines:
        image_id = line.strip()
        if not image_id:
            continue
        if image_id in first_seen:
            raise ParseError(
                f"duplicate image id {image_id!r} (first seen on line {first_seen[image_id]})",
                id_line,
            )
        first_seen[image_id] = id_line
        lineno, line = next(lines, (id_line + 1, ""))
        count_token = line.strip()
        if not count_token:
            raise ParseError(f"image {image_id!r}: missing region count", lineno)
        try:
            count = int(count_token)
        except ValueError:
            raise ParseError(
                f"image {image_id!r}: expected a region count, got {count_token!r}", lineno
            ) from None
        if count < 0:
            raise ParseError(f"image {image_id!r}: negative region count {count}", lineno)
        regions = []
        for found in range(count):
            lineno, line = next(lines, (lineno + 1, ""))
            if not line.strip():
                raise ParseError(
                    f"image {image_id!r}: declared {count} regions, found {found}", lineno
                )
            regions.append(_parse_region_line(line, lineno, angle_unit, image_id))
        yield AnnotationEntry(image_id, tuple(regions), id_line)


def parse_region_list(text: str, *, angle_unit: str = "radians") -> AnnotationFile:
    """Parse an FDDB-style region-list file.

    Blank lines are allowed between records but not inside one.  Raises
    :class:`ParseError` on the first malformed line, undeclared or
    missing regions, or a duplicate image id.
    """
    _check_angle_unit(angle_unit)
    return AnnotationFile(tuple(_entries(_lines(text), angle_unit)))


def _check_angle_unit(angle_unit: str) -> None:
    if angle_unit not in _ANGLE_UNITS:
        raise ValueError(f"angle_unit must be one of {_ANGLE_UNITS}, got {angle_unit!r}")


def parse_scored_rects(text: str) -> list[Detection]:
    """Scored rectangles, one ``x y w h score`` line each, on image ``""``; blank lines skipped."""
    detections = []
    for lineno, line in _lines(text):
        if not line.strip():
            continue
        region = _parse_region_line(line, lineno, "radians", "")
        if not isinstance(region, Detection):
            raise ParseError("expected an 'x y w h score' line", lineno)
        detections.append(region)
    return detections


def format_rect(rect: Rect, score: float | None = None) -> str:
    """A rectangle as an ``x y w h [score]`` line body (6 significant digits)."""
    fields = [rect.x_min, rect.y_min, rect.width, rect.height]
    if score is not None:
        fields.append(score)
    return " ".join(_format_number(value) for value in fields)


def _entry_error(entry: AnnotationEntry, message: str, offset: int = 0) -> ValueError:
    """The error ``message`` about ``entry``, naming the line ``offset`` lines below its image id.

    An entry not read from a file names no line.
    """
    if not entry.line:
        return ValueError(message)
    return ParseError(message, entry.line + offset)


def _entry_detections(entry: AnnotationEntry, image_ids: Container[str]) -> tuple[Detection, ...]:
    """A detection-file entry's regions, all detections, on an image of ``image_ids``.

    An image outside ``image_ids``, an ellipse or an unscored box is an
    error; one about an entry read from a file is a :class:`ParseError`
    naming the line of its image id or region.
    """
    if entry.image_id not in image_ids:
        raise _entry_error(
            entry, f"detections reference image {entry.image_id!r} absent from the annotations"
        )
    # The regions follow the count line, which follows the image id.
    for offset, region in enumerate(entry.regions, start=2):
        if isinstance(region, Detection):
            continue
        if isinstance(region, Ellipse):
            raise _entry_error(
                entry,
                f"image {entry.image_id!r}: detections must be rectangles, got an ellipse",
                offset,
            )
        raise _entry_error(
            entry, f"image {entry.image_id!r}: detection entries must carry scores", offset
        )
    return entry.regions


def build_dataset(annotations: AnnotationFile, detections: AnnotationFile) -> EvalDataset:
    """Join ground-truth and detection files by image id.

    Every annotated image appears in the dataset, with or without
    detections.  Detections for an image missing from the annotations
    are an error, as are detection entries without scores or with
    ellipse regions.  An error about an entry read from a file is a
    :class:`ParseError` naming the line of its image id or region.  The
    entries' own ``Detection`` objects go into the dataset, so each must
    be on its entry's image.
    """
    gts = {
        entry.image_id: [
            # A scored ground truth's score is ignored.
            GroundTruth(region.region if isinstance(region, Detection) else region, entry.image_id)
            for region in entry.regions
        ]
        for entry in annotations.entries
    }
    dets = {entry.image_id: _entry_detections(entry, gts) for entry in detections.entries}
    return EvalDataset.from_images(
        {image_id: (dets.get(image_id, ()), image_gts) for image_id, image_gts in gts.items()}
    )


def read_detections(
    text: str,
    image_ids: Container[str],
    *,
    angle_unit: str = "radians",
    top: int | None = None,
) -> Iterator[tuple[Detection, ...]]:
    """A detection file's detections, one image block at a time.

    Each block follows the rules of :func:`parse_region_list` and
    :func:`build_dataset`, with ``image_ids`` the annotated images, and
    the first error is the one those two would raise: any malformed line
    of the file first, then the first block that breaks a dataset rule.
    So that second kind is raised only once the whole text has parsed,
    after the blocks before it were yielded.  With ``top``, an int of at
    least 1 (checked at the call), a block keeps its ``top`` best-scored
    detections (ties by input order), in input order.
    """
    _check_angle_unit(angle_unit)
    _check_top(top)
    return _detection_blocks(_entries(_lines(text), angle_unit), image_ids, top)


def _check_top(top: int | None) -> None:
    if top is not None and (not _is_int(top) or top < 1):
        raise ValueError(f"top must be an int >= 1, got {top!r}")


def _detection_blocks(
    entries: Iterator[AnnotationEntry], image_ids: Container[str], top: int | None
) -> Iterator[tuple[Detection, ...]]:
    error = None
    for entry in entries:
        if error is not None:
            continue  # only a malformed line can still come first
        try:
            dets = _entry_detections(entry, image_ids)
        except ValueError as exc:
            error = exc
            continue
        if top is not None and len(dets) > top:
            dets = tuple(dets[i] for i in sorted(_score_order([d.score for d in dets])[:top]))
        yield dets
    if error is not None:
        raise error


def _format_number(value: float) -> str:
    return f"{value:.6g}"


def _json_number(value: float) -> float | str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(_format_number(value))


def _curve_to_csv(curve: Curve) -> str:
    out = [f"# x={curve.x_semantics.value} y={curve.y_semantics.value}", "x,y,threshold"]
    for point in curve.points:
        out.append(
            f"{_format_number(point.x)},{_format_number(point.y)},{_format_number(point.threshold)}"
        )
    return "\n".join(out) + "\n"


def _curve_to_json(curve: Curve, dataset_name: str, matcher: str) -> str:
    payload = {
        "dataset": dataset_name,
        "matcher": matcher,
        "tool_version": __version__,
        "x_semantics": curve.x_semantics.value,
        "y_semantics": curve.y_semantics.value,
        "points": [
            [_json_number(p.x), _json_number(p.y), _json_number(p.threshold)]
            for p in curve.points
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_curve(
    curve: Curve,
    format: str = "csv",
    *,
    dataset_name: str = "",
    matcher: str = "",
) -> str:
    """Serialize a curve to canonical CSV or JSON text.

    CSV carries a one-line semantics comment; JSON additionally records
    the dataset name, matcher, and tool version.
    """
    if format not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {format!r}")
    if format == "json":
        return _curve_to_json(curve, dataset_name, matcher)
    return _curve_to_csv(curve)


def _semantics(x_name: str, y_name: str, lineno: int) -> tuple[XSemantics, YSemantics]:
    try:
        return XSemantics(x_name), YSemantics(y_name)
    except ValueError:
        raise ParseError(f"unknown curve semantics {x_name!r}/{y_name!r}", lineno) from None


def _build_curve(
    points: list[CurvePoint], x_sem: XSemantics, y_sem: YSemantics, linenos: list[int]
) -> Curve:
    """The curve of ``points``; ``linenos`` gives the line each point came from."""
    try:
        return Curve(points=tuple(points), x_semantics=x_sem, y_semantics=y_sem)
    except CurvePointError as exc:
        raise ParseError(f"invalid curve data: {exc}", linenos[exc.index]) from None


def _curve_from_csv(text: str) -> Curve:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ParseError("expected a '# x=... y=...' semantics comment", 1)
    fields = dict(
        token.split("=", 1) for token in lines[0][2:].split() if "=" in token
    )
    if "x" not in fields or "y" not in fields:
        raise ParseError("semantics comment must define x= and y=", 1)
    x_sem, y_sem = _semantics(fields["x"], fields["y"], 1)
    if len(lines) < 2 or lines[1].strip() != "x,y,threshold":
        raise ParseError("expected the header row 'x,y,threshold'", 2)
    points = []
    linenos = []
    for offset, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(f"expected 3 comma-separated values, got {len(cells)}", offset)
        values = _parse_floats(cells, offset)
        points.append(CurvePoint(*values))
        linenos.append(offset)
    return _build_curve(points, x_sem, y_sem, linenos)


def _json_with_list_lines(text: str) -> tuple[object, dict[int, int]]:
    """``json.loads(text)``, plus the line of each parsed list's ``[``, by the list's ``id``."""
    lines: dict[int, int] = {}
    # Lists open in document order, so the newlines are counted once, forward.
    offset, line = 0, 1

    def parse_array(string_and_start, scan_once):
        nonlocal offset, line
        string, start = string_and_start
        line += string.count("\n", offset, start)
        offset = start
        opened_on = line
        values, end = json.decoder.JSONArray(string_and_start, scan_once)
        lines[id(values)] = opened_on
        return values, end

    decoder = json.JSONDecoder(parse_int=float)
    decoder.parse_array = parse_array
    decoder.scan_once = json.scanner.py_make_scanner(decoder)
    try:
        return decoder.decode(text), lines
    except RecursionError:
        # ``line`` is that of the deepest '[' the parse opened.
        raise ParseError("JSON nested too deeply", line) from None


def _curve_from_json(text: str) -> Curve:
    """Curve from JSON text that opens with ``{``, so the parsed document is an object.

    The C scanner parses first.  Only when that parse or the curve built
    from it fails is the text parsed again with line tracking, so the
    error names the line it was found on.  Both parses read a JSON integer
    as a float, so one past the float range reads as ``inf``, as ``1e400``
    does, and the curve's own rules judge it.
    """
    try:
        return _curve_from_payload(json.loads(text, parse_int=float), None)
    except (ValueError, RecursionError):  # JSONDecodeError and ParseError are ValueErrors
        pass
    try:
        payload, lines = _json_with_list_lines(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    return _curve_from_payload(payload, lines)


def _curve_from_payload(payload: dict, lines: dict[int, int] | None) -> Curve:
    """Curve from a parsed JSON object; ``lines`` maps each list's ``id`` to its line.

    Without ``lines``, every error is reported as line 0.
    """
    try:
        x_name = payload["x_semantics"]
        y_name = payload["y_semantics"]
        raw_points = payload["points"]
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}", 1) from None
    x_sem, y_sem = _semantics(str(x_name), str(y_name), 1)
    if not isinstance(raw_points, list):
        raise ParseError("'points' must be a list", 1)
    points = []
    linenos = []
    for raw in raw_points:
        # A point's line is that of its '['; a point that is no list gets the point list's.
        lineno = 0 if lines is None else lines[id(raw if isinstance(raw, list) else raw_points)]
        if not isinstance(raw, list) or len(raw) != 3:
            raise ParseError(f"each point must be a 3-element list, got {raw!r}", lineno)
        try:
            points.append(CurvePoint(*map(_json_float, raw)))
        except (TypeError, ValueError):
            raise ParseError(f"non-numeric point {raw!r}", lineno) from None
        linenos.append(lineno)
    return _build_curve(points, x_sem, y_sem, linenos)


def _json_float(value: object) -> float:
    """A JSON point value as a float: a number, or a string such as ``"inf"``; never a bool."""
    if isinstance(value, bool):
        raise TypeError("a JSON true or false is not a number")
    return float(value)


def read_curve(text: str) -> Curve:
    """Parse a curve written by :func:`write_curve` (either format)."""
    if text.lstrip().startswith("{"):
        return _curve_from_json(text)
    return _curve_from_csv(text)
