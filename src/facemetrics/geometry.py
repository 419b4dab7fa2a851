"""Overlap computations between rectangles and ellipses, plus NMS.

Conventions used throughout the package:

* Coordinates live in a continuous plane.  A box covers the open region
  between its corners, so its width is ``x_max - x_min`` with no
  integer-pixel "+1" adjustment.  State this when comparing numbers
  against tools that use the legacy pixel convention (e.g. some FDDB
  evaluation scripts).
* Ellipse angles are radians, measured counter-clockwise from the +x
  axis to the major axis.
* Degenerate (zero-area) regions never overlap anything: their IoU with
  any region is defined as 0.
* All functions are pure and all region types are immutable, so callers
  may evaluate them concurrently without locking.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple, Sequence

if TYPE_CHECKING:  # only for annotations; Detection lives in matching
    from .matching import Detection

__all__ = [
    "Rect",
    "Ellipse",
    "Polygon",
    "area",
    "iou_rect",
    "ellipse_to_polygon",
    "iou_ellipse_rect",
    "bounding_rect",
    "clip_polygon_to_rect",
    "nms",
]

# Vertex count of the inscribed polygon that stands in for an ellipse.
_POLYGON_VERTICES = 1024
_INF = math.inf


def _score_order(scores: Sequence[float]) -> list[int]:
    """Indices by descending score, ties by index: the order of every score-ranked visit.

    A reverse sort is stable, so equal scores keep their index order.
    """
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")


def _check_rect_fields(x_min: float, y_min: float, x_max: float, y_max: float) -> None:
    """Raise the first of a Rect's field errors: a non-finite field, then inverted corners."""
    for name, value in (("x_min", x_min), ("y_min", y_min), ("x_max", x_max), ("y_max", y_max)):
        if not math.isfinite(value):
            raise ValueError(f"Rect.{name} must be finite, got {value!r}")
    if x_max < x_min:
        raise ValueError(f"Rect requires x_max >= x_min, got {x_min}..{x_max}")
    if y_max < y_min:
        raise ValueError(f"Rect requires y_max >= y_min, got {y_min}..{y_max}")


@dataclass(slots=True, init=False, unsafe_hash=True)
class Rect:
    """Axis-aligned rectangle with min/max corners.

    An immutable value with the contract of a frozen dataclass: equality
    with other ``Rect`` objects only, the hash of the field tuple, the
    dataclass ``repr``, and :class:`dataclasses.FrozenInstanceError` on
    assignment or deletion.  ``dataclasses.replace``, ``fields``,
    ``asdict`` and ``astuple`` work, and ``replace`` checks its result
    through ``__init__``.

    It is not declared ``frozen=True``: a frozen dataclass may not define
    ``__setattr__``, and region-proposal code builds one ``Rect`` per
    anchor and per decoded box.  The hand-written ``__init__`` makes one
    combined check, then fills the slots through their own setters.
    ``__setattr__`` and ``__delattr__`` keep instances immutable, which
    makes ``unsafe_hash=True`` safe.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float) -> None:
        try:
            valid = -_INF < x_min <= x_max < _INF and -_INF < y_min <= y_max < _INF
        except (TypeError, ArithmeticError):  # a non-number, or a Decimal NaN
            valid = False
        if not valid:
            # Raises the error of the first bad field (a TypeError for a non-number).
            _check_rect_fields(x_min, y_min, x_max, y_max)
        _set_x_min(self, x_min)
        _set_y_min(self, y_min)
        _set_x_max(self, x_max)
        _set_y_max(self, y_max)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Rebuild through __init__: the default slot-state restore would
        # go through the frozen __setattr__.
        return (type(self), (self.x_min, self.y_min, self.x_max, self.y_max))

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    @classmethod
    def from_xywh(cls, x: float, y: float, width: float, height: float) -> "Rect":
        """Build from left-top corner plus size (the detection-file layout)."""
        return cls(x, y, x + width, y + height)


# The slots' own setters, which bypass the frozen __setattr__.
_set_x_min, _set_y_min, _set_x_max, _set_y_max = (
    getattr(Rect, name).__set__ for name in Rect.__slots__
)


@dataclass(frozen=True, slots=True)
class Ellipse:
    """Rotated ellipse; ``angle`` is radians CCW from +x to the major axis."""

    center_x: float
    center_y: float
    semi_major: float
    semi_minor: float
    angle: float

    def __post_init__(self) -> None:
        for name in ("center_x", "center_y", "semi_major", "semi_minor", "angle"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"Ellipse.{name} must be finite, got {value!r}")
        if self.semi_minor <= 0:
            raise ValueError(f"Ellipse requires semi_minor > 0, got {self.semi_minor}")
        if self.semi_major < self.semi_minor:
            raise ValueError(
                "Ellipse requires semi_major >= semi_minor, got "
                f"{self.semi_major} < {self.semi_minor}"
            )
        # Every IoU needs a finite area.  Finite bounds keep bounding_rect a
        # valid Rect, and with them every polygon vertex is finite.
        if math.isinf(self.area):
            raise ValueError(
                f"Ellipse semi_major {self.semi_major} with semi_minor {self.semi_minor} "
                "gives an infinite area"
            )
        try:
            # With a finite area the sum of squares cannot overflow, so a
            # half extent that computes is at most sqrt(max float), about
            # 1.3e154, and the center plus or minus it stays finite.
            _half_extents(self)
        except OverflowError:  # a squared half extent past the float range
            raise ValueError(f"{self!r} has axis-aligned bounds past the float range") from None

    @property
    def area(self) -> float:
        return math.pi * self.semi_major * self.semi_minor


@dataclass(frozen=True, slots=True)
class Polygon:
    """Simple polygon with counter-clockwise vertices, stored as a tuple.

    A tuple is kept as given (no copy); any other sequence is copied into
    one, so the caller's list can change without the polygon changing.
    Simplicity is not re-checked; every constructor in this module emits
    non-self-intersecting tuples of float pairs by construction.

    Construction also builds the polygon's clip data for
    :func:`iou_ellipse_rect` (the monotone runs of each coordinate and the
    shoelace term of each edge, O(n)) into a private slot that takes no
    part in equality, hashing or ``repr``.
    """

    vertices: tuple[tuple[float, float], ...]
    _arcs: _Arcs = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vertices = tuple(self.vertices)
        if len(vertices) < 3:
            raise ValueError(f"Polygon requires >= 3 vertices, got {len(vertices)}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_arcs", _build_arcs(vertices))

    @property
    def area(self) -> float:
        """The shoelace area: the cached edge terms added one by one in vertex order."""
        return abs(0.5 * functools.reduce(operator.add, self._arcs.terms, 0.0))


def area(rect: Rect) -> float:
    """Area of a rectangle (0 for degenerate rects)."""
    return rect.width * rect.height


def iou_rect(a: Rect, b: Rect) -> float:
    """Intersection-over-union of two rectangles, in [0, 1].

    Returns 0 when the union has zero area, so degenerate rectangles
    never match anything.
    """
    ax0, ay0, ax1, ay1 = a.x_min, a.y_min, a.x_max, a.y_max
    bx0, by0, bx1, by1 = b.x_min, b.y_min, b.x_max, b.y_max
    inter_w = min(ax1, bx1) - max(ax0, bx0)
    inter_h = min(ay1, by1) - max(ay0, by0)
    if inter_w <= 0 or inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0:
        return 0.0
    return inter / union


def ellipse_to_polygon(ellipse: Ellipse) -> Polygon:
    """Inscribe a ``_POLYGON_VERTICES``-gon (1024) in the ellipse at uniform parameter angles.

    The polygon's area falls short of pi * semi_major * semi_minor by a
    relative 6.3e-6.
    """
    cos_t = math.cos(ellipse.angle)
    sin_t = math.sin(ellipse.angle)
    a = ellipse.semi_major
    b = ellipse.semi_minor
    cx = ellipse.center_x
    cy = ellipse.center_y
    vertices = []
    append = vertices.append
    for cos_k, sin_k in _unit_circle():
        px = a * cos_k
        py = b * sin_k
        append((cx + px * cos_t - py * sin_t, cy + px * sin_t + py * cos_t))
    return Polygon(tuple(vertices))


@functools.cache
def _unit_circle() -> tuple[tuple[float, float], ...]:
    """``(cos t, sin t)`` at ``t = 2 pi k / n`` for k < n = ``_POLYGON_VERTICES``.

    Built on first use, so importing the package does not pay for it.
    """
    n = _POLYGON_VERTICES
    return tuple((math.cos(t), math.sin(t)) for t in (2.0 * math.pi * k / n for k in range(n)))


class _Axis(NamedTuple):
    """One coordinate of a polygon's vertices, cut into monotone runs.

    Run ``r`` covers the indices ``starts[r]:starts[r + 1]`` (``starts``
    ends with the vertex count).  Over it ``coords`` never decreases when
    ``ascending[r]`` and never increases otherwise, so it can be bisected
    (with ``key=operator.neg`` when descending; negation is exact).
    """

    coords: list[float]
    starts: list[int]
    ascending: list[bool]


class _Arcs(NamedTuple):
    """A polygon's clip data: its vertices, both axes' runs and its shoelace edge terms.

    ``terms[i]`` is the shoelace term ``x0 * y1 - x1 * y0`` of the edge
    from vertex ``i`` to vertex ``i + 1`` (cyclically), the same float
    wherever that edge appears in a clipped polygon.  Summed in index
    order, as ``tests/oracles.py::reference_signed_area`` sums them, they
    give the polygon's own area.
    """

    vertices: tuple[tuple[float, float], ...]
    axes: tuple[_Axis, _Axis]
    terms: list[float]


def _axis(coords: list[float], rotated: list[float]) -> _Axis:
    """Runs of ``coords``, given ``rotated``, the same list rotated left by one."""
    n = len(coords)
    # rising[i]: the step from vertex i to vertex i + 1 goes up (i = n - 1
    # closes the polygon and starts no run).  A run ends where that flips,
    # so each run strictly rises or never rises; flat and NaN steps count
    # as not rising.
    rising = list(map(operator.lt, coords, rotated))
    starts = [0]
    end = n - 1
    while starts[-1] < end:
        first = starts[-1]
        try:
            starts.append(rising.index(not rising[first], first, end))
        except ValueError:
            break
    if math.isnan(sum(coords)):  # a NaN (or both infinities): cut each NaN out on its own
        cuts = set(starts)
        for i in compress(range(n), map(operator.ne, coords, coords)):
            cuts.update((i, i + 1))
        cuts.discard(n)
        starts = sorted(cuts)
    ascending = [rising[i] for i in starts]
    starts.append(n)
    return _Axis(coords, starts, ascending)


def _build_arcs(vertices: tuple[tuple[float, float], ...]) -> _Arcs:
    """Clip data of a non-empty vertex tuple: O(n), mostly in C-level ``map`` calls."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    next_xs = xs[1:] + xs[:1]
    next_ys = ys[1:] + ys[:1]
    # x0 * y1 - x1 * y0 for each edge (x0, y0) -> (x1, y1).
    terms = list(map(operator.sub, map(operator.mul, xs, next_ys), map(operator.mul, next_xs, ys)))
    return _Arcs(vertices, (_axis(xs, next_xs), _axis(ys, next_ys)), terms)


def _crossing(
    prev: tuple[float, float], current: tuple[float, float], axis: int, bound: float
) -> tuple[float, float]:
    """Where the edge prev -> current meets the line ``coordinate[axis] == bound``.

    The endpoints sit on opposite sides, so the denominator is nonzero.
    """
    t = (bound - prev[axis]) / (current[axis] - prev[axis])
    return (prev[0] + t * (current[0] - prev[0]), prev[1] + t * (current[1] - prev[1]))


def _clip(arcs: _Arcs, rect: Rect) -> list:
    """Sutherland-Hodgman clip of the polygon to the rect, over runs rather than vertices.

    Returns the clipped polygon as pieces in output order: a ``range`` of
    consecutive polygon vertex indices, or a crossing point.  Expanded,
    they are exactly the list the vertex-by-vertex algorithm returns, in
    the same rotation: each pass emits a crossing on the edge from the
    same ``prev`` to the same ``current`` vertex, by the same formula,
    and keeps the same vertices.  Inside one monotone run a vertex's side
    of the rect edge can change at most once, so a pass tests a run's
    first vertex and bisects for the change, and keeps the inside part
    of the run as one index range.  Each pass costs O(runs + log n) for
    its ranges plus O(1) per crossing.
    """
    vertices, axes, _ = arcs
    pieces: list = [range(len(vertices))]
    for axis, bound, keep_above in (
        (0, rect.x_min, True),   # x >= x_min
        (0, rect.x_max, False),  # x <= x_max
        (1, rect.y_min, True),   # y >= y_min
        (1, rect.y_max, False),  # y <= y_max
    ):
        if not pieces:
            return []
        coords, starts, ascending = axes[axis]
        last = pieces[-1]
        prev = vertices[last[-1]] if type(last) is range else last
        prev_inside = prev[axis] >= bound if keep_above else prev[axis] <= bound
        out: list = []
        for piece in pieces:
            if type(piece) is not range:
                inside = piece[axis] >= bound if keep_above else piece[axis] <= bound
                if inside != prev_inside:
                    out.append(_crossing(prev, piece, axis, bound))
                if inside:
                    out.append(piece)
                prev = piece
                prev_inside = inside
                continue
            lo = piece.start
            stop = piece.stop
            r = bisect_right(starts, lo)  # starts[r] ends the run holding lo
            while lo < stop:
                hi = starts[r] if starts[r] < stop else stop
                up = ascending[r - 1]
                r += 1
                inside = coords[lo] >= bound if keep_above else coords[lo] <= bound
                if inside != prev_inside:
                    out.append(_crossing(prev, vertices[lo], axis, bound))
                # Along the run the side goes from outside to inside when
                # `entering`, else from inside to outside; k is where it flips.
                entering = keep_above == up
                if inside == entering:
                    k = hi
                else:
                    find = bisect_left if entering else bisect_right
                    if up:
                        k = find(coords, bound, lo + 1, hi)
                    else:
                        k = find(coords, -bound, lo + 1, hi, key=operator.neg)
                if inside:
                    kept = out[-1] if out else None
                    if type(kept) is range and kept.stop == lo:
                        out[-1] = range(kept.start, k)
                    else:
                        out.append(range(lo, k))
                if k < hi:
                    out.append(_crossing(vertices[k - 1], vertices[k], axis, bound))
                    inside = not inside
                    if inside:
                        out.append(range(k, hi))
                prev = vertices[hi - 1]
                prev_inside = inside
                lo = hi
        pieces = out
    return pieces


def clip_polygon_to_rect(vertices: Sequence[tuple[float, float]], rect: Rect) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a polygon against an axis-aligned rect.

    Returns the clipped vertex list (counter-clockwise, possibly empty).
    The subject polygon must be convex or at least simple; the output of
    clipping a convex polygon stays convex.

    The clip runs over the monotone runs of each coordinate rather than
    vertex by vertex (see ``_clip``): O(n) to find the runs, then
    O(runs + log n) per rect edge, plus the output.  The list is exactly
    the per-vertex algorithm's, in the same order, for any input,
    infinite and NaN coordinates included.  A vertex is inside an edge
    when ``x >= x_min`` (and so on) holds.
    """
    vertices = tuple(vertices)
    if not vertices:
        return []
    out: list[tuple[float, float]] = []
    for piece in _clip(_build_arcs(vertices), rect):
        if type(piece) is range:
            out += vertices[piece.start:piece.stop]
        else:
            out.append(piece)
    return out


def _clipped_area(arcs: _Arcs, pieces: list) -> float:
    """Signed shoelace area of the expanded pieces, bit for bit.

    Inside a range every edge is a polygon edge, whose term is read from
    ``arcs.terms``; only the edges that touch a crossing or join two
    pieces are computed.  The terms are added one by one in vertex order,
    as the vertex-by-vertex shoelace (``tests/oracles.py``'s
    ``reference_signed_area``) adds them: ``reduce`` adds in sequence,
    where ``sum`` would not (it is compensated from Python 3.12 on).
    """
    vertices, _, terms = arcs
    total = 0.0
    prev = None
    for piece in pieces:
        if type(piece) is range:
            start = vertices[piece.start]
            end = vertices[piece.stop - 1]
            inner = terms[piece.start:piece.stop - 1]
        else:
            start = end = piece
            inner = ()
        if prev is None:
            head = start
        else:
            total += prev[0] * start[1] - start[0] * prev[1]
        total = functools.reduce(operator.add, inner, total)
        prev = end
    total += prev[0] * head[1] - head[0] * prev[1]
    return 0.5 * total


def iou_ellipse_rect(ellipse: Ellipse, rect: Rect, *, polygon: Polygon | None = None) -> float:
    """IoU between an ellipse and a rectangle via polygon clipping.

    The ellipse's :func:`ellipse_to_polygon` is clipped against the
    rectangle; the ellipse's own area uses the exact pi * a * b value.
    The approximation error is far below the 5e-3 level that matters
    for matching decisions.

    ``polygon``, when given, must be the ``ellipse_to_polygon(ellipse)``
    result; callers that score one ellipse against many rects build it
    once and pass it in.  Without it every call builds the polygon, about
    0.5 ms, even for a rect far from the ellipse.  The polygon holds its
    monotone runs and its n shoelace edge terms, built with it in O(n).
    Each clip costs O(runs + log n) per rect edge (see
    :func:`clip_polygon_to_rect`), and the area one add per kept polygon
    edge plus the few terms that touch a crossing.  Those are added one
    by one in the vertex-by-vertex shoelace's order, with
    ``functools.reduce``, never ``sum()``: ``sum`` is compensated from
    Python 3.12 on, and any other order changes the last bits.  So the
    IoU is bit-identical to clipping vertex by vertex and summing the
    shoelace of the clipped list, as
    ``tests/oracles.py::reference_iou_ellipse_rect`` does.

    The clip decides every rect of nonzero area: a rect clear of the
    ellipse clips to nothing and scores 0.0.
    """
    rect_area = area(rect)
    if rect_area <= 0:
        return 0.0
    if polygon is None:
        polygon = ellipse_to_polygon(ellipse)
    arcs = polygon._arcs
    pieces = _clip(arcs, rect)
    if sum(len(p) if type(p) is range else 1 for p in pieces) < 3:
        return 0.0
    inter = abs(_clipped_area(arcs, pieces))
    union = ellipse.area + rect_area - inter
    if union <= 0:
        return 0.0
    iou = inter / union
    # Mixed exact/polygonal areas can nudge the ratio past the ideal
    # bounds by float error only.
    return min(max(iou, 0.0), 1.0)


def _half_extents(ellipse: Ellipse) -> tuple[float, float]:
    """Half width and half height of the ellipse's axis-aligned bounds."""
    a = ellipse.semi_major
    b = ellipse.semi_minor
    cos_t = math.cos(ellipse.angle)
    sin_t = math.sin(ellipse.angle)
    return (
        math.sqrt((a * cos_t) ** 2 + (b * sin_t) ** 2),
        math.sqrt((a * sin_t) ** 2 + (b * cos_t) ** 2),
    )


def bounding_rect(ellipse: Ellipse) -> Rect:
    """Tight axis-aligned bounds of a rotated ellipse."""
    half_w, half_h = _half_extents(ellipse)
    return Rect(
        ellipse.center_x - half_w,
        ellipse.center_y - half_h,
        ellipse.center_x + half_w,
        ellipse.center_y + half_h,
    )


# Exact pruning in ``nms`` (see its docstring): every limit is loosened
# by this relative slack, far above the few-ulp rounding of an IoU, and
# pruning by IoU bounds runs only where that rounding analysis holds.
_NMS_SLACK = 1e-9
_NMS_MIN_THRESHOLD = 1e-50
_NMS_MIN_SIDE = 1e-125
_NMS_MAX_SIDE = 1e125


def nms(dets: Sequence["Detection"], iou_threshold: float) -> list["Detection"]:
    """Greedy non-maximum suppression over one pool of detections.

    Detections are visited in descending score (ties by input index); a
    detection is dropped when its IoU with an already-kept detection
    exceeds ``iou_threshold``.  The strict comparison means boxes with
    zero overlap survive any threshold, including 0.  Image identifiers
    are ignored: pass one image's detections at a time.

    Kept boxes that cannot overlap a candidate by more than the
    threshold are skipped without an ``iou_rect`` call; the kept list is
    the same as comparing against every kept box.  Since IoU <= min(area)
    / max(area), kept boxes sit in buckets of ``floor(log(area) /
    -log(thr))`` and a candidate scans the adjacent buckets only.  There
    a pair is skipped when inter_w / max(w), inter_h / max(h) or
    min(area) / max(area), each an upper bound on IoU, is at most the
    threshold.  This is exact: the rounding in ``iou_rect`` puts its
    result at most a few ulps above each bound, and every limit, the
    bucket width included, is loosened by a relative 1e-9, so a skipped
    pair never has an IoU above ``iou_threshold``.  That rounding bound
    needs every box side in [1e-125, 1e125] (or 0) and a threshold of at
    least 1e-50; other pools skip only pairs whose IoU is exactly 0.
    Boxes of zero width or height neither suppress nor are suppressed.
    """
    _check_iou_threshold(iou_threshold)
    order = _score_order([d.score for d in dets])
    boxes = [d.region for d in dets]
    sizes = [(r.x_max - r.x_min, r.y_max - r.y_min) for r in boxes]
    if iou_threshold >= _NMS_MIN_THRESHOLD and all(
        w == 0.0 or h == 0.0 or (
            _NMS_MIN_SIDE <= w <= _NMS_MAX_SIDE and _NMS_MIN_SIDE <= h <= _NMS_MAX_SIDE
        )
        for w, h in sizes
    ):
        limit = iou_threshold * (1.0 - _NMS_SLACK)
        log_width = -math.log(iou_threshold) * (1.0 + _NMS_SLACK) + _NMS_SLACK
    else:
        limit = 0.0
        log_width = 0.0  # one bucket
    buckets: dict[int, list[tuple]] = {}
    kept: list[int] = []
    for i in order:
        w, h = sizes[i]
        if w == 0.0 or h == 0.0:
            kept.append(i)
            continue
        box = boxes[i]
        x0, y0, x1, y1 = box.x_min, box.y_min, box.x_max, box.y_max
        a = w * h
        # limit * max(p, q) is the larger of limit * p and limit * q.
        la = limit * a
        lw = limit * w
        lh = limit * h
        key = math.floor(math.log(a) / log_width) if log_width else 0
        near = (*buckets.get(key - 1, ()), *buckets.get(key, ()), *buckets.get(key + 1, ()))
        for j, u0, v0, u1, v1, kw, kh, ka in near:
            iw = (x1 if x1 < u1 else u1) - (x0 if x0 > u0 else u0)
            if iw <= lw or iw <= kw:
                continue
            ih = (y1 if y1 < v1 else v1) - (y0 if y0 > v0 else v0)
            if ih <= lh or ih <= kh or a <= limit * ka or ka <= la:
                continue
            # ``not <=`` so that a NaN IoU (overflowing areas) suppresses,
            # as the plain comparison against every kept box does.
            if not iou_rect(box, boxes[j]) <= iou_threshold:
                break
        else:
            kept.append(i)
            buckets.setdefault(key, []).append((i, x0, y0, x1, y1, lw, lh, a))
    return [dets[i] for i in kept]
