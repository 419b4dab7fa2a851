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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

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
_FLOAT_MAX = math.nextafter(_INF, 0.0)


def _score_order(scores: Sequence[float]) -> list[int]:
    """Indices by descending score, ties by index: the order of every score-ranked visit.

    A reverse sort is stable, so equal scores keep their index order.
    """
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")


def _check_number(value: object, label: str) -> None:
    """Every number field's rule: :func:`_check_number_type`, then in the float range."""
    _check_number_type(value, label)
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"{label} must be finite, got {_number_text(value)}")


def _check_number_type(value: object, label: str) -> None:
    """A number field's type rule: an ``int`` or ``float``, not a ``bool``.

    A field whose own range rule also demands a finite value checks its
    type with this alone, so that the range rule's message names a
    non-finite value.
    """
    if type(value) is not float and (type(value) is bool or not isinstance(value, (int, float))):
        raise TypeError(f"{label} must be an int or float, got {type(value).__name__}")


def _number_text(value: float) -> str:
    """``repr(value)``, or the bit length of an ``int`` with too many digits for ``repr``."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"an int of {value.bit_length()} bits"


def _is_int(value: object) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``: the type of every count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_rect_fields(x_min: float, y_min: float, x_max: float, y_max: float) -> None:
    """Raise the first of a Rect's field errors, then any inverted corners."""
    _check_number(x_min, "Rect.x_min")
    _check_number(y_min, "Rect.y_min")
    _check_number(x_max, "Rect.x_max")
    _check_number(y_max, "Rect.y_max")
    if x_max < x_min:
        raise ValueError(f"Rect requires x_max >= x_min, got {x_min}..{x_max}")
    if y_max < y_min:
        raise ValueError(f"Rect requires y_max >= y_min, got {y_min}..{y_max}")


@dataclass(slots=True, init=False, unsafe_hash=True)
class Rect:
    """Axis-aligned rectangle with min/max corners.

    Each field is a finite ``int`` or ``float`` (a ``bool`` is not taken),
    with ``x_min <= x_max`` and ``y_min <= y_max``.  An immutable value
    with the contract of a frozen dataclass: equality with other ``Rect``
    objects only, the hash of the field tuple, the dataclass ``repr``, and
    :class:`dataclasses.FrozenInstanceError` on assignment or deletion.  ``dataclasses.replace``, ``fields``,
    ``asdict`` and ``astuple`` work, and ``replace`` checks its result
    through ``__init__``.

    It is not declared ``frozen=True``: a frozen dataclass may not define
    ``__setattr__``, and region-proposal code builds one ``Rect`` per
    anchor and per decoded box.  The hand-written ``__init__`` makes one
    combined check when all four fields are floats, and checks each field
    in turn otherwise; it then fills the slots through their own setters.
    ``__setattr__`` and ``__delattr__`` keep instances immutable, which
    makes ``unsafe_hash=True`` safe.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float) -> None:
        if not (
            type(x_min) is type(y_min) is type(x_max) is type(y_max) is float
            and -_INF < x_min <= x_max < _INF
            and -_INF < y_min <= y_max < _INF
        ):
            # Raises the error of the first bad field, if any: ints take this path too.
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
    """Rotated ellipse; ``angle`` is radians CCW from +x to the major axis.

    Each field is a finite ``int`` or ``float``, not a ``bool``, as in a ``Rect``.
    """

    center_x: float
    center_y: float
    semi_major: float
    semi_minor: float
    angle: float

    def __post_init__(self) -> None:
        _check_number(self.center_x, "Ellipse.center_x")
        _check_number(self.center_y, "Ellipse.center_y")
        _check_number(self.semi_major, "Ellipse.semi_major")
        _check_number(self.semi_minor, "Ellipse.semi_minor")
        _check_number(self.angle, "Ellipse.angle")
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
    """Simple polygon: counter-clockwise vertices, stored as a tuple of its own ``(x, y)`` pairs.

    Editing the caller's points later changes neither the polygon nor its
    area.  A non-finite vertex raises ``ValueError``, as a non-finite
    ``Rect`` or ``Ellipse`` field does.  Simplicity is not re-checked;
    every constructor in this module emits simple polygons.

    A polygon is also its own clip record for :func:`iou_ellipse_rect`,
    built with it in O(n) into private fields that take no part in
    equality, hashing or ``repr``: ``_axes``, the monotone runs of each
    coordinate, and ``_terms``, the shoelace term of each edge.
    ``_terms[i]`` is ``x0 * y1 - x1 * y0`` for the edge from vertex ``i``
    to vertex ``i + 1`` (cyclically), the same float wherever that edge
    appears in a clipped polygon, with every coordinate taken less the
    first vertex's.  Summed in index order, as
    ``tests/oracles.py::reference_signed_area`` sums them about that
    vertex, they give the polygon's own area.  The shoelace sum does not
    depend on the point the terms are taken about, but its rounding does:
    about ``(0, 0)`` the products grow with the polygon's distance from
    it and cancel, far off, to an area that is wrong or not finite; about
    a vertex they grow only with the polygon's size.
    """

    vertices: tuple[tuple[float, float], ...]
    _axes: tuple[_Axis, _Axis] = field(init=False, compare=False, repr=False)
    _terms: list[float] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vertices = self.vertices
        if len(vertices) < 3:
            raise ValueError(f"Polygon requires >= 3 vertices, got {len(vertices)}")
        _from_columns([v[0] for v in vertices], [v[1] for v in vertices], self)

    @property
    def area(self) -> float:
        """The shoelace area: the cached edge terms added one by one in vertex order.

        When their sum is not finite (twice the area, or the distance
        between two vertices, passes the float range), it is the area of
        a copy whose axes are each scaled by the power of two of
        ``_down_shift`` for that axis, scaled back in one ``ldexp``.  That
        is exact wherever no coordinate drops below the normal range, so
        an area below the float range stays finite, also for a polygon
        that is far longer on one axis than on the other; an area past the
        float range is ``inf``.
        """
        total = functools.reduce(operator.add, self._terms, 0.0)
        if math.isfinite(total):
            return abs(0.5 * total)
        xs, ys = (axis.coords for axis in self._axes)
        x_shift, y_shift = _down_shift(xs), _down_shift(ys)
        scaled = _from_columns(
            [math.ldexp(x, x_shift) for x in xs], [math.ldexp(y, y_shift) for y in ys]
        )
        try:
            return math.ldexp(scaled.area, -x_shift - y_shift)
        except OverflowError:
            return math.inf


def area(rect: Rect) -> float:
    """Area of a rectangle (0 for degenerate rects)."""
    return rect.width * rect.height


def iou_rect(a: Rect, b: Rect) -> float:
    """Intersection-over-union of two rectangles, in [0, 1].

    Returns 0 when the union has zero area, so degenerate rectangles
    never match anything.  Where a side, an area or the union passes the
    float range (boxes whose sides near 1e154 or whose corners near
    1e308), the IoU is taken on both boxes scaled down by the power of
    two of ``_down_shift``: that scaling is exact wherever no value
    drops below the normal range, so the IoU is the one unbounded
    exponents would give.
    """
    ax0, ay0, ax1, ay1 = a.x_min, a.y_min, a.x_max, a.y_max
    bx0, by0, bx1, by1 = b.x_min, b.y_min, b.x_max, b.y_max
    inter_w = min(ax1, bx1) - max(ax0, bx0)
    inter_h = min(ay1, by1) - max(ay0, by0)
    if inter_w <= 0 or inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if 0.0 < union < _INF:
        return inter / union
    if union <= 0:
        return 0.0
    # An infinite or NaN union: some corner is past 2**510, so the shift
    # is negative and the scaled union finite.
    corners = (ax0, ay0, ax1, ay1, bx0, by0, bx1, by1)
    shift = _down_shift(corners)
    scaled = [math.ldexp(v, shift) for v in corners]
    return iou_rect(Rect(*scaled[:4]), Rect(*scaled[4:]))


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
    xs = []
    ys = []
    add_x = xs.append
    add_y = ys.append
    for cos_k, sin_k in _unit_circle():
        px = a * cos_k
        py = b * sin_k
        add_x(cx + px * cos_t - py * sin_t)
        add_y(cy + px * sin_t + py * cos_t)
    return _from_columns(xs, ys)


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


def _axis(coords: list[float], rotated: list[float]) -> _Axis:
    """Runs of the finite ``coords``, given ``rotated``, the same list rotated left by one."""
    n = len(coords)
    # rising[i]: the step from vertex i to vertex i + 1 goes up (i = n - 1
    # closes the polygon and starts no run).  A run ends where that flips,
    # so each run strictly rises or never rises; flat steps count as not rising.
    rising = list(map(operator.lt, coords, rotated))
    starts = [0]
    end = n - 1
    while starts[-1] < end:
        first = starts[-1]
        try:
            starts.append(rising.index(not rising[first], first, end))
        except ValueError:
            break
    ascending = [rising[i] for i in starts]
    starts.append(n)
    return _Axis(coords, starts, ascending)


def _from_columns(xs: list[float], ys: list[float], polygon: Polygon | None = None) -> Polygon:
    """The polygon of vertices ``zip(xs, ys)`` with its clip data, in O(n).

    Fills ``polygon``'s fields after its own checks, or a new polygon's
    when it is omitted: internal paths hold their coordinates as columns
    already, and ``clip_polygon_to_rect`` clips fewer than 3 vertices too.
    The columns must be non-empty; a non-finite vertex raises ValueError.
    """
    if not math.isfinite(sum(xs) + sum(ys)):  # a bad coordinate, or a sum past the float range
        for i, point in enumerate(zip(xs, ys)):
            if not (math.isfinite(point[0]) and math.isfinite(point[1])):
                raise ValueError(f"Polygon vertex {i} must be finite, got {point!r}")
    next_xs = xs[1:] + xs[:1]
    next_ys = ys[1:] + ys[:1]
    ox, oy = xs[0], ys[0]
    dxs = [x - ox for x in xs]
    dys = [y - oy for y in ys]
    terms = list(map(
        operator.sub,
        map(operator.mul, dxs, dys[1:] + dys[:1]),
        map(operator.mul, dxs[1:] + dxs[:1], dys),
    ))
    if polygon is None:
        polygon = object.__new__(Polygon)
    object.__setattr__(polygon, "vertices", tuple(zip(xs, ys)))
    object.__setattr__(polygon, "_axes", (_axis(xs, next_xs), _axis(ys, next_ys)))
    object.__setattr__(polygon, "_terms", terms)
    return polygon


def _crossing(
    prev: tuple[float, float], current: tuple[float, float], axis: int, bound: float
) -> tuple[float, float]:
    """Where the edge prev -> current meets the line ``coordinate[axis] == bound``.

    The endpoints sit on opposite sides, so the denominator is nonzero.
    """
    t = (bound - prev[axis]) / (current[axis] - prev[axis])
    return (prev[0] + t * (current[0] - prev[0]), prev[1] + t * (current[1] - prev[1]))


def _clip(polygon: Polygon, rect: Rect) -> list:
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
    vertices = polygon.vertices
    axes = polygon._axes
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
    the per-vertex algorithm's, as ``(x, y)`` tuples, in the same order,
    for every finite input; a non-finite vertex raises ``ValueError``.  A
    vertex is inside an edge when ``x >= x_min`` (and so on) holds.
    """
    if not vertices:
        return []
    polygon = _from_columns([v[0] for v in vertices], [v[1] for v in vertices])
    out: list[tuple[float, float]] = []
    for piece in _clip(polygon, rect):
        if type(piece) is range:
            out += polygon.vertices[piece.start:piece.stop]
        else:
            out.append(piece)
    return out


def _clipped_area(polygon: Polygon, pieces: list) -> float:
    """Signed shoelace area of the expanded pieces, bit for bit.

    Inside a range every edge is a polygon edge, whose term is read from
    ``polygon._terms``; only the edges that touch a crossing or join two
    pieces are computed, on coordinates less the first polygon vertex's
    as the cached terms are.  The terms are added one by one in vertex
    order, as the vertex-by-vertex shoelace (``tests/oracles.py``'s
    ``reference_signed_area``) adds them: ``reduce`` adds in sequence,
    where ``sum`` would not (it is compensated from Python 3.12 on).
    """
    vertices = polygon.vertices
    terms = polygon._terms
    ox, oy = vertices[0]
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
            total += (prev[0] - ox) * (start[1] - oy) - (start[0] - ox) * (prev[1] - oy)
        total = functools.reduce(operator.add, inner, total)
        prev = end
    total += (prev[0] - ox) * (head[1] - oy) - (head[0] - ox) * (prev[1] - oy)
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
    ``tests/oracles.py::reference_iou_ellipse_rect`` does.  Every term is
    taken about the polygon's first vertex (see :class:`Polygon`), so an ellipse
    far from ``(0, 0)`` scores as it does at the origin.

    The clip decides every rect of nonzero area: a rect clear of the
    ellipse clips to nothing and scores 0.0.

    Where the clipped area, the rect's area or the union passes the float
    range (an ellipse or rect whose area nears 1.8e308), the IoU is taken
    on a copy scaled down by a power of two (see ``_scaled_down_iou``).
    """
    rect_area = area(rect)
    if rect_area <= 0:
        return 0.0
    if polygon is None:
        polygon = ellipse_to_polygon(ellipse)
    return _polygon_rect_iou(polygon, ellipse.area, rect, rect_area)


def _polygon_rect_iou(polygon: Polygon, ellipse_area: float, rect: Rect, rect_area: float) -> float:
    """:func:`iou_ellipse_rect` on the ellipse's polygon and area."""
    pieces = _clip(polygon, rect)
    if sum(len(p) if type(p) is range else 1 for p in pieces) < 3:
        return 0.0
    inter = abs(_clipped_area(polygon, pieces))
    union = ellipse_area + rect_area - inter
    if not math.isfinite(union):
        return _scaled_down_iou(polygon, ellipse_area, rect)
    if union <= 0:
        return 0.0
    iou = inter / union
    # Mixed exact/polygonal areas can nudge the ratio past the ideal
    # bounds by float error only.
    return min(max(iou, 0.0), 1.0)


# The scaled copies of ``iou_rect`` and ``_scaled_down_iou`` keep every
# coordinate below 2**_SCALED_EXPONENT, so every product, shoelace sum and
# union stays far inside the float range.
_SCALED_EXPONENT = 500


def _down_shift(values: Iterable[float]) -> int:
    """Exponent ``e`` with ``2**e * max(map(abs, values))`` just below ``2**_SCALED_EXPONENT``."""
    return _SCALED_EXPONENT - math.frexp(max(map(abs, values)))[1]


def _scaled_down_iou(polygon: Polygon, ellipse_area: float, rect: Rect) -> float:
    """The IoU of a polygon and rect whose areas or union pass the float range.

    Every vertex and rect corner is scaled by the power of two ``2**shift``
    that brings the largest of them just below ``2**_SCALED_EXPONENT``, and
    the ellipse's area by ``2**(2 * shift)``.  A union overflows only where
    some coordinate passes ``2**505`` (about a thousand shoelace terms,
    each taken about the first vertex, so at most ``8 * M**2`` for ``M``
    the largest coordinate's magnitude), so ``shift`` is negative, at
    least -524, and the scaled copy's union is finite.  Scaling by a
    power of two is exact for every value that stays normal, and the
    clip's crossings, the shoelace terms and the areas are then the
    scaled values of the original's, so the IoU is the one unbounded
    exponents would give.
    Only a value below ``2**(-1022 - shift)`` rounds, by less than
    ``2**(-1074 - shift)``; nothing underflows to an error, since the
    scaled copy is built from the polygon, not from a new ``Ellipse``.
    """
    xs, ys = (axis.coords for axis in polygon._axes)
    corners = (rect.x_min, rect.y_min, rect.x_max, rect.y_max)
    shift = _down_shift((*xs, *ys, *corners))
    scaled = _from_columns([math.ldexp(x, shift) for x in xs], [math.ldexp(y, shift) for y in ys])
    box = Rect(*(math.ldexp(v, shift) for v in corners))
    return _polygon_rect_iou(scaled, math.ldexp(ellipse_area, 2 * shift), box, area(box))


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
            if iou_rect(box, boxes[j]) > iou_threshold:
                break
        else:
            kept.append(i)
            buckets.setdefault(key, []).append((i, x0, y0, x1, y1, lw, lh, a))
    return [dets[i] for i in kept]
