import array
import copy
import dataclasses
import itertools
import math
import pickle
import random
import sys
import types
from dataclasses import FrozenInstanceError, dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from facemetrics.geometry import (
    Ellipse,
    Polygon,
    Rect,
    area,
    bounding_rect,
    clip_polygon_to_rect,
    ellipse_to_polygon,
    iou_ellipse_rect,
    iou_rect,
    nms,
)
from facemetrics import cli, geometry, matching
from facemetrics.anchors import DEFAULT_ANCHOR_SPEC, BoxDelta, anchor_grid, decode, top_n
from facemetrics.matching import Detection, GroundTruth, iou_matrix, region_iou
from facemetrics.metrics import EvalDataset

import oracles


def test_rect_rejects_inverted_corners():
    with pytest.raises(ValueError, match=r"^Rect requires x_max >= x_min, got 5\.0\.\.4\.0$"):
        Rect(5.0, 0.0, 4.0, 1.0)
    with pytest.raises(ValueError, match=r"^Rect requires y_max >= y_min, got 5\.0\.\.4\.0$"):
        Rect(0.0, 5.0, 1.0, 4.0)


def test_rect_rejects_non_finite():
    for index, name in enumerate(("x_min", "y_min", "x_max", "y_max")):
        for bad in (math.nan, math.inf, -math.inf):
            fields = [0.0, 0.0, 1.0, 1.0]
            fields[index] = bad
            with pytest.raises(ValueError) as excinfo:
                Rect(*fields)
            assert str(excinfo.value) == f"Rect.{name} must be finite, got {bad!r}"


def test_rect_allows_degenerate():
    line = Rect(0.0, 0.0, 0.0, 5.0)
    assert area(line) == 0.0


def test_rect_properties():
    r = Rect.from_xywh(2.0, 3.0, 10.0, 4.0)
    assert (r.x_min, r.y_min, r.x_max, r.y_max) == (2.0, 3.0, 12.0, 7.0)
    assert r.width == 10.0
    assert r.height == 4.0
    assert r.center == (7.0, 5.0)
    assert area(r) == 40.0


@dataclass(frozen=True, slots=True)
class _DataclassRect:
    """The frozen dataclass ``Rect`` once was: the reference for its contract."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        for name in ("x_min", "y_min", "x_max", "y_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"Rect.{name} must be finite, got {value!r}")
        if self.x_max < self.x_min:
            raise ValueError(f"Rect requires x_max >= x_min, got {self.x_min}..{self.x_max}")
        if self.y_max < self.y_min:
            raise ValueError(f"Rect requires y_max >= y_min, got {self.y_min}..{self.y_max}")


def _outcome(cls, fields):
    try:
        rect = cls(*fields)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return repr(rect).replace(cls.__name__, "Rect", 1), hash(rect)


def test_rect_checks_match_the_dataclass_field_by_field():
    # Every field from a pool of finite, non-finite, non-numeric and
    # inverted-making values: the same error, in the same order of checks.
    pool = [0.0, -0.0, 1.0, 2, -3.5, 5e-324, 1e308, math.nan, math.inf, -math.inf, "1",
            Decimal("NaN"), Fraction(1, 3)]
    for fields in itertools.product(pool, repeat=4):
        assert _outcome(Rect, fields) == _outcome(_DataclassRect, fields), fields


def test_rect_reports_a_non_finite_field_first_and_the_first_bad_field_first():
    with pytest.raises(ValueError, match=r"^Rect\.y_max must be finite, got nan$"):
        Rect(5.0, 0.0, 4.0, math.nan)
    with pytest.raises(ValueError, match=r"^Rect\.x_min must be finite, got nan$"):
        Rect(math.nan, math.inf, -math.inf, math.nan)
    with pytest.raises(ValueError, match=r"^Rect\.y_min must be finite, got inf$"):
        Rect(0.0, math.inf, 1.0, math.nan)
    with pytest.raises(ValueError, match=r"^Rect requires x_max >= x_min, got 5\.0\.\.4\.0$"):
        Rect(5.0, 5.0, 4.0, 4.0)


def test_rect_rejects_a_string_field_with_the_isfinite_type_error():
    with pytest.raises(TypeError, match=r"^must be real number, not str$"):
        Rect(0.0, "1", 1.0, 2.0)


def test_rect_equality_hash_and_repr():
    rect = Rect(0.5, 1.0, 2.0, 3.25)
    assert rect == Rect(0.5, 1.0, 2.0, 3.25)
    assert rect != Rect(0.5, 1.0, 2.0, 3.5)
    assert Rect(0, 0, 1, 1) == Rect(0.0, -0.0, 1.0, 1.0)
    assert rect != (0.5, 1.0, 2.0, 3.25)
    assert rect.__eq__((0.5, 1.0, 2.0, 3.25)) is NotImplemented
    assert rect != _DataclassRect(0.5, 1.0, 2.0, 3.25)
    assert hash(rect) == hash((0.5, 1.0, 2.0, 3.25))
    assert len({rect, Rect(0.5, 1.0, 2.0, 3.25), Rect(0.0, 0.0, 0.0, 0.0)}) == 2
    assert repr(rect) == "Rect(x_min=0.5, y_min=1.0, x_max=2.0, y_max=3.25)"
    assert repr(Rect(0, 0, 1, 1)) == "Rect(x_min=0, y_min=0, x_max=1, y_max=1)"
    match rect:
        case Rect(x_min, y_min, x_max, y_max):
            assert (x_min, y_min, x_max, y_max) == (0.5, 1.0, 2.0, 3.25)


def test_rect_is_frozen():
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    for name in ("x_min", "y_max"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(rect, name, 0.5)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(rect, name)
    with pytest.raises(FrozenInstanceError):
        rect.label = "face"
    assert rect == Rect(0.0, 0.0, 1.0, 1.0)
    assert not hasattr(rect, "__dict__")


def test_rect_keeps_the_dataclass_api():
    rect = Rect(0.5, 1.0, 2.0, 3.25)
    assert dataclasses.is_dataclass(Rect) and dataclasses.is_dataclass(rect)
    assert [f.name for f in dataclasses.fields(rect)] == ["x_min", "y_min", "x_max", "y_max"]
    assert dataclasses.asdict(rect) == {"x_min": 0.5, "y_min": 1.0, "x_max": 2.0, "y_max": 3.25}
    assert dataclasses.astuple(rect) == (0.5, 1.0, 2.0, 3.25)
    moved = dataclasses.replace(rect, x_max=4.0)
    assert type(moved) is Rect
    assert moved == Rect(0.5, 1.0, 4.0, 3.25)
    assert rect.x_max == 2.0
    # replace builds through __init__, so its result is checked, first bad field first.
    for changes, error in (
        ({"x_max": -5.0}, r"^Rect requires x_max >= x_min, got 0\.5\.\.-5\.0$"),
        ({"x_max": 0.0, "y_max": 0.0}, r"^Rect requires x_max >= x_min, got 0\.5\.\.0\.0$"),
        ({"y_max": 0.0}, r"^Rect requires y_max >= y_min, got 1\.0\.\.0\.0$"),
        ({"x_max": -5.0, "y_max": math.nan}, r"^Rect\.y_max must be finite, got nan$"),
        ({"y_min": math.inf, "x_max": math.nan}, r"^Rect\.y_min must be finite, got inf$"),
    ):
        with pytest.raises(ValueError, match=error):
            dataclasses.replace(rect, **changes)


def test_rect_copies_and_pickles():
    rect = Rect(-1.5, 2.0, 3.0, 1e300)
    copies = [copy.copy(rect), copy.deepcopy(rect), copy.deepcopy([rect, rect])[0]]
    copies += [
        pickle.loads(pickle.dumps(rect, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for clone in copies:
        assert type(clone) is Rect
        assert clone == rect
        assert repr(clone) == repr(rect)
        with pytest.raises(FrozenInstanceError):
            clone.x_min = 0.0


def test_iou_rect_known_values():
    base = Rect(0.0, 0.0, 10.0, 10.0)
    assert iou_rect(base, base) == 1.0
    assert iou_rect(base, Rect(0.0, 0.0, 10.0, 5.0)) == 0.5
    assert iou_rect(base, Rect(20.0, 20.0, 30.0, 30.0)) == 0.0
    # A shared edge has zero-area intersection.
    assert iou_rect(base, Rect(10.0, 0.0, 20.0, 10.0)) == 0.0
    # 5x5 quadrant: inter 25, union 100.
    assert iou_rect(base, Rect(5.0, 5.0, 15.0, 15.0)) == 25.0 / 175.0


def test_iou_rect_degenerate_is_zero():
    base = Rect(0.0, 0.0, 10.0, 10.0)
    line = Rect(5.0, 0.0, 5.0, 10.0)
    assert iou_rect(base, line) == 0.0
    assert iou_rect(line, line) == 0.0


def test_iou_rect_symmetry_and_bounds():
    rng = random.Random(20)
    for _ in range(500):
        a = oracles.random_rect(rng)
        b = oracles.random_rect(rng)
        v = iou_rect(a, b)
        assert v == iou_rect(b, a)
        assert 0.0 <= v <= 1.0
    assert iou_rect(a, a) == 1.0


def test_polygon_validation_and_area():
    with pytest.raises(ValueError):
        Polygon(((0.0, 0.0), (1.0, 0.0)))
    square = Polygon(((0, 0), (2, 0), (2, 2), (0, 2)))
    assert square.area == 4.0
    assert square.vertices[1] == (2.0, 0.0)


def test_polygon_stores_its_vertices_as_given():
    vertices = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert Polygon(vertices).vertices is vertices
    polygon = ellipse_to_polygon(Ellipse(3.0, -2.0, 5.0, 2.0, 0.3))
    assert all(type(x) is float and type(y) is float for x, y in polygon.vertices)


def test_polygon_copies_a_vertex_list_into_a_tuple():
    vertices = [(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)]
    polygon = Polygon(vertices)
    from_tuple = Polygon(tuple(vertices))
    assert type(polygon.vertices) is tuple
    assert polygon == from_tuple and hash(polygon) == hash(from_tuple)
    # The caller's list changes; the polygon, its area and its clips do not.
    vertices.append((-4.0, 2.0))
    vertices[1] = (9.0, 9.0)
    assert polygon.vertices == from_tuple.vertices and len(polygon._arcs.terms) == 3
    assert polygon.area == from_tuple.area == 8.0
    rect = Rect(-1.0, -1.0, 2.0, 2.0)
    pieces = geometry._clip(polygon._arcs, rect)
    assert pieces == geometry._clip(from_tuple._arcs, rect)
    clipped = oracles.reference_clip_polygon_to_rect(from_tuple.vertices, rect)
    assert geometry._clipped_area(polygon._arcs, pieces) == oracles.reference_signed_area(clipped)


def test_ellipse_validation():
    with pytest.raises(ValueError):
        Ellipse(center_x=0, center_y=0, semi_major=2.0, semi_minor=0.0, angle=0.0)
    with pytest.raises(ValueError):
        Ellipse(center_x=0, center_y=0, semi_major=1.0, semi_minor=2.0, angle=0.0)
    with pytest.raises(ValueError):
        Ellipse(center_x=math.nan, center_y=0, semi_major=2.0, semi_minor=1.0, angle=0.0)


def test_ellipse_rejects_exactly_an_area_or_bounds_past_the_float_range():
    # Walk the semi-axes ulp by ulp across the two limits: where a squared
    # half extent in bounding_rect overflows, and where pi * a * b does.
    limits = (math.sqrt(sys.float_info.max), math.sqrt(sys.float_info.max / math.pi))
    big = sys.float_info.max
    outcomes = set()
    for a in (_ulps(limit, steps) for limit in limits for steps in range(-3, 4)):
        for center, b, angle in itertools.product(
            ((0.0, 0.0), (big, -big)), (1.0, a), (0.0, 0.5 * math.pi, 0.3)
        ):
            fields = dict(center_x=center[0], center_y=center[1], semi_major=a, semi_minor=b,
                          angle=angle)
            try:
                bounding_rect(types.SimpleNamespace(**fields))
                error = None
            except (OverflowError, ValueError):
                error = r"^Ellipse\(.*\) has axis-aligned bounds past the float range$"
            if math.isinf(math.pi * a * b):  # checked first
                error = r"^Ellipse semi_major \S+ with semi_minor \S+ gives an infinite area$"
            if error is None:
                ellipse = Ellipse(**fields)
                assert 0.0 <= iou_ellipse_rect(ellipse, Rect(-1.0, -1.0, 1.0, 1.0)) <= 1.0
            else:
                with pytest.raises(ValueError, match=error):
                    Ellipse(**fields)
            outcomes.add(error)
    assert len(outcomes) == 3


def test_ellipse_area():
    e = Ellipse(center_x=0, center_y=0, semi_major=4.0, semi_minor=2.0, angle=0.3)
    assert e.area == pytest.approx(math.pi * 8.0, rel=1e-15)


def test_ellipse_to_polygon_vertices_lie_on_the_ellipse():
    e = Ellipse(center_x=3.0, center_y=-2.0, semi_major=5.0, semi_minor=2.0, angle=0.7)
    polygon = ellipse_to_polygon(e)
    assert len(polygon.vertices) == 1024
    cos_t = math.cos(e.angle)
    sin_t = math.sin(e.angle)
    for x, y in polygon.vertices:
        dx = x - e.center_x
        dy = y - e.center_y
        u = (dx * cos_t + dy * sin_t) / e.semi_major
        v = (dy * cos_t - dx * sin_t) / e.semi_minor
        assert u * u + v * v == pytest.approx(1.0, abs=1e-12)


def _per_vertex_polygon(ellipse):
    """``ellipse_to_polygon`` computing cos t and sin t at every vertex."""
    n = 1024
    cos_t = math.cos(ellipse.angle)
    sin_t = math.sin(ellipse.angle)
    vertices = []
    for k in range(n):
        t = 2.0 * math.pi * k / n
        px = ellipse.semi_major * math.cos(t)
        py = ellipse.semi_minor * math.sin(t)
        vertices.append(
            (
                ellipse.center_x + px * cos_t - py * sin_t,
                ellipse.center_y + px * sin_t + py * cos_t,
            )
        )
    return vertices


def test_ellipse_to_polygon_matches_per_vertex_trigonometry_bit_for_bit():
    rng = random.Random(13)
    for _ in range(35):  # all but the first build read the cached unit circle
        center = rng.choice([0.0, 1e6, -3e7, 1e12, -4.5e15])
        semi_minor = rng.uniform(0.5, 200.0)
        angle = rng.choice([0.0, math.pi / 2, -math.pi, 100.0, rng.uniform(-7.0, 7.0)])
        ellipse = Ellipse(
            center + rng.uniform(-10.0, 10.0), -center + rng.uniform(-10.0, 10.0),
            semi_minor * rng.uniform(1.0, 4.0), semi_minor, angle,
        )
        got = [(x.hex(), y.hex()) for x, y in ellipse_to_polygon(ellipse).vertices]
        want = [(x.hex(), y.hex()) for x, y in _per_vertex_polygon(ellipse)]
        assert got == want, ellipse


def test_ellipse_to_polygon_area_falls_short_by_the_stated_deficit():
    # An inscribed n-gon at uniform parameter angles covers
    # n sin(2 pi / n) / (2 pi) of the ellipse: 1 - 6.3e-6 at n = 1024.
    rng = random.Random(14)
    for _ in range(200):
        e = oracles.random_ellipse(rng)
        ratio = ellipse_to_polygon(e).area / e.area
        assert 1.0 - 1e-5 < ratio < 1.0, e
        assert ratio == pytest.approx(1.0 - 6.3e-6, abs=1e-7), e


def test_clip_polygon_fully_inside_is_unchanged():
    square = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
    assert clip_polygon_to_rect(square, Rect(0.0, 0.0, 10.0, 10.0)) == square


def test_clip_polygon_fully_outside_is_empty():
    square = [(20.0, 20.0), (22.0, 20.0), (22.0, 22.0), (20.0, 22.0)]
    assert clip_polygon_to_rect(square, Rect(0.0, 0.0, 10.0, 10.0)) == []


def test_clip_polygon_halved_square():
    square = [(-5.0, 0.0), (5.0, 0.0), (5.0, 4.0), (-5.0, 4.0)]
    clipped = clip_polygon_to_rect(square, Rect(0.0, 0.0, 10.0, 10.0))
    assert Polygon(tuple(clipped)).area == 20.0


def test_clip_polygon_diamond_corners():
    # Diamond |x| + |y| <= 1.5 against the square [-1, 1]^2: the square
    # loses four corner triangles of area 1/8 each.
    diamond = [(1.5, 0.0), (0.0, 1.5), (-1.5, 0.0), (0.0, -1.5)]
    clipped = clip_polygon_to_rect(diamond, Rect(-1.0, -1.0, 1.0, 1.0))
    assert Polygon(tuple(clipped)).area == pytest.approx(3.5, rel=1e-12)


def test_clip_polygon_empty_input():
    assert clip_polygon_to_rect([], Rect(0.0, 0.0, 1.0, 1.0)) == []


def test_iou_ellipse_rect_inscribed_circle():
    circle = Ellipse(center_x=5.0, center_y=5.0, semi_major=5.0, semi_minor=5.0, angle=0.0)
    square = Rect(0.0, 0.0, 10.0, 10.0)
    assert iou_ellipse_rect(circle, square) == pytest.approx(math.pi / 4.0, abs=1e-4)


def test_iou_ellipse_rect_ellipse_inside_rect():
    e = Ellipse(center_x=20.0, center_y=20.0, semi_major=6.0, semi_minor=3.0, angle=0.9)
    box = Rect(0.0, 0.0, 40.0, 40.0)
    assert iou_ellipse_rect(e, box) == pytest.approx(e.area / area(box), rel=1e-4)


def test_iou_ellipse_rect_rect_inside_ellipse():
    e = Ellipse(center_x=0.0, center_y=0.0, semi_major=10.0, semi_minor=8.0, angle=0.0)
    # Comfortably interior, so the clipped region is the box itself.
    box = Rect(-3.0, -3.0, 3.0, 3.0)
    assert iou_ellipse_rect(e, box) == pytest.approx(area(box) / e.area, rel=1e-9)


def test_iou_ellipse_rect_disjoint_and_degenerate():
    e = Ellipse(center_x=0.0, center_y=0.0, semi_major=2.0, semi_minor=1.0, angle=0.0)
    assert iou_ellipse_rect(e, Rect(10.0, 10.0, 12.0, 12.0)) == 0.0
    assert iou_ellipse_rect(e, Rect(0.0, 0.0, 0.0, 5.0)) == 0.0


def test_iou_ellipse_rect_angle_is_radians_ccw():
    # Long thin ellipse along +x reaches the box at x in [-10, -8];
    # rotated a quarter turn it no longer does.
    flat = Ellipse(center_x=0.0, center_y=0.0, semi_major=10.0, semi_minor=1.0, angle=0.0)
    upright = Ellipse(
        center_x=0.0, center_y=0.0, semi_major=10.0, semi_minor=1.0, angle=math.pi / 2
    )
    box = Rect(-10.0, -1.0, -8.0, 1.0)
    assert iou_ellipse_rect(flat, box) > 0.0
    assert iou_ellipse_rect(upright, box) == 0.0


def test_iou_ellipse_rect_half_turn_symmetry():
    e1 = Ellipse(center_x=4.0, center_y=4.0, semi_major=6.0, semi_minor=2.0, angle=0.4)
    e2 = Ellipse(center_x=4.0, center_y=4.0, semi_major=6.0, semi_minor=2.0, angle=0.4 + math.pi)
    box = Rect(0.0, 0.0, 7.0, 7.0)
    assert iou_ellipse_rect(e1, box) == pytest.approx(iou_ellipse_rect(e2, box), rel=1e-9)


def test_ellipse_iou_takes_no_vertex_count():
    # The 1024-gon is part of the protocol: a count passed in is an error,
    # never a second polygon beside the one a caller hands in.
    e = Ellipse(center_x=0.0, center_y=0.0, semi_major=5.0, semi_minor=3.0, angle=0.2)
    box = Rect(0.0, 0.0, 6.0, 6.0)
    dets = [Detection(region=box, score=0.5, image_id="img")]
    gts = [GroundTruth(region=e, image_id="img")]
    for call in (
        lambda: ellipse_to_polygon(e, 8),
        lambda: iou_ellipse_rect(e, box, 8),
        lambda: iou_ellipse_rect(e, box, 8, polygon=ellipse_to_polygon(e)),
        lambda: region_iou(box, e, 8),
        lambda: region_iou(box, box, 7),
        lambda: iou_matrix(dets, gts, 8),
    ):
        with pytest.raises(TypeError):
            call()
    assert iou_ellipse_rect(e, box, polygon=ellipse_to_polygon(e)) == iou_ellipse_rect(e, box)


def test_bounding_rect_axis_aligned():
    e = Ellipse(center_x=10.0, center_y=20.0, semi_major=5.0, semi_minor=3.0, angle=0.0)
    box = bounding_rect(e)
    assert (box.x_min, box.y_min, box.x_max, box.y_max) == (5.0, 17.0, 15.0, 23.0)


def test_bounding_rect_quarter_turn_swaps_extents():
    e = Ellipse(
        center_x=0.0, center_y=0.0, semi_major=5.0, semi_minor=3.0, angle=math.pi / 2
    )
    box = bounding_rect(e)
    assert box.x_max == pytest.approx(3.0, abs=1e-9)
    assert box.y_max == pytest.approx(5.0, abs=1e-9)


def test_bounding_rect_contains_the_ellipse_tightly():
    rng = random.Random(77)
    for _ in range(50):
        e = oracles.random_ellipse(rng)
        box = bounding_rect(e)
        xs = []
        ys = []
        for x, y in ellipse_to_polygon(e).vertices:
            xs.append(x)
            ys.append(y)
            assert box.x_min - 1e-9 <= x <= box.x_max + 1e-9
            assert box.y_min - 1e-9 <= y <= box.y_max + 1e-9
        # Tight: the polygon nearly reaches every side.
        assert max(xs) == pytest.approx(box.x_max, abs=1e-3 * e.semi_major)
        assert min(xs) == pytest.approx(box.x_min, abs=1e-3 * e.semi_major)
        assert max(ys) == pytest.approx(box.y_max, abs=1e-3 * e.semi_major)
        assert min(ys) == pytest.approx(box.y_min, abs=1e-3 * e.semi_major)


def _det(x0, y0, x1, y1, score):
    return Detection(region=Rect(x0, y0, x1, y1), score=score, image_id="img")


def test_nms_threshold_validation():
    with pytest.raises(ValueError):
        nms([], -0.1)
    with pytest.raises(ValueError):
        nms([], 1.5)


def test_nms_trivial_inputs():
    assert nms([], 0.5) == []
    only = _det(0, 0, 10, 10, 0.9)
    assert nms([only], 0.5) == [only]


def test_nms_two_box_overlap():
    a = _det(0, 0, 10, 10, 0.9)
    b = _det(1, 1, 11, 11, 0.8)  # IoU = 81/119
    assert nms([a, b], 0.5) == [a]
    assert nms([a, b], 0.7) == [a, b]


def test_nms_keeps_boxes_at_exactly_the_threshold():
    # IoU is exactly 0.5; suppression requires strictly greater overlap.
    a = _det(0, 0, 10, 10, 0.9)
    b = _det(0, 0, 10, 5, 0.8)
    assert nms([a, b], 0.5) == [a, b]


def test_nms_zero_threshold_keeps_disjoint_boxes():
    a = _det(0, 0, 10, 10, 0.9)
    b = _det(50, 50, 60, 60, 0.8)
    assert nms([a, b], 0.0) == [a, b]


def test_nms_score_tie_breaks_by_input_index():
    a = _det(0, 0, 10, 10, 0.9)
    b = _det(0, 0, 10, 10, 0.9)
    assert nms([a, b], 0.5) == [a]
    assert nms([b, a], 0.5) == [b]


def test_every_score_ranked_visit_takes_descending_score_then_index():
    # Heavy ties, 0.0 and -0.0 mixed (they compare equal, so they tie too).
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 40)
        scores = [rng.choice([1.0, 0.5, 0.0, -0.0, -0.5]) for _ in range(n)]
        expected = sorted(range(n), key=lambda i: (-scores[i], i))
        # Disjoint boxes: NMS keeps every one, in the order it visits them.
        boxes = [Rect(2.0 * i, 0.0, 2.0 * i + 1.0, 1.0) for i in range(n)]
        dets = [Detection(region=b, score=s, image_id="img") for b, s in zip(boxes, scores)]
        kept = nms(dets, 0.5)
        assert [boxes.index(d.region) for d in kept] == expected
        corners = np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b in boxes])
        assert oracles.reference_nms_indices(corners, np.array(scores), 0.5) == expected
        k = rng.randint(0, n)
        top = top_n(list(zip(boxes, scores)), k)
        assert [boxes.index(rect) for rect, _ in top] == expected[:k]
        # Congruent detections and ground truths: the detection visited p-th
        # claims ground truth p.
        same = [Detection(region=boxes[0], score=s, image_id="img") for s in scores]
        gts = [GroundTruth(region=boxes[0], image_id="img")] * n
        pairs = matching.match_greedy(same, gts, 0.5).pairs
        assert [p.detection for p in sorted(pairs, key=lambda p: p.ground_truth)] == expected
        # eval --top keeps the first k of that order, in input order.
        capped = cli._cap_detections(EvalDataset.from_images({"img": (dets, [])}), k)
        assert list(capped.images["img"].detections) == [dets[i] for i in sorted(expected[:k])]


def test_score_order_matches_the_explicit_score_then_index_key():
    # NaN-free, tie-heavy: signed zeros, subnormals and the float extremes.
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5, 1.0, -1.0,
              sys.float_info.max, -sys.float_info.max, math.inf, -math.inf]
    rng = random.Random(8)
    for _ in range(2000):
        scores = [rng.choice(values) for _ in range(rng.randint(0, 30))]
        expected = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        assert geometry._score_order(scores) == expected


def test_nms_suppressed_boxes_do_not_shadow_others():
    # b overlaps a and is dropped; c overlaps only b, so c survives.
    a = _det(0, 0, 10, 10, 0.9)
    b = _det(6, 0, 16, 10, 0.8)
    c = _det(12, 0, 22, 10, 0.7)
    assert nms([a, b, c], 0.2) == [a, c]


def test_nms_matches_array_reference():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(0, 40)
        dets = []
        for _ in range(n):
            region = oracles.random_rect(rng, span=50.0, quantum=1.0)
            score = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9, rng.random()])
            dets.append(Detection(region=region, score=score, image_id="img"))
        thresh = rng.choice([0.0, 0.2, 0.5, 0.8])
        kept = nms(dets, thresh)
        boxes = np.array(
            [[d.region.x_min, d.region.y_min, d.region.x_max, d.region.y_max] for d in dets]
        ).reshape(n, 4)
        scores = np.array([d.score for d in dets])
        expected = oracles.reference_nms_indices(boxes, scores, thresh)
        # Identity lookup: value equality would mix up duplicated boxes.
        kept_indices = [next(i for i, d in enumerate(dets) if d is k) for k in kept]
        assert kept_indices == expected


# --------------------------------------------------------------------
# Fast paths against their reference computations, bit for bit
# --------------------------------------------------------------------

def _edge_values(edge, scale):
    """The edge, 1-4 ulps either side of it, and 1e-12 / 1e-9 relative offsets."""
    values = [edge]
    for direction in (math.inf, -math.inf):
        value = edge
        for _ in range(4):
            value = math.nextafter(value, direction)
            values.append(value)
    for offset in (1e-12, 1e-9, 2e-9):
        values += [edge + offset * scale, edge - offset * scale]
    return values


def _edge_ellipses(rng):
    """Angles 0, pi/2 and random; thin ellipses; circles at multiples of 2pi/64.

    Circles rotated by a vertex angle (every multiple of 2pi/64 is one of
    the 1024-gon's) put a polygon vertex on the extreme point of the
    ellipse, where rounding can carry it an ulp or two past
    ``bounding_rect``.
    """
    ellipses = []
    for _ in range(3):
        major = rng.uniform(1.0, 60.0)
        center = (rng.uniform(-500.0, 500.0), rng.choice([0.0, rng.uniform(-500.0, 500.0)]))
        for minor, angle in (
            (major * rng.uniform(0.2, 1.0), 0.0),
            (major * 1e-3, math.pi / 2),
            (major * 1e-3, rng.uniform(-7.0, 7.0)),
            (major, 2.0 * math.pi * rng.randrange(64) / 64),
            (major * (1.0 - 1e-15), -2.0 * math.pi * rng.randrange(64) / 64),
        ):
            ellipses.append(Ellipse(*center, major, minor, angle))
    return ellipses


def _extreme_ellipses(rng):
    """Centers from 0 to +-1e300 and semi-axes from 1e-300 to 1e150, at random angles.

    Tiny axes on a huge center collapse the polygon onto a few floats, and
    1e-300 axes underflow the squares in ``bounding_rect`` to a zero-size
    box around a polygon that is not a point.
    """
    centers = ((0.0, 0.0), (1e300, -1e300), (-3e299, 7.5), (1e12, -1e150))
    axes = ((1e-300, 1e-300), (1e-150, 1e-300), (1.0, 0.5), (1e150, 1e150), (1e150, 1e-300))
    return [
        Ellipse(cx, cy, major, minor, rng.uniform(-7.0, 7.0))
        for cx, cy in centers
        for major, minor in axes
    ]


def test_iou_ellipse_rect_at_the_bounding_box_edges_matches_the_reference_bit_for_bit():
    rng = random.Random(31)
    cases = 0
    nonzero_outside_box = 0
    for _ in range(3):
        for ellipse in _edge_ellipses(rng):
            polygon = ellipse_to_polygon(ellipse)
            box = bounding_rect(ellipse)
            scale = abs(ellipse.center_x) + abs(ellipse.center_y) + ellipse.semi_major
            span = ellipse.semi_major
            x0, y0, x1, y1 = box.x_min - span, box.y_min - span, box.x_max + span, box.y_max + span
            rects = []
            for v in _edge_values(box.x_max, scale):
                rects.append((Rect(v, y0, v + span, y1), v > box.x_max))
            for v in _edge_values(box.x_min, scale):
                rects.append((Rect(v - span, y0, v, y1), v < box.x_min))
            for v in _edge_values(box.y_max, scale):
                rects.append((Rect(x0, v, x1, v + span), v > box.y_max))
            for v in _edge_values(box.y_min, scale):
                rects.append((Rect(x0, v - span, x1, v), v < box.y_min))
            for rect, outside in rects:
                got = iou_ellipse_rect(ellipse, rect, polygon=polygon)
                want = oracles.reference_iou_ellipse_rect(ellipse, rect, polygon)
                assert got.hex() == want.hex(), (ellipse, rect)
                cases += 1
                nonzero_outside_box += outside and got > 0.0
    assert cases == 3 * 15 * 4 * 15
    # Rects wholly outside bounding_rect that still clip a sliver: a test
    # on the box alone would turn these into 0.0.
    assert nonzero_outside_box > 0

    # Extreme ellipses, with rects on all four sides of the box, clear of
    # it or overlapping it by 1e-12 to 1e6 times the box size.
    cases = nonzero = 0
    for ellipse in _extreme_ellipses(rng):
        polygon = ellipse_to_polygon(ellipse)
        box = bounding_rect(ellipse)
        size = 2.0 * ellipse.semi_major
        for gap in (size * f for f in (1e-12, 1e-6, 1e-3, 1.0, 1e6)):
            for g in (gap, -gap):
                for rect in (
                    Rect(box.x_max + g, box.y_min - size, box.x_max + g + size, box.y_max + size),
                    Rect(box.x_min - g - size, box.y_min - size, box.x_min - g, box.y_max + size),
                    Rect(box.x_min - size, box.y_max + g, box.x_max + size, box.y_max + g + size),
                    Rect(box.x_min - size, box.y_min - g - size, box.x_max + size, box.y_min - g),
                ):
                    got = iou_ellipse_rect(ellipse, rect, polygon=polygon)
                    want = oracles.reference_iou_ellipse_rect(ellipse, rect, polygon)
                    assert got.hex() == want.hex(), (ellipse, rect)
                    assert not math.isnan(got), (ellipse, rect)
                    cases += 1
                    nonzero += got > 0.0
    assert cases == 4 * 5 * 5 * 2 * 4 and nonzero > 0


def test_iou_matrix_polygon_reuse_matches_region_iou():
    rng = random.Random(32)
    for _ in range(3):
        gts = []
        dets = []
        for _ in range(4):
            ellipse = oracles.random_ellipse(rng)
            gts.append(GroundTruth(region=ellipse, image_id="img"))
            box = bounding_rect(ellipse)
            for _ in range(3):
                dx = rng.uniform(-12.0, 12.0)
                dy = rng.uniform(-12.0, 12.0)
                region = Rect(box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy)
                dets.append(Detection(region=region, score=0.5, image_id="img"))
        gts.append(GroundTruth(region=oracles.random_rect(rng), image_id="img"))
        matrix = iou_matrix(dets, gts)
        want = [[region_iou(d.region, g.region).hex() for g in gts] for d in dets]
        assert [[v.hex() for v in row] for row in matrix] == want
        assert any(v > 0.0 for row in matrix for v in row)
        assert any(v == 0.0 for row in matrix for v in row)


def _bits(points):
    """The bytes of every coordinate, for bit-for-bit list equality.

    Equal exactly when ``float.hex`` is equal on every coordinate (NaN
    payloads aside), at a fraction of its cost on 1,024-vertex lists.
    """
    return array.array("d", itertools.chain.from_iterable(points)).tobytes()


def _check_clip(vertices, rect, ellipse=None, polygon=None):
    """The run-length clip, and the IoU when an ellipse is given, against the references.

    Returns the reference clip.
    """
    want = oracles.reference_clip_polygon_to_rect(vertices, rect)
    assert _bits(clip_polygon_to_rect(vertices, rect)) == _bits(want), rect
    if ellipse is not None:
        got = iou_ellipse_rect(ellipse, rect, polygon=polygon)
        want_iou = oracles.reference_iou_ellipse_rect(ellipse, rect, polygon, want)
        assert got.hex() == want_iou.hex(), (ellipse, rect)
    return want


def _clip_ellipses(rng):
    """Ellipses whose polygons stress the run-length clip.

    Two of each kind in ``_edge_ellipses``; circles and ellipses turned
    by half a vertex step, so an extreme falls midway between two
    vertices whose coordinates are equal or an ulp apart; and ellipses
    whose center is 1e12-1e14 times their size, where rounding cuts each
    coordinate into many monotone runs.
    """
    ellipses = _edge_ellipses(rng)[:10]
    for _ in range(2):
        k = rng.randrange(1024)
        ellipses.append(Ellipse(rng.uniform(-50, 50), rng.uniform(-50, 50), 10.0, 10.0,
                                2.0 * math.pi * (k + 0.5) / 1024))
        ellipses.append(Ellipse(rng.uniform(-50, 50), rng.uniform(-50, 50), 30.0, 20.0,
                                math.pi * rng.randrange(4) / 2 + math.pi / 1024))
    for ratio in (1e12, 3e12, 1e13, 1e14):
        major = rng.uniform(1.0, 10.0)
        ellipses.append(Ellipse(ratio * major, -0.3 * ratio * major, major,
                                major * rng.uniform(0.2, 1.0), rng.uniform(-3.0, 3.0)))
    return ellipses


def test_clip_matches_the_vertex_by_vertex_clip_on_ellipses_bit_for_bit():
    rng = random.Random(61)
    equal_neighbours = many_runs = bands = inner = 0
    for ellipse in _clip_ellipses(rng):
        polygon = ellipse_to_polygon(ellipse)
        vertices = polygon.vertices
        box = bounding_rect(ellipse)
        scale = abs(ellipse.center_x) + abs(ellipse.center_y) + ellipse.semi_major
        span = 2.0 * ellipse.semi_major
        x0, y0, x1, y1 = box.x_min - span, box.y_min - span, box.x_max + span, box.y_max + span
        runs = [len(axis.starts) - 1 for axis in geometry._build_arcs(vertices).axes]
        many_runs += min(runs) >= 20
        for axis in (0, 1):
            coords = [v[axis] for v in vertices]
            equal_neighbours += coords.count(max(coords)) > 1 or coords.count(min(coords)) > 1
        # Rect edges on a vertex coordinate and 1-4 ulps either side: on each
        # extreme's own axis, where a run ends, and on both axes of a random vertex.
        extremes = [
            (axis, vertices[pick(range(1024), key=lambda j: vertices[j][axis])])
            for axis in (0, 1)
            for pick in (max, min)
        ]
        vertex = rng.choice(vertices)
        for axis, (vx, vy) in extremes + [(0, vertex), (1, vertex)]:
            for v in _edge_values(vy if axis else vx, scale)[:9]:
                if axis:
                    _check_clip(vertices, Rect(x0, v, x1, y1), ellipse, polygon)
                    _check_clip(vertices, Rect(x0, y0, x1, v), ellipse, polygon)
                else:
                    _check_clip(vertices, Rect(v, y0, x1, y1), ellipse, polygon)
                    _check_clip(vertices, Rect(x0, y0, v, y1), ellipse, polygon)
        # Corners on vertices: every pass cuts.
        for _ in range(3):
            (vx, vy), (ux, uy) = rng.sample(vertices, 2)
            corner = Rect(min(vx, ux), min(vy, uy), max(vx, ux), max(vy, uy))
            _check_clip(vertices, corner, ellipse, polygon)
        # A horizontal band through the middle keeps two arcs and four crossings.
        cy = ellipse.center_y
        half = 0.25 * (box.y_max - box.y_min)
        band = _check_clip(vertices, Rect(x0, cy - half, x1, cy + half), ellipse, polygon)
        bands += sum(p not in vertices for p in band) == 4
        # A rect well inside the polygon keeps crossings only; one around it keeps everything.
        cx = ellipse.center_x
        w = 0.2 * ellipse.semi_minor
        clipped = _check_clip(vertices, Rect(cx - w, cy - w, cx + w, cy + w), ellipse, polygon)
        inner += len(clipped) > 0 and not any(p in vertices for p in clipped)
        assert _check_clip(vertices, Rect(x0, y0, x1, y1), ellipse, polygon) == list(vertices)
        # Random rects, mostly overlapping the ellipse.
        for _ in range(10):
            rx = rng.uniform(box.x_min - 0.5 * span, box.x_max)
            ry = rng.uniform(box.y_min - 0.5 * span, box.y_max)
            rect = Rect(rx, ry, rx + rng.uniform(0.0, span), ry + rng.uniform(0.0, span))
            _check_clip(vertices, rect, ellipse, polygon)
    # Each kind of case really occurred.
    assert equal_neighbours >= 4 and many_runs >= 2
    assert bands >= 10 and inner >= 10


def test_clip_matches_the_vertex_by_vertex_clip_on_concave_and_non_finite_polygons():
    rng = random.Random(62)
    specials = [math.inf, -math.inf, math.nan]
    for trial in range(300):
        # Star-shaped: monotone runs of every length, and reflex vertices.
        n = rng.randint(3, 40)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(n))
        radii = [rng.choice([rng.uniform(1.0, 10.0), 5.0]) for _ in range(n)]
        vertices = [(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)]
        if trial % 3 == 0:  # snap to a grid: ties and repeated coordinates
            vertices = [(float(round(x)), float(round(y))) for x, y in vertices]
        if trial % 2 == 1:
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(n)
                x, y = vertices[i]
                if rng.random() < 0.5:
                    vertices[i] = (rng.choice(specials), y)
                else:
                    vertices[i] = (x, rng.choice(specials))
        for _ in range(5):
            x, y = rng.uniform(-12.0, 8.0), rng.uniform(-12.0, 8.0)
            rect = Rect(x, y, x + rng.uniform(0.0, 12.0), y + rng.uniform(0.0, 12.0))
            _check_clip(vertices, rect)
            _check_clip(tuple(vertices), rect)
    for vertices in ([(0.0, 0.0)], [(0.0, 0.0), (2.0, 2.0)], [(math.nan, 1.0)] * 3):
        _check_clip(vertices, Rect(0.5, 0.5, 1.5, 1.5))


def test_clip_data_is_built_once_per_ellipse_column(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, geometry, "_build_arcs", counts)
    rng = random.Random(63)
    gts = [GroundTruth(region=oracles.random_ellipse(rng), image_id="img") for _ in range(3)]
    gts.append(GroundTruth(region=Ellipse(5000.0, 5000.0, 10.0, 5.0, 0.3), image_id="img"))
    gts.append(GroundTruth(region=oracles.random_rect(rng), image_id="img"))
    dets = []
    for gt in gts[:3]:
        box = bounding_rect(gt.region)
        for _ in range(4):
            dx, dy = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
            region = Rect(box.x_min + dx, box.y_min + dy, box.x_max + dx, box.y_max + dy)
            dets.append(Detection(region=region, score=0.5, image_id="img"))
    # Far from every ellipse: the first clip pass keeps nothing.
    far = Detection(region=Rect(1e4, 1e4, 1e4 + 5.0, 1e4 + 5.0), score=0.5, image_id="img")
    matrix = iou_matrix(dets + [far], gts)
    # Four clipped rects in each of the first three columns, none in the fourth.
    assert [sum(row[j] > 0.0 for row in matrix) for j in range(4)] == [4, 4, 4, 0]
    # Each ellipse column's polygon builds its clip data with itself, clipped or not.
    assert counts["_build_arcs"] == 4

    counts.clear()
    assert iou_matrix([far], gts) == [[0.0] * 5]
    assert counts["_build_arcs"] == 4

    # The clip data is not part of the polygon's value, and nothing replaces it.
    polygon = ellipse_to_polygon(gts[0].region)
    fresh = Polygon(polygon.vertices)
    text = repr(polygon)
    iou_ellipse_rect(gts[0].region, dets[0].region, polygon=polygon)
    assert polygon._arcs == fresh._arcs and polygon._arcs is not fresh._arcs
    assert polygon == fresh and hash(polygon) == hash(fresh) and repr(polygon) == text
    assert "_arcs" not in text
    with pytest.raises(FrozenInstanceError):
        polygon._arcs = None
    with pytest.raises(TypeError):
        Polygon(polygon.vertices, _arcs=None)


def _ulps(value, steps):
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


def _boundary_pool(rng, thresh):
    """Boxes built to sit at the pruning bounds, with ulp jitter and ties.

    Nested partners with the same height have IoU, width ratio and area
    ratio all equal to ``thresh`` up to rounding; they come exactly at
    it and one ulp either side.  Near-duplicates differ by a few ulps,
    zero-area boxes lie on top of the others, and scores repeat.
    """
    scores = [0.9, 0.5, 0.5, rng.random()]
    boxes = []
    for _ in range(rng.randint(1, 8)):
        x = rng.uniform(-100.0, 100.0)
        y = rng.uniform(-100.0, 100.0)
        w = rng.uniform(1.0, 50.0)
        h = rng.uniform(1.0, 50.0)
        boxes.append((x, y, x + w, y + h))
        for steps in (0, 1, -1):
            partner = _ulps(x + w * thresh, steps)
            if partner >= x:
                boxes.append((x, y, partner, y + h))
            boxes.append((x, y, x + w, _ulps(y + h * thresh, steps)))
        for _ in range(2):
            boxes.append(tuple(_ulps(v, rng.randint(-3, 3)) for v in (x, y, x + w, y + h)))
        boxes.append((x, y, x, y + h))
        boxes.append((x + 0.5 * w, y, x + w, y))
    rng.shuffle(boxes)
    return [
        Detection(region=Rect(x0, y0, max(x0, x1), max(y0, y1)), score=rng.choice(scores), image_id="img")
        for x0, y0, x1, y1 in boxes
    ]


def _reference_kept(dets, thresh):
    boxes = np.array(
        [[d.region.x_min, d.region.y_min, d.region.x_max, d.region.y_max] for d in dets]
    ).reshape(len(dets), 4)
    scores = np.array([d.score for d in dets])
    return oracles.reference_nms_indices(boxes, scores, thresh)


def _kept_indices(dets, kept):
    position = {id(d): i for i, d in enumerate(dets)}
    return [position[id(d)] for d in kept]


def test_nms_matches_reference_on_unquantized_boundary_boxes():
    rng = random.Random(41)
    suppressed = 0
    within_ulps = 0
    for trial in range(120):
        thresh = (0.0, 1.0, 0.7, 0.5, rng.random())[trial % 5]
        dets = _boundary_pool(rng, thresh if thresh > 0.0 else rng.random())
        kept = _kept_indices(dets, nms(dets, thresh))
        assert kept == _reference_kept(dets, thresh), (trial, thresh)
        suppressed += len(dets) - len(kept)
        if 0.0 < thresh < 1.0:
            within_ulps += sum(
                abs(iou_rect(a.region, b.region) - thresh) <= 4 * math.ulp(thresh)
                for a, b in itertools.combinations(dets, 2)
            )
    assert suppressed > 0
    assert within_ulps > 100


def test_nms_matches_reference_on_a_decoded_proposal_pool():
    rng = random.Random(42)
    anchors = anchor_grid(24, 18, DEFAULT_ANCHOR_SPEC)
    scored = [
        (
            decode(
                BoxDelta(
                    rng.uniform(-0.2, 0.2),
                    rng.uniform(-0.2, 0.2),
                    rng.uniform(-0.4, 0.4),
                    rng.uniform(-0.4, 0.4),
                ),
                anchor,
            ),
            round(rng.random(), 3),
        )
        for anchor in anchors
    ]
    dets = [Detection(region=r, score=s, image_id="img") for r, s in top_n(scored, 600)]
    for thresh in (0.7, 0.5, 0.3):
        kept = _kept_indices(dets, nms(dets, thresh))
        assert kept == _reference_kept(dets, thresh)
        assert 0 < len(kept) < len(dets)


def test_nms_outside_the_pruning_range_matches_the_plain_loop():
    # Sides that overflow the area (NaN IoU, which suppresses), sides
    # below 1e-125 and thresholds below 1e-50 turn the IoU-bound pruning off.
    rng = random.Random(44)
    for trial in range(60):
        dets = []
        for _ in range(rng.randint(1, 12)):
            kind = rng.random()
            x = rng.uniform(-10.0, 10.0)
            if kind < 0.3:
                region = Rect(-1e308 + x, -1e308, 1e308, 1e308 - x)
            elif kind < 0.6:
                side = rng.choice([1e-200, 3e-130, 1e-126])
                region = Rect(x * side, 0.0, (x + rng.uniform(0.5, 2.0)) * side, side)
            else:
                region = oracles.random_rect(rng, span=20.0)
            dets.append(Detection(region=region, score=rng.choice([0.5, rng.random()]), image_id="img"))
        thresh = rng.choice([0.0, 1e-60, 0.3, 0.7, 1.0])
        plain = []
        for i in sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)):
            if all(iou_rect(dets[i].region, dets[j].region) <= thresh for j in plain):
                plain.append(i)
        assert _kept_indices(dets, nms(dets, thresh)) == plain, trial


def _count_calls(monkeypatch, module, name, counter):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_polygon_builds_and_nms_iou_calls_are_pruned(monkeypatch):
    counts = {}
    _count_calls(monkeypatch, matching, "ellipse_to_polygon", counts)
    _count_calls(monkeypatch, geometry, "ellipse_to_polygon", counts)
    _count_calls(monkeypatch, geometry, "iou_rect", counts)

    rng = random.Random(43)
    gts = [GroundTruth(region=oracles.random_ellipse(rng), image_id="img") for _ in range(5)]
    dets = [
        Detection(region=oracles.random_rect(rng), score=0.5, image_id="img") for _ in range(12)
    ]
    iou_matrix(dets, gts)
    assert counts["ellipse_to_polygon"] <= len(gts)

    # Pairwise-disjoint boxes on a grid, then nested boxes whose areas grow
    # by (1 / thresh) ** 1.2 from each to the next while their sides grow
    # by less than 1 / thresh.
    grid = [
        Detection(region=Rect(20.0 * i, 20.0 * j, 20.0 * i + 15.0, 20.0 * j + 15.0),
                  score=rng.random(), image_id="img")
        for i in range(15)
        for j in range(15)
    ]
    for thresh in (0.7, 0.5):
        nested = [
            Detection(region=Rect(-s, -s, s, s), score=rng.random(), image_id="img")
            for s in (thresh ** (-0.6 * k) for k in range(40))
        ]
        assert len(nms(grid, thresh)) == len(grid)
        assert len(nms(nested, thresh)) == len(nested)
    assert counts.get("iou_rect", 0) == 0
