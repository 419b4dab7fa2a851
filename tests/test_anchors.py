import math
import random
import sys
from decimal import Decimal

import pytest

from facemetrics.anchors import (
    DEFAULT_ANCHOR_SPEC,
    AnchorSpec,
    BoxDelta,
    ResizePlan,
    _check_grid,
    anchor_grid,
    base_anchors,
    decode,
    encode,
    resize_scale,
    top_n,
)
from facemetrics.geometry import Rect


def test_spec_validation():
    with pytest.raises(ValueError):
        AnchorSpec(scales=(), ratios=(1.0,), stride=16.0)
    with pytest.raises(ValueError):
        AnchorSpec(scales=(128.0,), ratios=(), stride=16.0)
    with pytest.raises(ValueError):
        AnchorSpec(scales=(-128.0,), ratios=(1.0,), stride=16.0)
    with pytest.raises(ValueError):
        AnchorSpec(scales=(128.0,), ratios=(0.0,), stride=16.0)
    with pytest.raises(ValueError):
        AnchorSpec(scales=(128.0,), ratios=(1.0,), stride=0.0)


def test_spec_rejects_exactly_the_pairs_with_an_infinite_anchor_side():
    big = sys.float_info.max
    outcomes = []
    for scale, ratio in (
        (big, 4.0), (big, math.nextafter(4.0, 5.0)), (big, 0.25), (big, math.nextafter(0.25, 0.0)),
        (1e308, 1e-300), (1e308, 1e300), (1e-300, 1e-300), (128.0, 1e300),
    ):
        root = math.sqrt(ratio)
        half_w = 0.5 * scale / root
        half_h = 0.5 * scale * root
        try:
            Rect(-half_w, -half_h, half_w, half_h)
        except ValueError:
            with pytest.raises(ValueError, match="gives an infinite anchor side") as excinfo:
                AnchorSpec(scales=(1.0, scale), ratios=(ratio,), stride=16.0)
            assert str(excinfo.value) == (
                f"AnchorSpec scale {scale} with ratio {ratio} gives an infinite anchor side"
            )
            outcomes.append(False)
        else:
            AnchorSpec(scales=(1.0, scale), ratios=(ratio,), stride=16.0)
            outcomes.append(True)
    assert True in outcomes and False in outcomes


def test_default_spec():
    assert DEFAULT_ANCHOR_SPEC.scales == (128.0, 256.0, 512.0)
    assert DEFAULT_ANCHOR_SPEC.ratios == (1.0, 2.0, 0.5)
    assert DEFAULT_ANCHOR_SPEC.stride == 16.0
    assert DEFAULT_ANCHOR_SPEC.anchors_per_location == 9


def test_base_anchors_shapes():
    anchors = base_anchors(DEFAULT_ANCHOR_SPEC)
    assert len(anchors) == 9
    for anchor in anchors:
        # Centered at the origin.
        assert anchor.x_min == -anchor.x_max
        assert anchor.y_min == -anchor.y_max
    # Scale-major, ratio-minor ordering: the square 128 anchor comes first.
    assert anchors[0] == Rect(-64.0, -64.0, 64.0, 64.0)
    # ratio 2 means twice as tall as wide.
    tall = anchors[1]
    assert tall.height / tall.width == pytest.approx(2.0, rel=1e-12)
    wide = anchors[2]
    assert wide.height / wide.width == pytest.approx(0.5, rel=1e-12)


def test_base_anchors_preserve_area():
    for anchor, (scale, _) in zip(
        base_anchors(DEFAULT_ANCHOR_SPEC),
        [(s, r) for s in (128.0, 256.0, 512.0) for r in (1.0, 2.0, 0.5)],
    ):
        assert anchor.width * anchor.height == pytest.approx(scale * scale, rel=1e-12)


def test_anchor_grid_size_and_order():
    spec = DEFAULT_ANCHOR_SPEC
    grid = anchor_grid(4, 3, spec)
    assert len(grid) == 4 * 3 * 9
    # First block sits at the first cell center (8, 8).
    assert grid[0].center == (8.0, 8.0)
    # Innermost anchors, then i along the row, then j across rows.
    k = spec.anchors_per_location
    assert grid[k].center == (24.0, 8.0)
    assert grid[4 * k].center == (8.0, 24.0)
    assert grid[4 * k + 2 * k + 1].center == (40.0, 24.0)


def test_anchor_grid_matches_the_nested_loop_bit_for_bit():
    spec = AnchorSpec(scales=(100.0, 33.3), ratios=(0.7, 1.9, 1.0), stride=12.7)
    expected = [
        Rect(b.x_min + cx, b.y_min + cy, b.x_max + cx, b.y_max + cy)
        for cy in ((j + 0.5) * spec.stride for j in range(3))
        for cx in ((i + 0.5) * spec.stride for i in range(5))
        for b in base_anchors(spec)
    ]
    assert [_hex_corners(r) for r in anchor_grid(5, 3, spec)] == [_hex_corners(r) for r in expected]


def test_anchor_grid_shares_each_edge_along_its_column_or_row():
    # An x edge depends only on the column and a y edge only on the row, so
    # a 64x38 grid of nine anchors needs at most 2 * 9 * (64 + 38) distinct
    # floats, not four for each of its 21,888 anchors.
    grid = anchor_grid(64, 38, DEFAULT_ANCHOR_SPEC)
    edges = {id(v) for r in grid for v in (r.x_min, r.y_min, r.x_max, r.y_max)}
    assert len(edges) <= 2 * 9 * (64 + 38)


def test_anchor_grid_rejects_empty():
    with pytest.raises(ValueError):
        anchor_grid(0, 3, DEFAULT_ANCHOR_SPEC)
    with pytest.raises(ValueError):
        anchor_grid(3, 0, DEFAULT_ANCHOR_SPEC)


def test_anchor_grid_rejects_exactly_the_grids_whose_corners_overflow():
    # Strides a few ulps either side of where the farthest corner meets the
    # float limit: the grid is rejected exactly when building its boxes one
    # by one, as anchor_grid does, would overflow a corner.
    big = sys.float_info.max
    for scale, ratio in ((128.0, 1.0), (1e308, 1.0), (1e307, 50.0), (1e307, 0.02)):
        base = base_anchors(AnchorSpec(scales=(scale,), ratios=(ratio,), stride=1.0))[0]
        for cells in (2, 3):
            for size, half_side in (((cells, 1), base.x_max), ((1, cells), base.y_max)):
                stride = (big - half_side) / (cells - 0.5)
                for _ in range(8):
                    stride = math.nextafter(stride, 0.0)
                outcomes = []
                for _ in range(17):
                    spec = AnchorSpec(scales=(scale,), ratios=(ratio,), stride=stride)
                    try:
                        expected = [
                            Rect(b.x_min + cx, b.y_min + cy, b.x_max + cx, b.y_max + cy)
                            for cy in ((j + 0.5) * spec.stride for j in range(size[1]))
                            for cx in ((i + 0.5) * spec.stride for i in range(size[0]))
                            for b in base_anchors(spec)
                        ]
                    except ValueError:
                        with pytest.raises(ValueError, match="^anchor_grid overflows for a"):
                            anchor_grid(*size, spec)
                        outcomes.append(False)
                    else:
                        if any(box.width == 0.0 or box.height == 0.0 for box in expected):
                            # At centers near 1e308 a 128-pixel side rounds away.
                            with pytest.raises(ValueError, match="^anchor_grid collapses anchors"):
                                anchor_grid(*size, spec)
                        else:
                            assert anchor_grid(*size, spec) == expected
                        outcomes.append(True)
                    stride = math.nextafter(stride, math.inf)
                assert True in outcomes and False in outcomes, (scale, ratio, size)
    # A grid size past the float range is rejected by the check that runs before any work.
    with pytest.raises(ValueError, match="^anchor_grid overflows for a 1x1000"):
        _check_grid(1, 10**400, DEFAULT_ANCHOR_SPEC)


def test_anchor_grid_rejects_exactly_the_grids_that_collapse_an_anchor():
    # The farthest center c = (cells - 0.5) * stride walks ulp by ulp across
    # a power of two P.  Below P the float spacing is less than the anchor's
    # side, so the side survives c - half and c + half; above P it is twice
    # that, and the side rounds away.  Along the base's shorter side, so the
    # other side survives.  The grid is rejected exactly when building its
    # boxes one by one, as anchor_grid does, leaves a zero-width or
    # zero-height box.
    for scale, ratio in ((100.0, 1.0), (3.0, 4.0), (3.0, 0.25), (1e-300, 1.0), (1e250, 0.5)):
        base = base_anchors(AnchorSpec(scales=(scale,), ratios=(ratio,), stride=1.0))[0]
        short = min(base.x_max, base.y_max)
        for cells in (1, 2, 3):
            walks = [((cells, 1), base.x_max), ((1, cells), base.y_max)]
            for size, half_side in [(size, half) for size, half in walks if half == short]:
                power = 2.0 ** (math.floor(math.log2(half_side)) + 54)
                stride = power / (cells - 0.5)
                for _ in range(8):
                    stride = math.nextafter(stride, 0.0)
                outcomes = []
                for _ in range(17):
                    spec = AnchorSpec(scales=(scale,), ratios=(ratio,), stride=stride)
                    expected = [
                        Rect(b.x_min + cx, b.y_min + cy, b.x_max + cx, b.y_max + cy)
                        for cy in ((j + 0.5) * spec.stride for j in range(size[1]))
                        for cx in ((i + 0.5) * spec.stride for i in range(size[0]))
                        for b in base_anchors(spec)
                    ]
                    if any(box.width == 0.0 or box.height == 0.0 for box in expected):
                        with pytest.raises(ValueError, match="^anchor_grid collapses anchors"):
                            anchor_grid(*size, spec)
                        outcomes.append(False)
                    else:
                        assert anchor_grid(*size, spec) == expected
                        outcomes.append(True)
                    stride = math.nextafter(stride, math.inf)
                assert True in outcomes and False in outcomes, (scale, ratio, size)


def test_encode_identity_is_zero():
    anchor = Rect(10.0, 10.0, 30.0, 50.0)
    delta = encode(anchor, anchor)
    assert delta == BoxDelta(0.0, 0.0, 0.0, 0.0)


def test_encode_known_offsets():
    anchor = Rect(0.0, 0.0, 10.0, 10.0)
    shifted = Rect(10.0, 0.0, 20.0, 10.0)  # one width to the right
    delta = encode(shifted, anchor)
    assert delta.tx == 1.0
    assert delta.ty == 0.0
    assert delta.tw == 0.0
    doubled = Rect(-5.0, -5.0, 15.0, 15.0)  # same center, twice the size
    delta = encode(doubled, anchor)
    assert delta.tx == 0.0
    assert delta.tw == pytest.approx(math.log(2.0), rel=1e-15)
    assert delta.th == pytest.approx(math.log(2.0), rel=1e-15)


def test_encode_rejects_degenerate_boxes():
    anchor = Rect(0.0, 0.0, 10.0, 10.0)
    flat = Rect(0.0, 5.0, 10.0, 5.0)
    with pytest.raises(ValueError):
        encode(flat, anchor)
    with pytest.raises(ValueError):
        encode(anchor, flat)
    with pytest.raises(ValueError):
        decode(BoxDelta(0.0, 0.0, 0.0, 0.0), flat)


def test_decode_inverts_encode():
    rng = random.Random(11)
    for _ in range(300):
        anchor = Rect.from_xywh(
            rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(1, 60), rng.uniform(1, 60)
        )
        proposal = Rect.from_xywh(
            rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(1, 60), rng.uniform(1, 60)
        )
        restored = decode(encode(proposal, anchor), anchor)
        assert restored.x_min == pytest.approx(proposal.x_min, abs=1e-9)
        assert restored.y_min == pytest.approx(proposal.y_min, abs=1e-9)
        assert restored.x_max == pytest.approx(proposal.x_max, abs=1e-9)
        assert restored.y_max == pytest.approx(proposal.y_max, abs=1e-9)


def test_decode_names_a_delta_that_overflows_the_float_range():
    anchor = Rect(0.0, 0.0, 16.0, 16.0)
    # tw or th of 1000 overflows math.exp; 709 overflows the box side after it;
    # tx of 1e308 overflows the center.
    for delta in (BoxDelta(0.0, 0.0, 1000.0, 0.0), BoxDelta(0.0, 0.0, 709.0, 0.0),
                  BoxDelta(0.0, 0.0, 0.0, 1000.0), BoxDelta(0.0, 0.0, 0.0, 709.0),
                  BoxDelta(1e308, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError) as excinfo:
            decode(delta, anchor)
        assert str(excinfo.value) == f"decode overflows the float range for {delta!r} on {anchor!r}"
    assert decode(BoxDelta(0.0, 0.0, 700.0, 0.0), anchor).width < math.inf


def _decode_by_properties(delta, anchor):
    """``decode`` through ``width``, ``height`` and ``center``."""
    aw = anchor.width
    ah = anchor.height
    if aw <= 0 or ah <= 0:
        raise ValueError(f"decode requires a positive-size anchor, got {aw}x{ah}")
    acx, acy = anchor.center
    cx = acx + delta.tx * aw
    cy = acy + delta.ty * ah
    w = aw * math.exp(delta.tw)
    h = ah * math.exp(delta.th)
    return Rect(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def _hex_corners(rect):
    return [v.hex() for v in (rect.x_min, rect.y_min, rect.x_max, rect.y_max)]


def test_decode_matches_the_property_formula_bit_for_bit():
    rng = random.Random(17)
    grid = anchor_grid(7, 5, DEFAULT_ANCHOR_SPEC)
    for _ in range(2000):
        if rng.random() < 0.5:
            anchor = rng.choice(grid)
        else:
            x = rng.uniform(-1e4, 1e4)
            y = rng.uniform(-1e4, 1e4)
            anchor = Rect(x, y, x + rng.uniform(1e-3, 900.0), y + rng.uniform(1e-3, 900.0))
        delta = BoxDelta(*(rng.gauss(0.0, 0.5) for _ in range(4)))
        got = decode(delta, anchor)
        assert _hex_corners(got) == _hex_corners(_decode_by_properties(delta, anchor))
    delta = BoxDelta(0.1, -0.2, 0.3, 0.0)
    for anchor in (Rect(1.0, 2.0, 1.0, 7.0), Rect(1.0, 2.0, 4.0, 2.0), Rect(3.0, 3.0, 3.0, 3.0)):
        with pytest.raises(ValueError) as excinfo:
            decode(delta, anchor)
        with pytest.raises(ValueError) as reference:
            _decode_by_properties(delta, anchor)
        assert str(excinfo.value) == str(reference.value)
        assert str(excinfo.value).startswith("decode requires a positive-size anchor, got ")


def _top_n_by_score_order(scored, n):
    """``top_n`` through an index list sorted by descending score."""
    scores = [score for _, score in scored]
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return [scored[i] for i in order[:n]]


def test_top_n_matches_the_index_order_on_ties():
    rng = random.Random(19)
    for _ in range(500):
        length = rng.randint(0, 60)
        values = [rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, math.inf]) for _ in range(4)]
        scored = [
            (Rect(0.0, 0.0, 1.0, 1.0), rng.choice(values) if rng.random() < 0.9 else rng.random())
            for _ in range(length)
        ]
        for n in {0, 1, length, rng.randint(0, length + 2)}:
            got = top_n(scored, n)
            assert [id(entry) for entry in got] == [
                id(entry) for entry in _top_n_by_score_order(scored, n)
            ], (scored, n)


def test_top_n_selection():
    boxes = [Rect(0, 0, 1, 1), Rect(1, 0, 2, 1), Rect(2, 0, 3, 1), Rect(3, 0, 4, 1)]
    scored = list(zip(boxes, [0.3, 0.9, 0.9, 0.1]))
    assert top_n(scored, 0) == []
    assert top_n(scored, 2) == [(boxes[1], 0.9), (boxes[2], 0.9)]
    assert top_n(scored, 10) == [
        (boxes[1], 0.9),
        (boxes[2], 0.9),
        (boxes[0], 0.3),
        (boxes[3], 0.1),
    ]
    with pytest.raises(ValueError):
        top_n(scored, -1)


def test_anchor_grid_and_top_n_take_int_counts_only():
    scored = [(Rect(0.0, 0.0, 1.0, 1.0), 0.5), (Rect(1.0, 1.0, 2.0, 2.0), 0.9)]
    for bad in (True, False, 2.5, 2.0, "2", None):
        for size in ((bad, 2), (2, bad)):
            message = f"anchor_grid requires a non-empty grid of ints, got {size[0]!r}x{size[1]!r}"
            with pytest.raises(ValueError) as excinfo:
                anchor_grid(*size, DEFAULT_ANCHOR_SPEC)
            assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            top_n(scored, bad)
        assert str(excinfo.value) == f"top_n requires an int n >= 0, got {bad!r}"
    assert len(anchor_grid(1, 1, DEFAULT_ANCHOR_SPEC)) == 9
    assert top_n(scored, 1) == [scored[1]]


def test_resize_scale_train_mode():
    plan = resize_scale(2048.0, 1024.0, "train")
    assert plan.scale == 0.5
    assert plan.resized_w == 1024.0
    assert plan.resized_h == 512.0
    # Small images are scaled up, not capped.
    assert resize_scale(256.0, 128.0, "train").scale == 4.0


def test_resize_scale_test_mode():
    plan = resize_scale(350.0, 450.0, "test")
    assert plan.scale == pytest.approx(600.0 / 350.0, rel=1e-15)
    assert plan.resized_w == pytest.approx(600.0, rel=1e-12)
    # The long side caps the scale at 1024.
    assert resize_scale(200.0, 2000.0, "test").scale == pytest.approx(0.512, rel=1e-15)
    # Upscaling is allowed.
    assert resize_scale(100.0, 100.0, "test").scale == 6.0


def test_resize_scale_rejects_non_finite_dimensions():
    for bad in (math.nan, math.inf):
        for mode in ("train", "test"):
            for width, height in ((bad, 100.0), (100.0, bad)):
                with pytest.raises(ValueError, match="finite"):
                    resize_scale(width, height, mode)


def test_resize_scale_rejects_an_overflowing_scale():
    for mode in ("train", "test"):
        with pytest.raises(ValueError, match="resize_scale overflows for dimensions 5e-324x5e-324"):
            resize_scale(5e-324, 5e-324, mode)


def test_box_delta_rejects_non_finite_fields():
    for name in ("tx", "ty", "tw", "th"):
        for bad in (math.nan, math.inf):
            fields = {"tx": 0.0, "ty": 0.0, "tw": 0.0, "th": 0.0, name: bad}
            with pytest.raises(ValueError, match=f"BoxDelta.{name} must be finite"):
                BoxDelta(**fields)


def test_resize_plan_rejects_a_zero_negative_or_non_finite_scale():
    assert ResizePlan(scale=2.0, resized_w=4.0, resized_h=6.0).scale == 2.0
    for bad in (0.0, -0.0, -1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="^ResizePlan scale must be positive and finite, got "):
            ResizePlan(scale=bad, resized_w=1.0, resized_h=1.0)


def test_anchor_spec_and_resize_plan_fields_follow_the_number_rule():
    # A bool, a str or a Decimal in any field is refused before any range
    # rule or grid build; a Decimal stride once raised a bare TypeError
    # inside anchor_grid.
    spec = {"scales": (128.0, 256.0), "ratios": (1.0, 2.0), "stride": 16.0}
    plan = {"scale": 2.0, "resized_w": 4.0, "resized_h": 6.0}
    cases = [
        (AnchorSpec, spec, "scales", lambda bad: (128.0, bad), "AnchorSpec.scales[1]"),
        (AnchorSpec, spec, "ratios", lambda bad: (bad,), "AnchorSpec.ratios[0]"),
        (AnchorSpec, spec, "stride", lambda bad: bad, "AnchorSpec.stride"),
        (ResizePlan, plan, "scale", lambda bad: bad, "ResizePlan.scale"),
        (ResizePlan, plan, "resized_w", lambda bad: bad, "ResizePlan.resized_w"),
        (ResizePlan, plan, "resized_h", lambda bad: bad, "ResizePlan.resized_h"),
    ]
    for cls, fields, name, value, label in cases:
        for bad, kind in ((True, "bool"), ("16", "str"), (Decimal("2"), "Decimal")):
            with pytest.raises(TypeError) as excinfo:
                cls(**{**fields, name: value(bad)})
            assert str(excinfo.value) == f"{label} must be an int or float, got {kind}"
        # The scale's range rule names a non-finite value in its own pinned message.
        rule = f"{label} must be finite"
        if name == "scale":
            rule = "ResizePlan scale must be positive and finite"
        for bad in (math.nan, math.inf, 10**400):
            with pytest.raises(ValueError) as excinfo:
                cls(**{**fields, name: value(bad)})
            assert str(excinfo.value) == f"{rule}, got {bad!r}"
    # Ints stay accepted: scales and ratios become floats, the stride keeps its type.
    built = AnchorSpec(scales=(128,), ratios=(1,), stride=16)
    assert built.scales == (128.0,) and type(built.scales[0]) is float
    assert type(built.stride) is int and len(anchor_grid(2, 1, built)) == 2
    assert ResizePlan(scale=2, resized_w=4, resized_h=6).scale == 2
    with pytest.raises(ValueError) as excinfo:
        ResizePlan(scale=10**5000, resized_w=1.0, resized_h=1.0)
    assert str(excinfo.value) == (
        "ResizePlan scale must be positive and finite, got an int of 16610 bits"
    )


def test_resize_scale_validation():
    with pytest.raises(ValueError):
        resize_scale(0.0, 100.0, "train")
    with pytest.raises(ValueError):
        resize_scale(100.0, 100.0, "validate")
