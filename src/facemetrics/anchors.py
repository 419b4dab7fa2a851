"""Anchor enumeration, box-delta codec, top-N selection, and resize rules.

The anchor family follows the common region-proposal convention: an
anchor is a reference box with a scale (side length whose square is the
box area) and an aspect ratio (height over width), tiled over a feature
grid whose cells are ``stride`` input pixels apart.  The defaults match
the widely used VGG16 setup: scales 128/256/512, ratios 1:1, 1:2 and
2:1 (nine anchors per location) and a stride of 16 pixels.

Anchor centers sit at cell centers, ``(i + 0.5) * stride``; the
alternative corner-origin convention would shift everything by half a
stride.  Anchors are generated unclipped, extending past image bounds
when the grid reaches the border.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .geometry import _FLOAT_MAX, Rect, _check_number, _check_number_type, _is_int, _number_text

__all__ = [
    "AnchorSpec",
    "BoxDelta",
    "ResizePlan",
    "DEFAULT_ANCHOR_SPEC",
    "base_anchors",
    "anchor_grid",
    "encode",
    "decode",
    "top_n",
    "resize_scale",
]


def _half_sides(scale: float, ratio: float) -> tuple[float, float]:
    """Half width and half height of the base anchor of one scale and ratio."""
    root = math.sqrt(ratio)
    return 0.5 * scale / root, 0.5 * scale * root


@dataclass(frozen=True, slots=True)
class AnchorSpec:
    """Anchor family: scales (pixels), height/width ratios, grid stride."""

    scales: tuple[float, ...]
    ratios: tuple[float, ...]
    stride: float

    def __post_init__(self) -> None:
        for name in ("scales", "ratios"):
            values = tuple(getattr(self, name))
            for i, value in enumerate(values):
                _check_number(value, f"AnchorSpec.{name}[{i}]")
            object.__setattr__(self, name, tuple(map(float, values)))
        _check_number(self.stride, "AnchorSpec.stride")
        if not self.scales:
            raise ValueError("AnchorSpec requires at least one scale")
        if not self.ratios:
            raise ValueError("AnchorSpec requires at least one ratio")
        if any(s <= 0 for s in self.scales):
            raise ValueError(f"AnchorSpec scales must be positive, got {self.scales}")
        if any(r <= 0 for r in self.ratios):
            raise ValueError(f"AnchorSpec ratios must be positive, got {self.ratios}")
        if self.stride <= 0:
            raise ValueError(f"AnchorSpec stride must be positive, got {self.stride}")
        for scale in self.scales:
            for ratio in self.ratios:
                if math.inf in _half_sides(scale, ratio):
                    raise ValueError(
                        f"AnchorSpec scale {scale} with ratio {ratio} gives an infinite anchor side"
                    )

    @property
    def anchors_per_location(self) -> int:
        return len(self.scales) * len(self.ratios)


DEFAULT_ANCHOR_SPEC = AnchorSpec(scales=(128.0, 256.0, 512.0), ratios=(1.0, 2.0, 0.5), stride=16.0)

_RESIZE_MODES = ("train", "test")
# Resize targets in pixels: the longer side's in ``train`` and its cap in
# ``test``, and the shorter side's in ``test``.
_LONG_SIDE = 1024.0
_SHORT_SIDE = 600.0


@dataclass(frozen=True, slots=True)
class BoxDelta:
    """Box offsets relative to an anchor: center shifts and log size ratios.

    Each field is a finite ``int`` or ``float``, not a ``bool``, as in a ``Rect``.
    """

    tx: float
    ty: float
    tw: float
    th: float

    def __post_init__(self) -> None:
        _check_number(self.tx, "BoxDelta.tx")
        _check_number(self.ty, "BoxDelta.ty")
        _check_number(self.tw, "BoxDelta.tw")
        _check_number(self.th, "BoxDelta.th")


@dataclass(frozen=True, slots=True)
class ResizePlan:
    """Uniform image scale factor and the resulting dimensions."""

    scale: float
    resized_w: float
    resized_h: float

    def __post_init__(self) -> None:
        _check_number_type(self.scale, "ResizePlan.scale")
        if not 0 < self.scale <= _FLOAT_MAX:
            raise ValueError(
                f"ResizePlan scale must be positive and finite, got {_number_text(self.scale)}"
            )
        _check_number(self.resized_w, "ResizePlan.resized_w")
        _check_number(self.resized_h, "ResizePlan.resized_h")


def base_anchors(spec: AnchorSpec) -> list[Rect]:
    """All scale/ratio combinations as boxes centered at the origin.

    For scale ``s`` and ratio ``r`` the box is ``s / sqrt(r)`` wide and
    ``s * sqrt(r)`` tall, preserving the area ``s**2`` exactly (up to
    float rounding).  Order is scale-major, ratio-minor.
    """
    anchors = []
    for scale in spec.scales:
        for ratio in spec.ratios:
            half_w, half_h = _half_sides(scale, ratio)
            anchors.append(Rect(-half_w, -half_h, half_w, half_h))
    return anchors


def _check_grid(
    feature_w: int, feature_h: int, spec: AnchorSpec
) -> tuple[list[list[tuple[float, float]]], list[list[tuple[float, float]]]]:
    """Edges of a feature grid's anchors, or an error if it cannot be built faithfully.

    Returns ``(columns, rows)``: for each grid column, every base anchor's
    ``(x_min + cx, x_max + cx)``, and for each grid row its
    ``(y_min + cy, y_max + cy)``.  An x edge depends only on the column and
    a y edge only on the row, so each is computed once and its float shared
    by every anchor of that column or row: 2 * bases * (w + h) floats
    instead of 4 * bases * w * h.  The grid is rejected when it is empty,
    when the farthest anchor corner overflows (every other coordinate is
    finite when that one is), or when a center so dwarfs a positive anchor
    side that both its edges rounded to the same float, leaving a zero-area
    box.
    """
    if not (_is_int(feature_w) and _is_int(feature_h)) or feature_w < 1 or feature_h < 1:
        raise ValueError(
            f"anchor_grid requires a non-empty grid of ints, got {feature_w!r}x{feature_h!r}"
        )
    try:
        far_cx = ((feature_w - 1) + 0.5) * spec.stride
        far_cy = ((feature_h - 1) + 0.5) * spec.stride
    except OverflowError:  # a grid size past the float range
        far_cx = far_cy = math.inf
    bases = base_anchors(spec)
    if (
        max(b.x_max for b in bases) + far_cx == math.inf
        or max(b.y_max for b in bases) + far_cy == math.inf
    ):
        raise ValueError(
            f"anchor_grid overflows for a {feature_w}x{feature_h} grid at stride {spec.stride}"
        )
    columns = [
        [(b.x_min + cx, b.x_max + cx) for b in bases]
        for cx in ((i + 0.5) * spec.stride for i in range(feature_w))
    ]
    rows = [
        [(b.y_min + cy, b.y_max + cy) for b in bases]
        for cy in ((j + 0.5) * spec.stride for j in range(feature_h))
    ]
    for side, lines, positive in (
        ("width", columns, [k for k, b in enumerate(bases) if b.x_min < b.x_max]),
        ("height", rows, [k for k, b in enumerate(bases) if b.y_min < b.y_max]),
    ):
        if any(line[k][0] == line[k][1] for line in lines for k in positive):
            raise ValueError(
                f"anchor_grid collapses anchors to zero {side} for a {feature_w}x{feature_h} "
                f"grid at stride {spec.stride}"
            )
    return columns, rows


def anchor_grid(feature_w: int, feature_h: int, spec: AnchorSpec) -> list[Rect]:
    """Tile the base anchors over a feature grid of the given size.

    Centers are at ``((i + 0.5) * stride, (j + 0.5) * stride)``.  Output
    is row-major: j (rows) outermost, then i, then the anchor index, for
    exactly ``feature_w * feature_h * anchors_per_location`` boxes.
    """
    columns, rows = _check_grid(feature_w, feature_h, spec)
    return [
        Rect(x0, y0, x1, y1)
        for row in rows
        for column in columns
        for (x0, x1), (y0, y1) in zip(column, row)
    ]


def encode(proposal: Rect, anchor: Rect) -> BoxDelta:
    """Express a proposal as center/log-size offsets from an anchor."""
    pw = proposal.width
    ph = proposal.height
    aw = anchor.width
    ah = anchor.height
    if pw <= 0 or ph <= 0:
        raise ValueError(f"encode requires a positive-size proposal, got {pw}x{ph}")
    if aw <= 0 or ah <= 0:
        raise ValueError(f"encode requires a positive-size anchor, got {aw}x{ah}")
    pcx, pcy = proposal.center
    acx, acy = anchor.center
    return BoxDelta(
        tx=(pcx - acx) / aw,
        ty=(pcy - acy) / ah,
        tw=math.log(pw / aw),
        th=math.log(ph / ah),
    )


def decode(delta: BoxDelta, anchor: Rect) -> Rect:
    """Inverse of :func:`encode`: apply offsets to an anchor."""
    x0, y0, x1, y1 = anchor.x_min, anchor.y_min, anchor.x_max, anchor.y_max
    aw = x1 - x0
    ah = y1 - y0
    if aw <= 0 or ah <= 0:
        raise ValueError(f"decode requires a positive-size anchor, got {aw}x{ah}")
    try:
        cx = 0.5 * (x0 + x1) + delta.tx * aw
        cy = 0.5 * (y0 + y1) + delta.ty * ah
        half_w = 0.5 * (aw * math.exp(delta.tw))
        half_h = 0.5 * (ah * math.exp(delta.th))
        return Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h)
    except (OverflowError, ValueError):  # from math.exp, or a Rect edge that is not finite
        raise ValueError(f"decode overflows the float range for {delta!r} on {anchor!r}") from None


def top_n(scored: list[tuple[Rect, float]], n: int) -> list[tuple[Rect, float]]:
    """The ``n`` highest-scoring entries, descending score, ties by input index."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"top_n requires an int n >= 0, got {n!r}")
    # A reverse sort is stable, so equal scores keep their input order.
    return sorted(scored, key=itemgetter(1), reverse=True)[:n]


def resize_scale(width: float, height: float, mode: str) -> ResizePlan:
    """Uniform resize factor for an image of the given size.

    ``train`` scales the longer side to ``_LONG_SIDE``; ``test`` scales
    the shorter side to ``_SHORT_SIDE`` unless that would push the longer
    side past ``_LONG_SIDE``.  The formulas are applied as written, so
    images smaller than the targets are scaled up (no cap at 1.0).  A size
    so small that the scale overflows is rejected.
    """
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise ValueError(f"resize_scale requires positive, finite dimensions, got {width}x{height}")
    if mode not in _RESIZE_MODES:
        raise ValueError(f"resize_scale mode must be one of {_RESIZE_MODES}, got {mode!r}")
    if mode == "train":
        scale = _LONG_SIDE / max(width, height)
    else:
        scale = min(_SHORT_SIDE / min(width, height), _LONG_SIDE / max(width, height))
    if scale == math.inf:
        raise ValueError(f"resize_scale overflows for dimensions {width}x{height}")
    return ResizePlan(scale=scale, resized_w=scale * width, resized_h=scale * height)
