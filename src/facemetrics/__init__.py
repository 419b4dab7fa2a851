"""facemetrics: evaluation toolkit for face/object detector output.

Geometry for boxes and rotated ellipses, anchor-grid utilities,
detection-to-ground-truth matching, and the curve metrics built on them
(discrete/continuous ROC, per-image-normalized ROC, proposal recall),
plus strict parsers and canonical writers for the region-list and curve
file formats.  The :mod:`facemetrics.cli` module wraps it all in a
``facemetrics`` command.

All computation is deterministic and runs on one thread: the same
inputs give bit-identical results.
"""

from ._version import __version__
from .anchors import (
    DEFAULT_ANCHOR_SPEC,
    AnchorSpec,
    BoxDelta,
    ResizePlan,
    anchor_grid,
    base_anchors,
    decode,
    encode,
    resize_scale,
    top_n,
)
from .geometry import (
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
from .io import (
    AnnotationEntry,
    AnnotationFile,
    ParseError,
    RectRegion,
    build_dataset,
    format_rect,
    parse_fold_list,
    parse_region_list,
    parse_scored_rects,
    read_curve,
    write_curve,
)
from .matching import (
    Detection,
    GroundTruth,
    MatchOutcome,
    MatchPair,
    iou_matrix,
    match_greedy,
    match_optimal,
    region_iou,
)
from .metrics import (
    MATCHERS,
    Curve,
    CurvePoint,
    EvalDataset,
    ImageEntries,
    XSemantics,
    YSemantics,
    continuous_roc,
    curve_query,
    discrete_roc,
    normalized_fp_roc,
    proposal_recall,
)

__all__ = [
    "__version__",
    # geometry
    "Rect",
    "Ellipse",
    "Polygon",
    "area",
    "iou_rect",
    "ellipse_to_polygon",
    "clip_polygon_to_rect",
    "iou_ellipse_rect",
    "bounding_rect",
    "nms",
    # anchors
    "AnchorSpec",
    "DEFAULT_ANCHOR_SPEC",
    "BoxDelta",
    "ResizePlan",
    "base_anchors",
    "anchor_grid",
    "encode",
    "decode",
    "top_n",
    "resize_scale",
    # matching
    "MATCHERS",
    "Detection",
    "GroundTruth",
    "MatchPair",
    "MatchOutcome",
    "region_iou",
    "iou_matrix",
    "match_greedy",
    "match_optimal",
    # metrics
    "XSemantics",
    "YSemantics",
    "CurvePoint",
    "Curve",
    "ImageEntries",
    "EvalDataset",
    "discrete_roc",
    "continuous_roc",
    "normalized_fp_roc",
    "proposal_recall",
    "curve_query",
    # io
    "ParseError",
    "RectRegion",
    "AnnotationEntry",
    "AnnotationFile",
    "parse_region_list",
    "parse_fold_list",
    "parse_scored_rects",
    "format_rect",
    "build_dataset",
    "write_curve",
    "read_curve",
]
