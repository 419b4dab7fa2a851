"""Detection ROC curves and proposal-recall curves.

Curve construction sweeps thresholds over exactly the distinct detection
scores, plus +infinity for the empty operating point, with no binning.
The sweep is one pass per image followed by one merge.  Each image is
matched at most once per own distinct score.  The greedy matcher claims
in score order, so one full pass gives the pairs at every cut as a
prefix.  The optimal matcher is re-solved at an own score only when a
detection newly kept there has a pair above the matching IoU threshold:
the kept set does not change between own scores, and a row without such
a pair cannot change the optimum.  Each image emits one event per own
distinct score (the change in its TP count, FP count and IoU total), and
the events are summed by score and accumulated down the global threshold
list.  Work and memory grow with the detections, not with images times
distinct scores.

True positives are matched detections; everything else kept at the
threshold is a false positive.  The discrete criterion counts each
match as 1; the continuous criterion weights it by its IoU instead, so
the continuous curve is pointwise at or below the discrete one.  A pair
must clear the matching IoU threshold (default 0.5) before its weight
counts at all; that qualification lives in the matchers' strict
comparison.

Every operating point equals a from-scratch re-match at its threshold
(``tests/oracles.py`` keeps that re-match as the reference).  An image's
IoU total is the ``math.fsum`` of its matched IoUs, and the dataset total
is the correctly rounded sum of those per-image totals: the events carry
changes of the rounded per-image totals as exact integers, which are
rounded once per threshold, so no total depends on the order it was
summed in.  Score ties are broken by input index,
so shuffling detections with *distinct* scores never changes any curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .matching import (
    Detection,
    GroundTruth,
    _check_threshold,
    greedy_assignment,
    greedy_assignment_by_iou,
    iou_matrix,
    optimal_assignment,
)

__all__ = [
    "XSemantics",
    "YSemantics",
    "CurvePoint",
    "CurvePointError",
    "Curve",
    "ImageEntries",
    "EvalDataset",
    "MATCHERS",
    "discrete_roc",
    "continuous_roc",
    "normalized_fp_roc",
    "proposal_recall",
    "curve_query",
]

MATCHERS = ("greedy", "optimal")

_ROC_X = frozenset({"fp_count", "fp_per_image"})


class XSemantics(str, Enum):
    FP_COUNT = "fp_count"
    FP_PER_IMAGE = "fp_per_image"
    IOU_THRESHOLD = "iou_threshold"
    PROPOSAL_COUNT = "proposal_count"


class YSemantics(str, Enum):
    TPR_DISCRETE = "tpr_discrete"
    TPR_CONTINUOUS = "tpr_continuous"
    DETECTION_RATE = "detection_rate"


class CurvePoint(NamedTuple):
    x: float
    y: float
    threshold: float


class CurvePointError(ValueError):
    """A curve point that breaks a curve invariant; ``index`` is its position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, slots=True)
class Curve:
    """Ordered operating points with axis semantics."""

    points: tuple[CurvePoint, ...]
    x_semantics: XSemantics
    y_semantics: YSemantics

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(CurvePoint(*p) for p in self.points))
        previous = None
        for index, point in enumerate(self.points):
            if not 0.0 <= point.y <= 1.0:
                raise CurvePointError(f"curve y values must be in [0, 1], got {point.y!r}", index)
            if previous is not None:
                if point.x < previous.x:
                    raise CurvePointError("curve points must be sorted by ascending x", index)
                if (
                    self.x_semantics.value in _ROC_X
                    and point.x > previous.x
                    and point.threshold > previous.threshold
                ):
                    raise CurvePointError("ROC thresholds must be non-increasing along x", index)
            previous = point


class ImageEntries(NamedTuple):
    detections: tuple[Detection, ...]
    ground_truths: tuple[GroundTruth, ...]


@dataclass(frozen=True, slots=True)
class EvalDataset:
    """Detections and ground truths grouped per image."""

    images: dict[str, ImageEntries]
    total_gt_count: int

    def __post_init__(self) -> None:
        gt_count = 0
        for image_id, entry in self.images.items():
            for det in entry.detections:
                if det.image_id != image_id:
                    raise ValueError(
                        f"detection for image {det.image_id!r} filed under {image_id!r}"
                    )
            for gt in entry.ground_truths:
                if gt.image_id != image_id:
                    raise ValueError(
                        f"ground truth for image {gt.image_id!r} filed under {image_id!r}"
                    )
            gt_count += len(entry.ground_truths)
        if gt_count != self.total_gt_count:
            raise ValueError(
                f"total_gt_count is {self.total_gt_count} but images hold {gt_count}"
            )

    @classmethod
    def from_images(
        cls,
        images: Mapping[str, tuple[Sequence[Detection], Sequence[GroundTruth]]],
    ) -> "EvalDataset":
        built = {
            image_id: ImageEntries(tuple(dets), tuple(gts))
            for image_id, (dets, gts) in images.items()
        }
        total = sum(len(entry.ground_truths) for entry in built.values())
        return cls(images=built, total_gt_count=total)


def _check_matcher(matcher: str) -> None:
    if matcher not in MATCHERS:
        raise ValueError(f"matcher must be one of {MATCHERS}, got {matcher!r}")


def _check_dataset(ds: EvalDataset) -> None:
    if not ds.images:
        raise ValueError("dataset has no images")
    if ds.total_gt_count <= 0:
        raise ValueError("dataset has no ground truths; curves would be undefined")


def _score_thresholds(ds: EvalDataset) -> list[float]:
    """Distinct scores, descending, preceded by +inf (the empty operating point)."""
    scores = {d.score for entry in ds.images.values() for d in entry.detections}
    return [math.inf] + sorted(scores, reverse=True)


# Every finite float is an integer multiple of 2**-1074, so IoU sums kept
# as integers over this denominator are exact.
_EXACT_DENOMINATOR = 1 << 1074


def _exact(value: float) -> int:
    numerator, denominator = value.as_integer_ratio()
    return numerator * (_EXACT_DENOMINATOR // denominator)


def _image_events(
    entry: ImageEntries,
    matcher: str,
    iou_threshold: float,
    polygon_vertices: int,
) -> list[tuple[float, int, int, int]]:
    """One image's (score, TP change, FP change, IoU-sum change) per own distinct score.

    The IoU-sum change is that of the image's rounded ``fsum`` total, in
    exact units (see :func:`_exact`).
    """
    dets, gts = entry
    if not dets:
        return []
    matrix = iou_matrix(dets, gts, polygon_vertices)
    by_score = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    # Greedy claims in score order, so the pairs at any cut are the first
    # pairs of one full pass.
    matched = (
        {i: iou for i, _, iou in greedy_assignment(matrix, by_score, iou_threshold)}
        if matcher == "greedy"
        else {}
    )
    ious: list[float] = []
    events = []
    tp = fp = iou_sum = 0
    # A newly kept row without admissible pairs leaves the optimal pairs as
    # they were (the other rows keep their order), so the optimal matcher
    # is re-solved only after a row with one.
    stale = False
    for kept_count, i in enumerate(by_score, start=1):
        if i in matched:
            ious.append(matched[i])
        elif matcher == "optimal" and not stale:
            stale = any(iou > iou_threshold for iou in matrix[i])
        score = dets[i].score
        if kept_count < len(dets) and dets[by_score[kept_count]].score == score:
            continue
        if stale:
            kept = [matrix[k] for k in range(len(dets)) if dets[k].score >= score]
            ious = [iou for _, _, iou in optimal_assignment(kept, iou_threshold)]
            stale = False
        new_sum = _exact(math.fsum(ious))
        new_tp = len(ious)
        new_fp = kept_count - new_tp
        events.append((score, new_tp - tp, new_fp - fp, new_sum - iou_sum))
        tp, fp, iou_sum = new_tp, new_fp, new_sum
    return events


def _sweep_totals(
    ds: EvalDataset,
    matcher: str,
    iou_threshold: float,
    polygon_vertices: int,
) -> list[tuple[float, int, int, float]]:
    """(threshold, TP, FP, IoU sum) at +inf and at every distinct score, descending.

    The IoU sum is the correctly rounded total of the images' ``fsum``
    totals, rounded once from exact units.
    """
    changes: dict[float, list[int]] = {}
    for entry in ds.images.values():
        for score, tp, fp, iou_sum in _image_events(
            entry, matcher, iou_threshold, polygon_vertices
        ):
            change = changes.setdefault(score, [0, 0, 0])
            change[0] += tp
            change[1] += fp
            change[2] += iou_sum
    totals = []
    tp = fp = iou_sum = 0
    for threshold in _score_thresholds(ds):
        change = changes.get(threshold)
        if change is not None:
            tp += change[0]
            fp += change[1]
            iou_sum += change[2]
        totals.append((threshold, tp, fp, iou_sum / _EXACT_DENOMINATOR))
    return totals


def _roc_curve(
    ds: EvalDataset,
    matcher: str,
    x_semantics: XSemantics,
    y_semantics: YSemantics,
    iou_threshold: float,
    polygon_vertices: int,
) -> Curve:
    _check_dataset(ds)
    _check_matcher(matcher)
    _check_threshold(iou_threshold)
    n_images = len(ds.images)
    points = []
    for threshold, tp, fp, iou_sum in _sweep_totals(ds, matcher, iou_threshold, polygon_vertices):
        if y_semantics is YSemantics.TPR_CONTINUOUS:
            y = iou_sum / ds.total_gt_count
        else:
            y = tp / ds.total_gt_count
        x = float(fp)
        if x_semantics is XSemantics.FP_PER_IMAGE:
            x /= n_images
        points.append(CurvePoint(x=x, y=y, threshold=threshold))
    return Curve(points=tuple(points), x_semantics=x_semantics, y_semantics=y_semantics)


def discrete_roc(
    ds: EvalDataset,
    matcher: str = "greedy",
    *,
    iou_threshold: float = 0.5,
    polygon_vertices: int = 1024,
) -> Curve:
    """ROC over total false-positive count; each match counts as 1."""
    return _roc_curve(
        ds,
        matcher,
        XSemantics.FP_COUNT,
        YSemantics.TPR_DISCRETE,
        iou_threshold,
        polygon_vertices,
    )


def continuous_roc(
    ds: EvalDataset,
    matcher: str = "greedy",
    *,
    iou_threshold: float = 0.5,
    polygon_vertices: int = 1024,
) -> Curve:
    """ROC where each qualifying match contributes its IoU instead of 1."""
    return _roc_curve(
        ds,
        matcher,
        XSemantics.FP_COUNT,
        YSemantics.TPR_CONTINUOUS,
        iou_threshold,
        polygon_vertices,
    )


def normalized_fp_roc(
    ds: EvalDataset,
    matcher: str = "greedy",
    *,
    iou_threshold: float = 0.5,
    polygon_vertices: int = 1024,
) -> Curve:
    """Discrete ROC with false positives divided by the image count."""
    return _roc_curve(
        ds,
        matcher,
        XSemantics.FP_PER_IMAGE,
        YSemantics.TPR_DISCRETE,
        iou_threshold,
        polygon_vertices,
    )


def _image_recall_counts(
    entry: ImageEntries,
    n_values: Sequence[int],
    iou_thresholds: Sequence[float],
    polygon_vertices: int,
) -> list[list[int]]:
    """Matched-ground-truth counts per (N, IoU threshold) for one image.

    Proposals are matched once, greedily by descending IoU; a single
    pass then counts the pairs above each threshold.  Because the
    candidates above any threshold form a prefix of the IoU-sorted
    candidate list, this equals re-matching at every threshold.
    """
    dets, gts = entry
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    top_rows = order[: max(n_values)]
    matrix = iou_matrix([dets[i] for i in top_rows], gts, polygon_vertices)
    counts = []
    for n in n_values:
        pairs = greedy_assignment_by_iou(matrix[:n], 0.0)
        ious = [iou for _, _, iou in pairs]
        counts.append([sum(1 for iou in ious if iou > t) for t in iou_thresholds])
    return counts


def proposal_recall(
    ds: EvalDataset,
    n_values: Sequence[int],
    iou_thresholds: Sequence[float],
    *,
    polygon_vertices: int = 1024,
) -> list[Curve]:
    """Detection rate of the top-N proposals per image, by IoU threshold.

    Returns one curve per entry of ``n_values`` (in the given order);
    each curve's x axis is the IoU threshold.  The denominator is every
    ground truth in the dataset, including those on images without any
    proposal.
    """
    _check_dataset(ds)
    if not n_values:
        raise ValueError("n_values must not be empty")
    if any(n < 0 for n in n_values):
        raise ValueError(f"n_values must be non-negative, got {list(n_values)}")
    if any(not 0.0 < t <= 1.0 for t in iou_thresholds):
        raise ValueError(f"iou_thresholds must lie in (0, 1], got {list(iou_thresholds)}")
    thresholds = sorted(iou_thresholds)
    per_image = [
        _image_recall_counts(entry, n_values, thresholds, polygon_vertices)
        for entry in ds.images.values()
    ]
    curves = []
    for n_idx in range(len(n_values)):
        points = []
        for t_idx, t in enumerate(thresholds):
            matched = sum(counts[n_idx][t_idx] for counts in per_image)
            points.append(CurvePoint(x=t, y=matched / ds.total_gt_count, threshold=t))
        curves.append(
            Curve(
                points=tuple(points),
                x_semantics=XSemantics.IOU_THRESHOLD,
                y_semantics=YSemantics.DETECTION_RATE,
            )
        )
    return curves


def curve_query(curve: Curve, x: float) -> float:
    """Step interpolation: y of the last point with point-x <= x.

    Below the first point the first y is returned.  With several points
    at the same x, the latest (lowest-threshold) one wins.
    """
    if not curve.points:
        raise ValueError("cannot query an empty curve")
    result = curve.points[0].y
    for point in curve.points:
        if point.x <= x:
            result = point.y
        else:
            break
    return result
