"""Detection ROC curves and proposal-recall curves.

Curve construction sweeps thresholds over exactly the distinct detection
scores, plus +infinity for the empty operating point, with no binning.
The sweep is one pass per image followed by one merge.  Each image
walks its detections in tie groups of equal score, best first, and
keeps one map from each kept detection to the IoU of its pair.  After
each group it emits one event: the change in its TP count, FP count and
IoU total.  Each image is matched at most once per own distinct score.
The greedy matcher claims in score order, so one full pass gives the
pairs at every cut as a prefix, and a detection enters the map with its
pair from that pass as it is kept.  The optimal matcher is re-solved at
a tie group only when a detection it keeps has a pair above the
matching IoU threshold: the kept set does not change between own
scores, and a row without such a pair cannot change the optimum.  That
solve covers only the clusters (kept detections and ground truths
linked through such pairs) that a walk from the new detections
reaches, since the optimum of every other cluster stays as it was.
The events are summed by score, and those sums, keyed by every distinct
score in the dataset, are accumulated in descending score order after
the empty point at +infinity; no second scan collects the thresholds.
Work grows with the detections, not with images times distinct scores.
Every curve builder, :func:`proposal_recall` too, takes its images one
at a time through one path, with the dataset's own detections or, through
its ``detections``, a stream such as :func:`~facemetrics.io.read_detections`
that replaces them, in any image order; an error the stream raises comes
before the dataset's own checks.  With a stream, memory grows with the
largest image plus the distinct scores.

True positives are matched detections; everything else kept at the
threshold is a false positive.  The discrete criterion counts each
match as 1; the continuous criterion weights it by its IoU instead, so
the continuous curve is pointwise at or below the discrete one.  A pair
must clear the matching IoU threshold (default 0.5) before its weight
counts at all; that qualification lives in the matchers' one strict
comparison, :func:`~facemetrics.matching._admissible`.

Every operating point equals a from-scratch re-match at its threshold
(``tests/oracles.py`` keeps that re-match as the reference).  An image's
IoU total is the ``math.fsum`` of its matched IoUs, and the dataset total
is the correctly rounded sum of those per-image totals.  The events carry
changes of the rounded per-image totals as exact integers (in the unit
``2**-1074`` of :func:`~facemetrics.matching._exact`, which the optimal
matcher's weights use too), rounded once per threshold, so no total
depends on the order it was summed in.  Score ties are broken by input
index, so shuffling detections with *distinct* scores never changes any
curve.  Of the equal scores ``0.0`` and ``-0.0``, the threshold prints
the one that comes first in the dataset's image order, then in
detection order.

Ellipse ground truths are measured on the fixed polygon of the IoU
layer (:func:`~facemetrics.matching.iou_matrix`), whose vertex count is
part of the protocol, so no curve builder takes one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .geometry import _check_iou_threshold, _is_int, _score_order
from .matching import _EXACT_DENOMINATOR, _admissible, _exact, _linked_rows
from .matching import (
    Detection,
    GroundTruth,
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

# A detection matches a ground truth when their IoU exceeds this.
_MATCH_IOU = 0.5

class XSemantics(str, Enum):
    FP_COUNT = "fp_count"
    FP_PER_IMAGE = "fp_per_image"
    IOU_THRESHOLD = "iou_threshold"


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
        object.__setattr__(
            self,
            "points",
            tuple(p if type(p) is CurvePoint else CurvePoint(*p) for p in self.points),
        )
        # As a point tuple becomes a CurvePoint, a semantics name becomes its member.
        object.__setattr__(self, "x_semantics", XSemantics(self.x_semantics))
        object.__setattr__(self, "y_semantics", YSemantics(self.y_semantics))
        previous = None
        for index, point in enumerate(self.points):
            if not 0.0 <= point.y <= 1.0:
                raise CurvePointError(f"curve y values must be in [0, 1], got {point.y!r}", index)
            # A NaN compares false both ways, so it would slip past the order checks.
            if math.isnan(point.x) or math.isnan(point.threshold):
                raise CurvePointError(f"curve x and threshold must not be NaN, got {point!r}", index)
            if self.x_semantics == XSemantics.IOU_THRESHOLD:
                # The rule _check_recall_grid states for the thresholds themselves.
                if not 0.0 < point.x <= 1.0:
                    raise CurvePointError(f"IoU-threshold x must lie in (0, 1], got {point.x!r}", index)
            elif not 0.0 <= point.x < math.inf:
                raise CurvePointError(
                    f"false-positive x must be finite and non-negative, got {point.x!r}", index
                )
            if previous is not None:
                if point.x < previous.x:
                    raise CurvePointError("curve points must be sorted by ascending x", index)
                if (
                    self.x_semantics in (XSemantics.FP_COUNT, XSemantics.FP_PER_IMAGE)
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
    """Detections and ground truths grouped per image, with their ground-truth count."""

    images: dict[str, ImageEntries]
    total_gt_count: int = field(init=False)

    def __post_init__(self) -> None:
        gt_count = 0
        for image_id, entry in self.images.items():
            _check_filed(image_id, entry)
            gt_count += len(entry.ground_truths)
        object.__setattr__(self, "total_gt_count", gt_count)

    @classmethod
    def from_images(
        cls,
        images: Mapping[str, tuple[Sequence[Detection], Sequence[GroundTruth]]],
    ) -> "EvalDataset":
        return cls(
            {key: ImageEntries(tuple(dets), tuple(gts)) for key, (dets, gts) in images.items()}
        )


def _check_filed(image_id: str, entry: ImageEntries) -> None:
    for det in entry.detections:
        if det.image_id != image_id:
            raise ValueError(f"detection for image {det.image_id!r} filed under {image_id!r}")
    for gt in entry.ground_truths:
        if gt.image_id != image_id:
            raise ValueError(f"ground truth for image {gt.image_id!r} filed under {image_id!r}")


def _check_matcher(matcher: str) -> None:
    if matcher not in MATCHERS:
        raise ValueError(f"matcher must be one of {MATCHERS}, got {matcher!r}")


def _check_dataset(ds: EvalDataset) -> None:
    if not ds.images:
        raise ValueError("dataset has no images")
    if ds.total_gt_count <= 0:
        raise ValueError("dataset has no ground truths; curves would be undefined")


def _check_recall_grid(n_values: Sequence[int], iou_thresholds: Sequence[float]) -> None:
    if not n_values:
        raise ValueError("n_values must not be empty")
    if any(not _is_int(n) or n < 0 for n in n_values):
        raise ValueError(f"n_values must be non-negative ints, got {list(n_values)}")
    if not iou_thresholds:
        raise ValueError("iou_thresholds must not be empty")
    if any(not 0.0 < t <= 1.0 for t in iou_thresholds):
        raise ValueError(f"iou_thresholds must lie in (0, 1], got {list(iou_thresholds)}")
    # Each value names one output (a curve, a point): a repeat would write it twice.
    for name, values in (("n_values", n_values), ("iou_thresholds", iou_thresholds)):
        seen = set()
        for value in values:
            if value in seen:
                raise ValueError(f"{name} must not repeat a value, got {value} more than once")
            seen.add(value)


def _image_events(
    entry: ImageEntries,
    matcher: str,
    iou_threshold: float,
) -> Iterator[tuple[float, int, int, int]]:
    """One image's (score, TP change, FP change, IoU-sum change) per own distinct score.

    The detections are walked in tie groups, best score first, and each
    event carries the score of its group's lowest-index detection.  One
    map holds the kept rows' pairs, row -> IoU: the TP count is its size
    and the IoU total its ``fsum``, which is correctly rounded in any
    order, in exact units (see :func:`~facemetrics.matching._exact`).

    Greedy claims in score order, so the pairs at any cut are the first
    pairs of one full pass, and a kept row enters the map with its pair
    from that pass.  With the optimal matcher, one ``_admissible`` pass
    maps each row to its admissible columns, and a second map, column ->
    rows, grows with the kept rows only.  A tie group whose rows have
    such pairs walks from them over each pair of the clusters they join
    (:func:`~facemetrics.matching._linked_rows`, the walk
    ``optimal_assignment`` splits its components with), then takes one
    ``optimal_assignment`` on only those clusters' rows; the other
    clusters keep their pairs.
    """
    dets, gts = entry
    matrix = iou_matrix(dets, gts)
    scores = [d.score for d in dets]
    by_score = _score_order(scores)
    optimal = matcher == "optimal"
    if optimal:
        # Every row's admissible columns, and each column's kept rows.
        row_columns: dict[int, list[int]] = {}
        for i, j, _ in _admissible(matrix, iou_threshold):
            row_columns.setdefault(i, []).append(j)
        column_rows: dict[int, list[int]] = {}
    else:
        claims = {i: iou for i, _, iou in greedy_assignment(matrix, by_score, iou_threshold)}
    matched: dict[int, float] = {}
    joined: list[int] = []  # optimal: newly kept rows with an admissible pair
    kept = tp = fp = iou_sum = new_sum = 0
    for score, group in groupby(by_score, key=scores.__getitem__):
        for i in group:
            kept += 1
            if optimal:
                if i in row_columns:
                    joined.append(i)
                    for j in row_columns[i]:
                        column_rows.setdefault(j, []).append(i)
            elif i in claims:
                matched[i] = claims[i]
        if joined:
            # Only the clusters that a newly kept row joined can change.
            # Their rows, in ascending index order, keep the row-major
            # ranks of the tie-break.
            rows = _linked_rows(joined, row_columns, column_rows)
            for k in rows:
                matched.pop(k, None)
            for r, _, iou in optimal_assignment([matrix[k] for k in rows], iou_threshold):
                matched[rows[r]] = iou
        new_tp = len(matched)
        if joined or new_tp != tp:
            # Only a solve, or a greedy pair entering the map, changes the
            # map, so any other group keeps the IoU total it was given.
            new_sum = _exact(math.fsum(matched.values()))
            joined.clear()
        yield score, new_tp - tp, kept - new_tp - fp, new_sum - iou_sum
        tp, fp, iou_sum = new_tp, kept - new_tp, new_sum


def _streamed(
    ds: EvalDataset, detections: Iterable[Sequence[Detection]] | None
) -> Iterator[ImageEntries]:
    """Each image's ``detections`` (``None``: those of ``ds``) with its ground truths from ``ds``.

    An image's detections may come once, and only for an image of ``ds``.
    The dataset is checked after the last of them, so an error that
    reading them raises comes first.
    """
    if detections is None:
        detections = (entry.detections for entry in ds.images.values())
    seen = set()
    for dets in detections:
        if not dets:
            continue
        image_id = dets[0].image_id
        if image_id in seen or image_id not in ds.images:
            raise ValueError(
                f"image {image_id!r}: detections must come once, for an image of the dataset"
            )
        seen.add(image_id)
        entry = ImageEntries(tuple(dets), ds.images[image_id].ground_truths)
        _check_filed(image_id, entry)
        yield entry
    _check_dataset(ds)


def _roc_curve(
    ds: EvalDataset,
    matcher: str,
    x_semantics: XSemantics,
    y_semantics: YSemantics,
    iou_threshold: float,
    detections: Iterable[Sequence[Detection]] | None,
) -> Curve:
    _check_matcher(matcher)
    _check_iou_threshold(iou_threshold)
    # Every image emits an event at each of its distinct scores, so the
    # summed changes are keyed by exactly the dataset's distinct scores.
    changes: dict[float, list[int]] = {}
    zeros: dict[str, float] = {}  # image id -> the score of its event at zero
    for entry in _streamed(ds, detections):
        for score, tp, fp, iou_sum in _image_events(entry, matcher, iou_threshold):
            if score == 0.0:
                zeros[entry.detections[0].image_id] = score
            change = changes.setdefault(score, [0, 0, 0])
            change[0] += tp
            change[1] += fp
            change[2] += iou_sum
    # 0.0 and -0.0 are one threshold, named by the first image in the
    # dataset's order that has an event there, whatever order the images
    # were swept in.
    zero = next((zeros[image_id] for image_id in ds.images if image_id in zeros), 0.0)
    n_images = len(ds.images)
    points = [CurvePoint(x=0.0, y=0.0, threshold=math.inf)]  # nothing kept
    tp = fp = iou_sum = 0
    for threshold in sorted(changes, reverse=True):
        change = changes.pop(threshold)  # freed as its point is built
        tp += change[0]
        fp += change[1]
        iou_sum += change[2]
        if y_semantics is YSemantics.TPR_CONTINUOUS:
            # The correctly rounded total of the images' fsum totals.
            y = iou_sum / _EXACT_DENOMINATOR / ds.total_gt_count
        else:
            y = tp / ds.total_gt_count
        x = float(fp)
        if x_semantics is XSemantics.FP_PER_IMAGE:
            x /= n_images
        points.append(CurvePoint(x=x, y=y, threshold=threshold if threshold else zero))
    return Curve(points=tuple(points), x_semantics=x_semantics, y_semantics=y_semantics)


def discrete_roc(
    ds: EvalDataset,
    matcher: str = "greedy",
    *,
    iou_threshold: float = _MATCH_IOU,
    detections: Iterable[Sequence[Detection]] | None = None,
) -> Curve:
    """ROC over total false-positive count; each match counts as 1.

    ``detections``, one image's at a time (each image at most once, in any
    order), replaces those of ``ds``; each image is swept, then dropped.
    """
    return _roc_curve(
        ds, matcher, XSemantics.FP_COUNT, YSemantics.TPR_DISCRETE, iou_threshold, detections
    )


def continuous_roc(
    ds: EvalDataset,
    matcher: str = "greedy",
    *,
    iou_threshold: float = _MATCH_IOU,
    detections: Iterable[Sequence[Detection]] | None = None,
) -> Curve:
    """ROC where each qualifying match contributes its IoU instead of 1.

    ``detections`` is as for :func:`discrete_roc`.
    """
    return _roc_curve(
        ds, matcher, XSemantics.FP_COUNT, YSemantics.TPR_CONTINUOUS, iou_threshold, detections
    )


def normalized_fp_roc(
    ds: EvalDataset,
    matcher: str = "greedy",
    *,
    iou_threshold: float = _MATCH_IOU,
    detections: Iterable[Sequence[Detection]] | None = None,
) -> Curve:
    """Discrete ROC with false positives divided by the image count.

    ``detections`` is as for :func:`discrete_roc`.
    """
    return _roc_curve(
        ds, matcher, XSemantics.FP_PER_IMAGE, YSemantics.TPR_DISCRETE, iou_threshold, detections
    )


def proposal_recall(
    ds: EvalDataset,
    n_values: Sequence[int],
    iou_thresholds: Sequence[float],
    *,
    detections: Iterable[Sequence[Detection]] | None = None,
) -> list[Curve]:
    """Detection rate of the top-N proposals per image, by IoU threshold.

    Returns one curve per entry of ``n_values`` (in the given order);
    each curve's x axis is the IoU threshold.  The denominator is every
    ground truth in the dataset, including those on images without any
    proposal.  ``detections`` replaces the proposals of ``ds`` as for
    :func:`discrete_roc`.

    Each image's top-N proposals are matched once per distinct row count
    that the budgets leave it, greedily by descending IoU, and each pair
    adds one to the running count of every threshold below its IoU.
    Because the candidates above any threshold form a prefix of the
    IoU-sorted candidate list, this equals re-matching at every threshold.
    """
    _check_recall_grid(n_values, iou_thresholds)
    thresholds = sorted(iou_thresholds)
    top = max(n_values)
    matched = [[0] * len(thresholds) for _ in n_values]
    for dets, gts in _streamed(ds, detections):
        top_rows = _score_order([d.score for d in dets])[:top]
        matrix = iou_matrix([dets[i] for i in top_rows], gts)
        # Every budget at or above the image's row count matches the same rows.
        pairs: dict[int, list[tuple[int, int, float]]] = {}
        for counts, n in zip(matched, n_values):
            rows = min(n, len(matrix))
            if rows not in pairs:
                pairs[rows] = greedy_assignment_by_iou(matrix[:rows], 0.0)
            for _, _, iou in pairs[rows]:
                for k, t in enumerate(thresholds):
                    if iou <= t:
                        break
                    counts[k] += 1
    return [
        Curve(
            points=tuple(
                CurvePoint(x=t, y=count / ds.total_gt_count, threshold=t)
                for t, count in zip(thresholds, counts)
            ),
            x_semantics=XSemantics.IOU_THRESHOLD,
            y_semantics=YSemantics.DETECTION_RATE,
        )
        for counts in matched
    ]


def _check_query_x(x: float) -> None:
    if math.isnan(x):
        raise ValueError("query x must not be NaN")


def curve_query(curve: Curve, x: float) -> float:
    """Step interpolation: y of the last point with point-x <= x.

    Below the first point the first y is returned.  With several points
    at the same x, the latest (lowest-threshold) one wins.  A NaN ``x``
    is rejected: it compares false with every point.
    """
    if not curve.points:
        raise ValueError("cannot query an empty curve")
    _check_query_x(x)
    result = curve.points[0].y
    for point in curve.points:
        if point.x <= x:
            result = point.y
        else:
            break
    return result
