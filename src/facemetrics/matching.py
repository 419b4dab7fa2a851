"""One-to-one assignment of detections to ground-truth regions.

Two matchers are provided.  ``match_greedy`` visits detections in
descending score order and lets each claim the best still-unclaimed
ground truth; it is cheap, order-stable, and the default everywhere.
``match_optimal`` maximizes the total IoU over all admissible pairs via
an exact assignment solve; it is the better choice when detections
overlap several ground truths and greedy order would steal the wrong
one.

A pair is admissible when its IoU is strictly greater than the
threshold.  The strict comparison is applied uniformly at every
threshold (a detection at IoU exactly 0.5 does not match at the 0.5
operating point), and it also means zero-IoU pairs never match, so
degenerate regions stay unmatched.

Both matchers are deterministic.  Greedy breaks score ties by input
index and IoU ties by lowest ground-truth index.  Optimal breaks
total-IoU ties toward the lexicographically smallest set of
(detection, ground truth) index pairs.  Ties are resolved in exact
arithmetic, on each IoU as an integer count of ``2**-1074``
(:func:`_exact`, the unit of the continuous ROC totals too), so equal
totals are recognized reliably.  The tie-break is folded into the
integer weights, so each connected cluster of admissible pairs
(detections and ground truths linked through IoUs above the threshold)
takes one Hungarian solve, cubic in the cluster's size; a cluster of
one pair takes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Sequence, Union

from .geometry import Ellipse, Rect, ellipse_to_polygon, iou_ellipse_rect, iou_rect
from .geometry import _check_iou_threshold, _score_order

__all__ = [
    "Detection",
    "GroundTruth",
    "MatchPair",
    "MatchOutcome",
    "region_iou",
    "iou_matrix",
    "match_greedy",
    "match_optimal",
    "greedy_assignment",
    "greedy_assignment_by_iou",
    "optimal_assignment",
]

Region = Union[Rect, Ellipse]


@dataclass(frozen=True, slots=True)
class Detection:
    """A scored rectangular detection on one image."""

    region: Rect
    score: float
    image_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.region, Rect):
            raise TypeError(f"Detection region must be a Rect, got {type(self.region).__name__}")
        if not math.isfinite(self.score):
            raise ValueError(f"Detection score must be finite, got {self.score!r}")


@dataclass(frozen=True, slots=True)
class GroundTruth:
    """An annotated face region (rectangle or ellipse) on one image."""

    region: Region
    image_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.region, (Rect, Ellipse)):
            raise TypeError(
                f"GroundTruth region must be a Rect or Ellipse, got {type(self.region).__name__}"
            )


class MatchPair(NamedTuple):
    detection: int
    ground_truth: int
    iou: float


@dataclass(frozen=True, slots=True)
class MatchOutcome:
    """One-to-one pairing result; indices refer to the matcher's inputs."""

    pairs: tuple[MatchPair, ...]
    unmatched_detections: frozenset[int]
    unmatched_ground_truths: frozenset[int]

    def __post_init__(self) -> None:
        dets = [p.detection for p in self.pairs]
        gts = [p.ground_truth for p in self.pairs]
        if len(set(dets)) != len(dets):
            raise ValueError("a detection index appears in more than one pair")
        if len(set(gts)) != len(gts):
            raise ValueError("a ground-truth index appears in more than one pair")
        if set(dets) & self.unmatched_detections:
            raise ValueError("a detection index is both paired and unmatched")
        if set(gts) & self.unmatched_ground_truths:
            raise ValueError("a ground-truth index is both paired and unmatched")
        for pair in self.pairs:
            if not 0.0 <= pair.iou <= 1.0:
                raise ValueError(f"pair IoU out of range: {pair.iou!r}")

    @property
    def total_iou(self) -> float:
        return math.fsum(p.iou for p in self.pairs)


def region_iou(detection_region: Rect, gt_region: Region) -> float:
    """IoU between a detection rectangle and a rect or ellipse ground truth.

    An ellipse's polygon is built on every call; :func:`iou_matrix` builds
    it once per ground truth.
    """
    if isinstance(gt_region, Ellipse):
        return iou_ellipse_rect(gt_region, detection_region)
    return iou_rect(detection_region, gt_region)


def iou_matrix(dets: Sequence[Detection], gts: Sequence[GroundTruth]) -> list[list[float]]:
    """Dense detection-by-ground-truth IoU matrix.

    Each ellipse ground truth's polygon is built once per call and shared
    by its column; nothing is kept between calls.  Rect ground truths go
    straight to :func:`iou_rect`.
    """
    polygons = [
        ellipse_to_polygon(gt.region) if dets and isinstance(gt.region, Ellipse) else None
        for gt in gts
    ]
    return [
        [
            iou_rect(det.region, gt.region)
            if polygon is None
            else iou_ellipse_rect(gt.region, det.region, polygon=polygon)
            for gt, polygon in zip(gts, polygons)
        ]
        for det in dets
    ]


def _check_single_image(dets: Sequence[Detection], gts: Sequence[GroundTruth]) -> None:
    ids = {d.image_id for d in dets} | {g.image_id for g in gts}
    if len(ids) > 1:
        raise ValueError(f"matching requires a single image, got image_ids {sorted(ids)}")


def _outcome(pairs: Sequence[tuple[int, int, float]], n_dets: int, n_gts: int) -> MatchOutcome:
    ordered = tuple(MatchPair(*p) for p in sorted(pairs))
    matched_dets = {p.detection for p in ordered}
    matched_gts = {p.ground_truth for p in ordered}
    return MatchOutcome(
        pairs=ordered,
        unmatched_detections=frozenset(i for i in range(n_dets) if i not in matched_dets),
        unmatched_ground_truths=frozenset(j for j in range(n_gts) if j not in matched_gts),
    )


def greedy_assignment(
    matrix: Sequence[Sequence[float]],
    priority: Sequence[int],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Row-driven greedy matching on an IoU matrix.

    Rows are visited in ``priority`` order; each claims the unclaimed
    column of maximal IoU (ties: lowest column index) when that IoU
    exceeds the threshold.
    """
    claimed: set[int] = set()
    pairs = []
    n_cols = len(matrix[0]) if matrix else 0
    for i in priority:
        row = matrix[i]
        best_j = -1
        best_iou = 0.0
        for j in range(n_cols):
            if j not in claimed and row[j] > best_iou:
                best_j = j
                best_iou = row[j]
        if best_j >= 0 and best_iou > iou_threshold:
            claimed.add(best_j)
            pairs.append((i, best_j, best_iou))
    return pairs


def greedy_assignment_by_iou(
    matrix: Sequence[Sequence[float]],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Pair-driven greedy matching: highest IoU first, one-to-one.

    Ties are broken by (row index, column index): candidates are listed
    row-major and a reverse sort is stable.  Used for proposal recall,
    where no score ordering is wanted.
    """
    candidates = [
        (i, j, value)
        for i, row in enumerate(matrix)
        for j, value in enumerate(row)
        if value > iou_threshold
    ]
    candidates.sort(key=itemgetter(2), reverse=True)
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    pairs = []
    for i, j, value in candidates:
        if i in used_rows or j in used_cols:
            continue
        used_rows.add(i)
        used_cols.add(j)
        pairs.append((i, j, value))
    return pairs


# Every finite float is an integer multiple of 2**-1074, so IoUs kept as
# integers over this denominator, and any sums of them, are exact.
_EXACT_DENOMINATOR = 1 << 1074


def _exact(value: float) -> int:
    """``value`` as an exact integer count of the unit ``2**-1074``."""
    numerator, denominator = value.as_integer_ratio()
    return numerator * (_EXACT_DENOMINATOR // denominator)


def _solve_square(cost: list[list[int]]) -> list[int]:
    """Minimum-cost perfect assignment on a square matrix (Hungarian).

    Shortest-augmenting-path formulation with potentials (Kuhn 1955;
    Jonker & Volgenant 1987); all arithmetic stays in exact integers, of
    any width.  Each augmentation's first scan, from the virtual column 0,
    reaches every column, so the slacks start from that scan instead of
    from an infinite float.  Returns the assigned column per row.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: 1-based row matched to column j, 0 = free
    for i in range(1, n + 1):
        p[0] = i
        row = cost[i - 1]
        minv = [0] + [row[j - 1] - u[i] - v[j] for j in range(1, n + 1)]
        way = [0] * (n + 1)
        used = [True] + [False] * n
        while True:
            delta, j0 = min((minv[j], j) for j in range(1, n + 1) if not used[j])
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            if p[j0] == 0:
                break
            used[j0] = True
            i0 = p[j0]
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    columns = [0] * n
    for j in range(1, n + 1):
        if p[j]:
            columns[p[j] - 1] = j - 1
    return columns


# An admissible pair: (row, col, IoU, IoU as an exact integer weight).
_Candidate = tuple[int, int, float, int]


def _components(pairs: Sequence[_Candidate], n_rows: int) -> list[list[_Candidate]]:
    """Pairs grouped by connected component of the row/column graph they form.

    Components keep the input order of their pairs.
    """
    root = list(range(n_rows + 1 + max(j for _, j, _, _ in pairs)))

    def find(node: int) -> int:
        while root[node] != node:
            root[node] = root[root[node]]
            node = root[node]
        return node

    for i, j, _, _ in pairs:
        root[find(i)] = find(n_rows + j)
    groups: dict[int, list[_Candidate]] = {}
    for pair in pairs:
        groups.setdefault(find(pair[0]), []).append(pair)
    return list(groups.values())


def _component_optimum(pairs: Sequence[_Candidate]) -> list[_Candidate]:
    """The one-to-one subset of ``pairs`` that the tie-broken weights favour.

    ``pairs`` are one component's candidates, in row-major order.  The
    pair of rank ``r`` among ``n`` gets weight ``(w << n) + (1 << (n - 1 - r))``.
    Any set's bonuses sum to less than ``2**n``, so the total weight decides
    first; among equal totals, the set holding the smallest pair of the
    symmetric difference wins.  Distinct sets thus have distinct scores, and
    the unique optimum is the lexicographically smallest maximum-total set.
    """
    rows = sorted({i for i, _, _, _ in pairs})
    cols = sorted({j for _, j, _, _ in pairs})
    row_index = {r: k for k, r in enumerate(rows)}
    col_index = {c: k for k, c in enumerate(cols)}
    n = len(pairs)
    size = max(len(rows), len(cols))
    # Cells outside ``pairs`` cost 0, the same as leaving the row unmatched.
    cost = [[0] * size for _ in range(size)]
    for rank, (i, j, _, w) in enumerate(pairs):
        cost[row_index[i]][col_index[j]] = -((w << n) + (1 << (n - 1 - rank)))
    assigned = _solve_square(cost)
    return [pair for pair in pairs if assigned[row_index[pair[0]]] == col_index[pair[1]]]


def optimal_assignment(
    matrix: Sequence[Sequence[float]],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Assignment maximizing total IoU over admissible pairs.

    Among equal-total assignments, returns the lexicographically
    smallest set of (row, col) pairs, sorted.  Totals are compared in
    exact integer units of ``2**-1074`` (:func:`_exact`).  The admissible
    pairs split into connected components that share no row or column;
    each component with two or more pairs takes one Hungarian solve on
    weights that fold the tie-break in (:func:`_component_optimum`).  The
    tie-break holds per component: with positive weights no optimum is a
    prefix of another, so the lexicographic order of two optima is
    settled by the smallest pair in their symmetric difference.
    """
    candidates = [
        (i, j, value, _exact(value))
        for i, row in enumerate(matrix)
        for j, value in enumerate(row)
        if value > iou_threshold
    ]
    if not candidates:
        return []
    chosen = []
    for component in _components(candidates, len(matrix)):
        if len(component) > 1:
            component = _component_optimum(component)
        chosen.extend((i, j, value) for i, j, value, _ in component)
    chosen.sort()
    return chosen


def match_greedy(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_threshold: float,
) -> MatchOutcome:
    """Greedy score-ordered matching of detections to ground truths.

    All inputs must share one image id.  The result depends only on the
    score ordering, not on score magnitudes.
    """
    _check_iou_threshold(iou_threshold)
    _check_single_image(dets, gts)
    matrix = iou_matrix(dets, gts)
    pairs = greedy_assignment(matrix, _score_order([d.score for d in dets]), iou_threshold)
    return _outcome(pairs, len(dets), len(gts))


def match_optimal(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruth],
    iou_threshold: float,
) -> MatchOutcome:
    """Total-IoU-maximizing matching of detections to ground truths."""
    _check_iou_threshold(iou_threshold)
    _check_single_image(dets, gts)
    matrix = iou_matrix(dets, gts)
    pairs = optimal_assignment(matrix, iou_threshold)
    return _outcome(pairs, len(dets), len(gts))
