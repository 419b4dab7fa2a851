"""One-to-one assignment of detections to ground-truth regions.

:func:`iou_matrix` gives each detection its IoU with every ground truth
of the image.  An ellipse column takes an IoU on every cell.  Box columns
are swept by ``x_min`` and pruned: a disjoint pair is ``0.0`` without an
:func:`iou_rect` call, which is exactly what that call would return.

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
degenerate regions stay unmatched.  Only :func:`_admissible` makes this
test, and it first checks that the threshold lies in ``[0, 1]``: every
matcher, and the ROC sweep, takes its candidates from its row-major
list, and both greedy matchers claim them through :func:`_claim`.

Both matchers are deterministic.  Greedy breaks score ties by input
index and IoU ties by lowest ground-truth index.  Optimal breaks
total-IoU ties toward the lexicographically smallest set of
(detection, ground truth) index pairs.  Ties are resolved in exact
arithmetic, on each IoU as an integer count of ``2**-1074``
(:func:`_exact`, the unit of the continuous ROC totals too), so equal
totals are recognized reliably.  The tie-break is folded into the
integer weights, so each connected cluster of admissible pairs
(detections and ground truths linked through IoUs above the threshold)
takes one Hungarian solve on its own rows and columns, unpadded and
transposed when it has more rows than columns, at ``r**2 * c`` for
``r <= c`` of them; a cluster of one pair takes none.  One walk over
the pairs finds a cluster's rows (``_linked_rows``), here and in the
ROC sweep's re-solves.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, Union

from .geometry import Ellipse, Rect, ellipse_to_polygon, iou_ellipse_rect, iou_rect
from .geometry import _check_iou_threshold, _check_number, _score_order

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
    """A scored rectangular detection on one image.

    The score is a finite ``int`` or ``float``, not a ``bool``, as a ``Rect`` field is.
    """

    region: Rect
    score: float
    image_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.region, Rect):
            raise TypeError(f"Detection region must be a Rect, got {type(self.region).__name__}")
        _check_number(self.score, "Detection score")


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
    by its column, whose every cell goes to :func:`iou_ellipse_rect`;
    nothing is kept between calls.  Rect columns are swept and pruned:
    sorted by ``x_min``, each detection bisects them on its ``x_max``, and
    only the pairs that overlap strictly on both axes go to
    :func:`iou_rect`.  Every other rect cell is ``0.0``, which is what
    ``iou_rect`` returns for it: for finite floats ``min(a1, b1) -
    max(a0, b0) <= 0`` holds exactly when ``min(a1, b1) <= max(a0, b0)``.
    A degenerate (zero-width or zero-height) box overlaps nothing strictly.
    """
    polygons = [
        (j, gt.region, ellipse_to_polygon(gt.region))
        for j, gt in enumerate(gts)
        if dets and isinstance(gt.region, Ellipse)
    ]
    boxes = sorted(
        (box.x_min, box.x_max, box.y_min, box.y_max, j, box)
        for j, gt in enumerate(gts)
        if isinstance(box := gt.region, Rect) and box.x_min < box.x_max and box.y_min < box.y_max
    )
    x_mins = [box[0] for box in boxes]
    matrix = []
    for det in dets:
        rect = det.region
        row = [0.0] * len(gts)
        for j, ellipse, polygon in polygons:
            row[j] = iou_ellipse_rect(ellipse, rect, polygon=polygon)
        ax0, ax1, ay0, ay1 = rect.x_min, rect.x_max, rect.y_min, rect.y_max
        if ax0 < ax1 and ay0 < ay1:
            for _, bx1, by0, by1, j, box in boxes[: bisect_left(x_mins, ax1)]:
                if bx1 > ax0 and by0 < ay1 and by1 > ay0:
                    row[j] = iou_rect(rect, box)
        matrix.append(row)
    return matrix


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


# An admissible pair: (row, col, IoU).
_Candidate = tuple[int, int, float]


def _admissible(matrix: Sequence[Sequence[float]], iou_threshold: float) -> list[_Candidate]:
    """Every ``(row, col, IoU)`` whose IoU is strictly above the threshold, row-major.

    The threshold must lie in ``[0, 1]``.
    """
    _check_iou_threshold(iou_threshold)
    return [
        (i, j, value)
        for i, row in enumerate(matrix)
        for j, value in enumerate(row)
        if value > iou_threshold
    ]


def _claim(candidates: Iterable[_Candidate]) -> list[_Candidate]:
    """Each candidate, in the given order, whose row and column are both still free."""
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    pairs = []
    for i, j, value in candidates:
        if i not in used_rows and j not in used_cols:
            used_rows.add(i)
            used_cols.add(j)
            pairs.append((i, j, value))
    return pairs


def greedy_assignment(
    matrix: Sequence[Sequence[float]],
    priority: Sequence[int],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Row-driven greedy matching on an IoU matrix.

    Rows are visited in ``priority`` order, distinct rows of the matrix;
    each claims its unclaimed admissible column of maximal IoU (ties:
    lowest column index).  Rows not in ``priority`` claim nothing.
    """
    rank = {i: r for r, i in enumerate(priority)}
    if len(rank) < len(priority) or not all(0 <= i < len(matrix) for i in rank):
        raise ValueError(f"priority must list distinct rows of a {len(matrix)}-row matrix")
    candidates = [pair for pair in _admissible(matrix, iou_threshold) if pair[0] in rank]
    # Stable: equal IoUs of one row keep their column order.
    candidates.sort(key=lambda pair: (rank[pair[0]], -pair[2]))
    return _claim(candidates)


def greedy_assignment_by_iou(
    matrix: Sequence[Sequence[float]],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Pair-driven greedy matching: highest IoU first, one-to-one.

    Ties are broken by (row index, column index): candidates are listed
    row-major and a reverse sort is stable.  Used for proposal recall,
    where no score ordering is wanted.
    """
    return _claim(sorted(_admissible(matrix, iou_threshold), key=itemgetter(2), reverse=True))


# Every finite float is an integer multiple of 2**-1074, so IoUs kept as
# integers over this denominator, and any sums of them, are exact.
_EXACT_DENOMINATOR = 1 << 1074


def _exact(value: float) -> int:
    """``value`` as an exact integer count of the unit ``2**-1074``."""
    numerator, denominator = value.as_integer_ratio()
    return numerator * (_EXACT_DENOMINATOR // denominator)


def _solve(cost: list[list[int]]) -> list[int]:
    """Minimum-cost assignment of every row of an ``n x m`` matrix, ``n <= m`` (Hungarian).

    Shortest-augmenting-path formulation with potentials (Kuhn 1955;
    Jonker & Volgenant 1987), in ``O(n**2 * m)``; all arithmetic stays in
    exact integers, of any width.  Each augmentation's first scan, from
    the virtual column 0, reaches every column, so the slacks start from
    that scan instead of from an infinite float.  Returns the assigned
    column per row.
    """
    n, m = len(cost), len(cost[0])
    u = [0] * (n + 1)
    v = [0] * (m + 1)
    p = [0] * (m + 1)  # p[j]: 1-based row matched to column j, 0 = free
    for i in range(1, n + 1):
        p[0] = i
        row = cost[i - 1]
        minv = [0] + [row[j - 1] - u[i] - v[j] for j in range(1, m + 1)]
        way = [0] * (m + 1)
        used = [True] + [False] * m
        while True:
            delta, j0 = min((minv[j], j) for j in range(1, m + 1) if not used[j])
            for j in range(m + 1):
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
            for j in range(1, m + 1):
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
    for j in range(1, m + 1):
        if p[j]:
            columns[p[j] - 1] = j - 1
    return columns


def _linked_rows(
    rows: list[int], row_columns: dict[int, list[int]], column_rows: dict[int, list[int]]
) -> list[int]:
    """``rows`` and every row linked to them through admissible pairs, ascending.

    ``row_columns`` maps each row to its admissible columns, and
    ``column_rows`` maps each column to the rows the walk may reach
    through it.  A stack walk from ``rows`` visits each column it reaches
    once, so it costs O(pairs of the clusters it reaches).
    """
    touched = set(rows)
    stack = list(touched)
    seen: set[int] = set()
    while stack:
        for j in row_columns[stack.pop()]:
            if j not in seen:
                seen.add(j)
                reached = [k for k in column_rows[j] if k not in touched]
                touched.update(reached)
                stack.extend(reached)
    return sorted(touched)


def _component_optimum(pairs: Sequence[_Candidate]) -> list[_Candidate]:
    """The one-to-one subset of ``pairs`` that the tie-broken weights favour.

    ``pairs`` are one component's candidates, in row-major order.  The
    pair of rank ``r`` among ``n`` gets weight ``(w << n) + (1 << (n - 1 - r))``,
    where ``w`` is its IoU in exact units (:func:`_exact`).
    Any set's bonuses sum to less than ``2**n``, so the total weight decides
    first; among equal totals, the set holding the smallest pair of the
    symmetric difference wins.  Distinct sets thus have distinct scores, and
    the unique optimum is the lexicographically smallest maximum-total set.
    The cost spans the component's own rows and columns, unpadded, and is
    transposed when the rows outnumber the columns; the ranks stay row-major.
    """
    rows = sorted({i for i, _, _ in pairs})
    cols = sorted({j for _, j, _ in pairs})
    # A pair's cost row and column: its row and column, or the reverse.
    a, b = (0, 1) if len(rows) <= len(cols) else (1, 0)
    lines = {x: k for k, x in enumerate((rows, cols)[a])}
    slots = {x: k for k, x in enumerate((rows, cols)[b])}
    n = len(pairs)
    # Cells outside ``pairs`` cost 0, the same as leaving the line unmatched.
    cost = [[0] * len(slots) for _ in lines]
    for rank, pair in enumerate(pairs):
        cost[lines[pair[a]]][slots[pair[b]]] = -((_exact(pair[2]) << n) + (1 << (n - 1 - rank)))
    assigned = _solve(cost)
    return [pair for pair in pairs if assigned[lines[pair[a]]] == slots[pair[b]]]


def optimal_assignment(
    matrix: Sequence[Sequence[float]],
    iou_threshold: float,
) -> list[tuple[int, int, float]]:
    """Assignment maximizing total IoU over admissible pairs.

    Among equal-total assignments, returns the lexicographically
    smallest set of (row, col) pairs, sorted.  Totals are compared in
    exact integer units of ``2**-1074`` (:func:`_exact`).  The admissible
    pairs split into connected components that share no row or column
    (:func:`_linked_rows`), each listed row-major; each component with
    two or more pairs takes one Hungarian solve on weights that fold the
    tie-break in (:func:`_component_optimum`).  The tie-break holds per
    component: with positive weights no optimum is a prefix of another,
    so the lexicographic order of two optima is settled by the smallest
    pair in their symmetric difference.
    """
    row_columns: dict[int, list[int]] = {}
    column_rows: dict[int, list[int]] = {}
    for i, j, _ in _admissible(matrix, iou_threshold):
        row_columns.setdefault(i, []).append(j)
        column_rows.setdefault(j, []).append(i)
    chosen = []
    while row_columns:
        # The lowest row not yet in a component, and the rows linked to it.
        rows = _linked_rows([next(iter(row_columns))], row_columns, column_rows)
        component = [(k, j, matrix[k][j]) for k in rows for j in row_columns.pop(k)]
        chosen.extend(_component_optimum(component) if len(component) > 1 else component)
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
