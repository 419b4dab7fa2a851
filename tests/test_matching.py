import math
import random

import pytest

import facemetrics.matching
from facemetrics.geometry import Ellipse, Rect, iou_ellipse_rect, iou_rect
from facemetrics.matching import (
    Detection,
    GroundTruth,
    MatchOutcome,
    MatchPair,
    greedy_assignment,
    greedy_assignment_by_iou,
    iou_matrix,
    match_greedy,
    match_optimal,
    optimal_assignment,
    region_iou,
)

import oracles


def _det(x0, y0, x1, y1, score, image="img"):
    return Detection(region=Rect(x0, y0, x1, y1), score=score, image_id=image)


def _gt(x0, y0, x1, y1, image="img"):
    return GroundTruth(region=Rect(x0, y0, x1, y1), image_id=image)


def test_detection_validation():
    with pytest.raises(TypeError):
        Detection(region=(0, 0, 1, 1), score=0.5, image_id="img")
    with pytest.raises(TypeError):
        Detection(
            region=Ellipse(center_x=0, center_y=0, semi_major=2, semi_minor=1, angle=0),
            score=0.5,
            image_id="img",
        )
    with pytest.raises(ValueError):
        _det(0, 0, 1, 1, math.nan)


def test_ground_truth_accepts_both_region_kinds():
    GroundTruth(region=Rect(0, 0, 1, 1), image_id="img")
    GroundTruth(
        region=Ellipse(center_x=0, center_y=0, semi_major=2, semi_minor=1, angle=0),
        image_id="img",
    )
    with pytest.raises(TypeError):
        GroundTruth(region="box", image_id="img")


def test_region_iou_dispatch():
    det_region = Rect(0.0, 0.0, 10.0, 10.0)
    assert region_iou(det_region, Rect(0.0, 0.0, 10.0, 5.0)) == 0.5
    circle = Ellipse(center_x=5.0, center_y=5.0, semi_major=5.0, semi_minor=5.0, angle=0.0)
    assert region_iou(det_region, circle) == iou_ellipse_rect(circle, det_region)


def test_iou_matrix_layout():
    dets = [_det(0, 0, 10, 10, 0.9), _det(100, 0, 110, 10, 0.8)]
    gts = [_gt(0, 0, 10, 5), _gt(100, 0, 110, 10), _gt(200, 0, 210, 10)]
    matrix = iou_matrix(dets, gts)
    assert matrix == [[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]]


def test_match_rejects_bad_threshold_and_mixed_images():
    with pytest.raises(ValueError):
        match_greedy([], [], 1.5)
    with pytest.raises(ValueError):
        match_greedy([_det(0, 0, 1, 1, 0.5, "a")], [_gt(0, 0, 1, 1, "b")], 0.5)
    with pytest.raises(ValueError):
        match_optimal([_det(0, 0, 1, 1, 0.5, "a")], [_gt(0, 0, 1, 1, "b")], 0.5)


def test_match_greedy_empty_inputs():
    outcome = match_greedy([], [], 0.5)
    assert outcome.pairs == ()
    assert outcome.unmatched_detections == frozenset()
    assert outcome.unmatched_ground_truths == frozenset()
    outcome = match_greedy([], [_gt(0, 0, 1, 1)], 0.5)
    assert outcome.unmatched_ground_truths == {0}


def test_match_greedy_basic():
    dets = [_det(0, 0, 10, 8, 0.9), _det(100, 0, 110, 3, 0.8), _det(100, 0, 110, 6, 0.7)]
    gts = [_gt(0, 0, 10, 10), _gt(100, 0, 110, 10)]
    outcome = match_greedy(dets, gts, 0.5)
    assert outcome.pairs == (MatchPair(0, 0, 0.8), MatchPair(2, 1, 0.6))
    assert outcome.unmatched_detections == {1}
    assert outcome.unmatched_ground_truths == frozenset()
    assert outcome.total_iou == math.fsum([0.8, 0.6])


def test_match_greedy_score_priority():
    # Both detections overlap the single ground truth; the higher score
    # claims it even though it appears later in the input.
    dets = [_det(0, 0, 10, 6, 0.2), _det(0, 0, 10, 8, 0.9)]
    gts = [_gt(0, 0, 10, 10)]
    outcome = match_greedy(dets, gts, 0.5)
    assert outcome.pairs == (MatchPair(1, 0, 0.8),)
    assert outcome.unmatched_detections == {0}


def test_match_greedy_score_tie_uses_input_order():
    dets = [_det(0, 0, 10, 6, 0.9), _det(0, 0, 10, 8, 0.9)]
    gts = [_gt(0, 0, 10, 10)]
    outcome = match_greedy(dets, gts, 0.5)
    assert outcome.pairs == (MatchPair(0, 0, 0.6),)


def test_match_greedy_iou_tie_takes_lowest_gt_index():
    # The detection straddles two congruent ground truths symmetrically,
    # so both IoU values are the same float.
    dets = [_det(-1.0, 0.0, 3.0, 2.0, 0.9)]
    gts = [_gt(-2.0, 0.0, 2.0, 2.0), _gt(0.0, 0.0, 4.0, 2.0)]
    matrix = iou_matrix(dets, gts)
    assert matrix[0][0] == matrix[0][1] > 0.5
    outcome = match_greedy(dets, gts, 0.5)
    assert outcome.pairs == (MatchPair(0, 0, matrix[0][0]),)


def test_match_threshold_is_strict():
    dets = [_det(0, 0, 10, 5, 0.9)]
    gts = [_gt(0, 0, 10, 10)]
    assert iou_matrix(dets, gts) == [[0.5]]
    for matcher in (match_greedy, match_optimal):
        outcome = matcher(dets, gts, 0.5)
        assert outcome.pairs == ()
        assert outcome.unmatched_detections == {0}
        assert outcome.unmatched_ground_truths == {0}
        assert matcher(dets, gts, 0.49).pairs != ()


def test_zero_iou_never_matches_even_at_zero_threshold():
    dets = [_det(0, 0, 1, 1, 0.9)]
    gts = [_gt(5, 5, 6, 6)]
    assert match_greedy(dets, gts, 0.0).pairs == ()
    assert match_optimal(dets, gts, 0.0).pairs == ()


@pytest.mark.parametrize(
    "assign",
    [
        lambda matrix, threshold: greedy_assignment(matrix, range(len(matrix)), threshold),
        greedy_assignment_by_iou,
        optimal_assignment,
    ],
    ids=["greedy_assignment", "greedy_assignment_by_iou", "optimal_assignment"],
)
def test_public_matchers_check_their_threshold(assign):
    # Below 0 a disjoint cell would be admitted, and at NaN no cell would.
    for threshold in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"^iou_threshold must be in \[0, 1\], got "):
            assign([[0.0]], threshold)
    assert sorted(assign([[0.0, 0.5], [1.0, 0.25]], 0.0)) == [(0, 1, 0.5), (1, 0, 1.0)]
    assert assign([[1.0]], 1.0) == []
    assert assign([], 0.5) == []


def test_match_optimal_beats_greedy_when_order_steals():
    # The high-score detection overlaps both ground truths and greedy
    # hands it the better one, stranding the second detection, which
    # only overlaps the stolen ground truth meaningfully.
    dets = [_det(3.0, 0.0, 13.0, 10.0, 0.9), _det(1.0, 0.0, 11.0, 10.0, 0.8)]
    gts = [_gt(0.0, 0.0, 10.0, 10.0), _gt(10.0, 0.0, 20.0, 10.0)]
    greedy = match_greedy(dets, gts, 0.1)
    optimal = match_optimal(dets, gts, 0.1)
    assert [p[:2] for p in greedy.pairs] == [(0, 0)]
    assert {p[:2] for p in optimal.pairs} == {(0, 1), (1, 0)}
    assert optimal.total_iou > greedy.total_iou


def test_match_optimal_lexicographic_tie_break():
    # Two identical detections and two identical ground truths: every
    # perfect pairing has the same total, so the index-lexicographic
    # smallest one must be returned.
    dets = [_det(0, 0, 10, 8, 0.9), _det(0, 0, 10, 8, 0.8)]
    gts = [_gt(0, 0, 10, 10), _gt(0, 0, 10, 10)]
    outcome = match_optimal(dets, gts, 0.5)
    assert [p[:2] for p in outcome.pairs] == [(0, 0), (1, 1)]


def test_match_outcome_validation():
    with pytest.raises(ValueError):
        MatchOutcome(
            pairs=(MatchPair(0, 0, 0.9), MatchPair(0, 1, 0.8)),
            unmatched_detections=frozenset(),
            unmatched_ground_truths=frozenset(),
        )
    with pytest.raises(ValueError):
        MatchOutcome(
            pairs=(MatchPair(0, 0, 0.9),),
            unmatched_detections=frozenset({0}),
            unmatched_ground_truths=frozenset(),
        )
    with pytest.raises(ValueError):
        MatchOutcome(
            pairs=(MatchPair(0, 0, 1.5),),
            unmatched_detections=frozenset(),
            unmatched_ground_truths=frozenset(),
        )


def test_match_outcome_rejects_reused_ground_truths():
    with pytest.raises(ValueError, match="ground-truth index appears in more than one pair"):
        MatchOutcome(
            pairs=(MatchPair(0, 0, 0.9), MatchPair(1, 0, 0.8)),
            unmatched_detections=frozenset(),
            unmatched_ground_truths=frozenset(),
        )
    with pytest.raises(ValueError, match="ground-truth index is both paired and unmatched"):
        MatchOutcome(
            pairs=(MatchPair(0, 0, 0.9),),
            unmatched_detections=frozenset(),
            unmatched_ground_truths=frozenset({0}),
        )


def test_match_outcome_names_each_broken_invariant():
    cases = [
        ([(0, 0, 0.9), (0, 1, 0.8)], [], [], "a detection index appears in more than one pair"),
        ([(0, 0, 0.9), (1, 0, 0.8)], [], [], "a ground-truth index appears in more than one pair"),
        ([(0, 0, 0.9)], [0], [], "a detection index is both paired and unmatched"),
        ([(0, 0, 0.9)], [], [0], "a ground-truth index is both paired and unmatched"),
        ([(0, 0, -0.25)], [], [], "pair IoU out of range: -0.25"),
        ([(0, 0, math.nan)], [], [], "pair IoU out of range: nan"),
    ]
    for pairs, dets, gts, message in cases:
        with pytest.raises(ValueError) as excinfo:
            MatchOutcome(tuple(MatchPair(*p) for p in pairs), frozenset(dets), frozenset(gts))
        assert str(excinfo.value) == message
    # total_iou is the correctly rounded sum, where a plain sum gives 0.9999999999999999.
    tenths = MatchOutcome(
        tuple(MatchPair(i, i, 0.1) for i in range(10)), frozenset({10}), frozenset()
    )
    assert tenths.total_iou == 1.0
    assert MatchOutcome((), frozenset({0}), frozenset({0})).total_iou == 0.0


def test_detections_and_ground_truths_name_what_is_wrong():
    ellipse = Ellipse(center_x=0, center_y=0, semi_major=2, semi_minor=1, angle=0)
    cases = [
        (lambda: Detection(region=(0, 0, 1, 1), score=0.5, image_id="img"), TypeError,
         "Detection region must be a Rect, got tuple"),
        (lambda: Detection(region=ellipse, score=0.5, image_id="img"), TypeError,
         "Detection region must be a Rect, got Ellipse"),
        (lambda: _det(0, 0, 1, 1, math.nan), ValueError, "Detection score must be finite, got nan"),
        (lambda: _det(0, 0, 1, 1, -math.inf), ValueError,
         "Detection score must be finite, got -inf"),
        (lambda: GroundTruth(region="box", image_id="img"), TypeError,
         "GroundTruth region must be a Rect or Ellipse, got str"),
        (lambda: GroundTruth(region=None, image_id="img"), TypeError,
         "GroundTruth region must be a Rect or Ellipse, got NoneType"),
    ]
    for build, error, message in cases:
        with pytest.raises(error) as excinfo:
            build()
        assert str(excinfo.value) == message


def test_matchers_name_the_image_ids_they_were_given():
    for match in (match_greedy, match_optimal):
        for dets, gts in (
            ([_det(0, 0, 1, 1, 0.5, "b")], [_gt(0, 0, 1, 1, "a")]),
            ([_det(0, 0, 1, 1, 0.5, "b"), _det(0, 0, 1, 1, 0.5, "a")], []),
            ([], [_gt(0, 0, 1, 1, "a"), _gt(0, 0, 1, 1, "b")]),
        ):
            with pytest.raises(ValueError) as excinfo:
                match(dets, gts, 0.5)
            assert str(excinfo.value) == (
                "matching requires a single image, got image_ids ['a', 'b']"
            )


def test_greedy_assignment_priority_order_matters():
    matrix = [[0.9, 0.8], [0.85, 0.0]]
    # Row 0 first: it takes column 0 and row 1 is left with nothing.
    assert greedy_assignment(matrix, [0, 1], 0.5) == [(0, 0, 0.9)]
    # Row 1 first: both rows match.
    assert greedy_assignment(matrix, [1, 0], 0.5) == [(1, 0, 0.85), (0, 1, 0.8)]


def test_greedy_assignment_by_iou_prefers_global_best():
    matrix = [[0.9, 0.8], [0.85, 0.0]]
    assert greedy_assignment_by_iou(matrix, 0.5) == [(0, 0, 0.9)]
    matrix = [[0.6, 0.8], [0.85, 0.0]]
    assert greedy_assignment_by_iou(matrix, 0.5) == [(1, 0, 0.85), (0, 1, 0.8)]


def test_greedy_assignment_by_iou_tie_order():
    matrix = [[0.7, 0.7], [0.7, 0.7]]
    assert greedy_assignment_by_iou(matrix, 0.0) == [(0, 0, 0.7), (1, 1, 0.7)]


def _tie_heavy_matrices():
    """2000 (matrix, threshold): NaN-free, tie-heavy IoUs on both sides of the strict threshold."""
    values = [0.0, 5e-324, 0.25, 0.5, math.nextafter(0.5, 1.0), 0.75, 1.0]
    rng = random.Random(12)
    for _ in range(2000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        matrix = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
        yield matrix, rng.choice([0.0, 0.5])


def test_greedy_assignment_by_iou_matches_the_explicit_iou_then_index_key():
    for matrix, threshold in _tie_heavy_matrices():
        candidates = sorted(
            (
                (i, j, value)
                for i, row in enumerate(matrix)
                for j, value in enumerate(row)
                if value > threshold
            ),
            key=lambda c: (-c[2], c[0], c[1]),
        )
        expected, used_rows, used_cols = [], set(), set()
        for i, j, value in candidates:
            if i not in used_rows and j not in used_cols:
                used_rows.add(i)
                used_cols.add(j)
                expected.append((i, j, value))
        assert greedy_assignment_by_iou(matrix, threshold) == expected


def test_greedy_assignment_matches_its_oracle_on_random_priorities():
    rng = random.Random(30)
    seen = {"column tie": 0, "steal": 0, "subset": 0}
    for matrix, threshold in _tie_heavy_matrices():
        rows = range(len(matrix))
        # A permutation of every row, or of a random subset of them.
        priority = rng.sample(rows, rng.choice([len(rows), rng.randint(0, len(rows))]))
        expected = oracles.reference_greedy_pairs(matrix, priority, threshold)
        assert greedy_assignment(matrix, priority, threshold) == expected
        seen["subset"] += len(priority) < len(matrix)
        claimed = set()
        for i in priority:
            admissible = [j for j, value in enumerate(matrix[i]) if value > threshold]
            if not admissible:
                continue
            # An earlier row took this row's best column (the first of its maximal IoU).
            seen["steal"] += max(admissible, key=matrix[i].__getitem__) in claimed
            free = [matrix[i][j] for j in admissible if j not in claimed]
            seen["column tie"] += free.count(max(free, default=None)) > 1
            claimed.update(j for k, j, _ in expected if k == i)
    assert all(seen.values()), seen


def test_greedy_assignment_rejects_a_repeated_or_foreign_priority_row():
    # A repeated row once claimed a second column; a foreign one raised IndexError.
    for priority in ([0, 0], [1], [-1], [0, 2]):
        with pytest.raises(ValueError, match=r"^priority must list distinct rows of a 1-row matrix$"):
            greedy_assignment([[0.9, 0.8]], priority, 0.5)
    assert greedy_assignment([[0.9, 0.8]], [0], 0.5) == [(0, 0, 0.9)]
    assert greedy_assignment([], [], 0.5) == []


def test_optimal_assignment_empty_and_inadmissible():
    assert optimal_assignment([], 0.5) == []
    assert optimal_assignment([[0.2, 0.3], [0.1, 0.0]], 0.5) == []


def test_optimal_assignment_matrix_cases():
    # Greedy-trap matrix: the diagonal is tempting but the off-diagonal
    # pairing wins in total.
    matrix = [[0.6, 0.55], [0.55, 0.0]]
    assert optimal_assignment(matrix, 0.0) == [(0, 1, 0.55), (1, 0, 0.55)]
    # Rectangular: more rows than columns.
    matrix = [[0.4], [0.9], [0.5]]
    assert optimal_assignment(matrix, 0.0) == [(1, 0, 0.9)]


def test_match_optimal_agrees_with_exhaustive_search():
    rng = random.Random(99)
    for _ in range(100):
        dets, gts = oracles.random_match_instance(rng)
        threshold = rng.choice([0.0, 0.3, 0.5])
        outcome = match_optimal(dets, gts, threshold)
        matrix = iou_matrix(dets, gts)
        best_pairs, best_total, scaled = oracles.exhaustive_best_assignment(matrix, threshold)
        assert tuple(p[:2] for p in outcome.pairs) == best_pairs
        assert sum(scaled[i][j] for i, j, _ in outcome.pairs) == best_total


def test_greedy_total_never_beats_optimal():
    rng = random.Random(7)
    for _ in range(100):
        dets, gts = oracles.random_match_instance(rng)
        threshold = rng.choice([0.0, 0.3, 0.5])
        greedy = match_greedy(dets, gts, threshold)
        matrix = iou_matrix(dets, gts)
        _, best_total, scaled = oracles.exhaustive_best_assignment(matrix, threshold)
        greedy_total = sum(scaled[p.detection][p.ground_truth] for p in greedy.pairs)
        assert greedy_total <= best_total


def test_matchers_accept_ellipse_ground_truths():
    circle = Ellipse(center_x=5.0, center_y=5.0, semi_major=5.0, semi_minor=5.0, angle=0.0)
    dets = [_det(0, 0, 10, 10, 0.9)]
    gts = [GroundTruth(region=circle, image_id="img")]
    outcome = match_greedy(dets, gts, 0.5)
    assert outcome.pairs[0].iou == pytest.approx(math.pi / 4.0, abs=1e-4)
    assert match_optimal(dets, gts, 0.5).pairs == outcome.pairs


def _clustered_matrix(rng):
    """Up to 8x10 quantized IoUs in several clusters that share no row or column."""
    n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 10)
    n_clusters = rng.randint(1, 4)
    row_cluster = [rng.randrange(n_clusters) for _ in range(n_rows)]
    col_cluster = [rng.randrange(n_clusters) for _ in range(n_cols)]
    # Sparse clusters of few distinct values, so that exact ties are common.
    values = [0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.75]
    return [
        [rng.choice(values) if row_cluster[i] == col_cluster[j] else 0.0 for j in range(n_cols)]
        for i in range(n_rows)
    ]


def _optimal_sets(matrix, iou_threshold):
    """How many admissible assignments reach the maximum total, and their sizes.

    Dynamic programming over claimed-column masks, keeping per mask the best
    exact total and how many pair sets reach it.
    """
    scaled, _ = oracles.scale_rows_to_ints(matrix)
    layer = {0: (0, 1)}
    for i, row in enumerate(matrix):
        out = dict(layer)
        for mask, (total, count) in layer.items():
            for j, value in enumerate(row):
                if mask & (1 << j) or not value > iou_threshold:
                    continue
                key = mask | (1 << j)
                candidate = total + scaled[i][j]
                best, ways = out.get(key, (-1, 0))
                if candidate > best:
                    out[key] = (candidate, count)
                elif candidate == best:
                    out[key] = (best, ways + count)
        layer = out
    best_total = max(total for total, _ in layer.values())
    optima = [(mask, count) for mask, (total, count) in layer.items() if total == best_total]
    return sum(count for _, count in optima), {bin(mask).count("1") for mask, _ in optima}


def _admissible_components(matrix, iou_threshold):
    """Admissible pairs grouped into connected components (shared row or column)."""
    unseen = {
        (i, j) for i, row in enumerate(matrix) for j, value in enumerate(row) if value > iou_threshold
    }
    components = []
    while unseen:
        stack, component = [unseen.pop()], []
        while stack:
            i, j = stack.pop()
            component.append((i, j))
            linked = {e for e in unseen if e[0] == i or e[1] == j}
            unseen -= linked
            stack.extend(linked)
        components.append(component)
    return components


def test_optimal_assignment_matches_exhaustive_on_tied_clusters():
    rng = random.Random(2024)
    tied = sizes_tied = split = 0
    for _ in range(400):
        matrix = _clustered_matrix(rng)
        for threshold in (0.0, 0.3, 0.5):
            pairs = optimal_assignment(matrix, threshold)
            best_pairs, best_total, scaled = oracles.exhaustive_best_assignment(matrix, threshold)
            assert tuple((i, j) for i, j, _ in pairs) == best_pairs
            assert all(value == matrix[i][j] for i, j, value in pairs)
            assert sum(scaled[i][j] for i, j, _ in pairs) == best_total
            n_optima, sizes = _optimal_sets(matrix, threshold)
            tied += n_optima >= 2
            sizes_tied += threshold == 0.0 and len(sizes) >= 2
            split += len(_admissible_components(matrix, threshold)) >= 2
    # The tie-break and the split into components were exercised.
    assert tied >= 100 and sizes_tied >= 5 and split >= 100, (tied, sizes_tied, split)


def _tall_or_wide_matrix(rng):
    """A tied matrix of many rows and at most 3 columns, or the reverse.

    Shapes include 40x1, 40x3, 1x12 and 3x12.  Most cells are admissible
    and the values come from three levels, so one cluster usually spans
    the whole matrix and its optimum is tied many ways.
    """
    shapes = [(40, 1), (40, 3), (12, 1), (12, 3), (rng.randint(4, 40), rng.randint(1, 3))]
    n_long, n_short = rng.choice(shapes)
    values = [0.0, 0.25, 0.5, 0.5, 0.75, 0.75]
    matrix = [[rng.choice(values) for _ in range(n_short)] for _ in range(n_long)]
    return matrix if rng.random() < 0.5 else [list(column) for column in zip(*matrix)]


def test_optimal_assignment_matches_exhaustive_on_tall_and_wide_clusters():
    rng = random.Random(1955)
    tall = wide = tied = 0
    for _ in range(120):
        matrix = _tall_or_wide_matrix(rng)
        for threshold in (0.0, 0.3, 0.5):
            pairs = optimal_assignment(matrix, threshold)
            best_pairs, best_total, scaled = oracles.exhaustive_best_assignment(matrix, threshold)
            assert tuple((i, j) for i, j, _ in pairs) == best_pairs
            assert all(value == matrix[i][j] for i, j, value in pairs)
            assert sum(scaled[i][j] for i, j, _ in pairs) == best_total
            for component in _admissible_components(matrix, threshold):
                n_rows = len({i for i, _ in component})
                n_cols = len({j for _, j in component})
                tall += n_rows >= 4 * n_cols
                wide += n_cols >= 4 * n_rows
            tied += _optimal_sets(matrix, threshold)[0] >= 2
    # Clusters far taller than wide, and far wider than tall, came up, with ties.
    assert tall >= 100 and wide >= 100 and tied >= 200, (tall, wide, tied)


def test_optimal_assignment_large_tied_component():
    # 1,600 admissible pairs of equal IoU: every perfect pairing ties, and
    # the tie-break weights are 1,600 bits wider than the IoU weights.
    n = 40
    matrix = [[0.5] * n for _ in range(n)]
    assert optimal_assignment(matrix, 0.0) == [(i, i, 0.5) for i in range(n)]


def test_optimal_assignment_solves_each_component_once(monkeypatch):
    solved = []
    solve = facemetrics.matching._solve

    def counting(cost):
        solved.append(len(cost))
        return solve(cost)

    monkeypatch.setattr(facemetrics.matching, "_solve", counting)
    rng = random.Random(11)
    for _ in range(200):
        matrix = _clustered_matrix(rng)
        for threshold in (0.0, 0.3, 0.5):
            solved.clear()
            optimal_assignment(matrix, threshold)
            components = _admissible_components(matrix, threshold)
            assert len(solved) <= sum(1 for c in components if len(c) >= 2)
