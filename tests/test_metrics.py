import math
import random
from collections import Counter

import pytest

import facemetrics.metrics
from facemetrics.geometry import Rect
from facemetrics.matching import Detection, GroundTruth, iou_matrix
from facemetrics.metrics import (
    Curve,
    CurvePoint,
    CurvePointError,
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

import oracles


def _det(x0, y0, x1, y1, score, image="img"):
    return Detection(region=Rect(x0, y0, x1, y1), score=score, image_id=image)


def _gt(x0, y0, x1, y1, image="img"):
    return GroundTruth(region=Rect(x0, y0, x1, y1), image_id=image)


def _single_image_dataset():
    """Two ground truths, three detections with IoUs 0.8 / 0.3 / 0.6."""
    dets = [
        _det(0, 0, 10, 8, 0.9),
        _det(100, 0, 110, 3, 0.8),
        _det(100, 0, 110, 6, 0.7),
    ]
    gts = [_gt(0, 0, 10, 10), _gt(100, 0, 110, 10)]
    return EvalDataset.from_images({"img": (dets, gts)})


def test_dataset_rejects_misfiled_entries():
    with pytest.raises(ValueError):
        EvalDataset.from_images({"a": ([_det(0, 0, 1, 1, 0.5, "b")], [])})
    with pytest.raises(ValueError):
        EvalDataset.from_images({"a": ([], [_gt(0, 0, 1, 1, "b")])})


def test_dataset_names_a_misfiled_image_id():
    for images, message in (
        ({"a": ([_det(0, 0, 1, 1, 0.5, "a"), _det(0, 0, 1, 1, 0.5, "b")], [])},
         "detection for image 'b' filed under 'a'"),
        ({"a": ([], [_gt(0, 0, 1, 1, "a")]), "b": ([], [_gt(0, 0, 1, 1, "a")])},
         "ground truth for image 'a' filed under 'b'"),
    ):
        with pytest.raises(ValueError) as excinfo:
            EvalDataset.from_images(images)
        assert str(excinfo.value) == message


def test_dataset_counts_its_ground_truths():
    gts = (_gt(0, 0, 1, 1, "a"), _gt(2, 2, 3, 3, "a"))
    images = {"a": ImageEntries((), gts), "b": ImageEntries((), ())}
    assert EvalDataset(images=images).total_gt_count == 2
    with pytest.raises(TypeError):
        EvalDataset(images={}, total_gt_count=0)


def test_roc_requires_images_and_ground_truths():
    with pytest.raises(ValueError):
        discrete_roc(EvalDataset(images={}))
    empty_gts = EvalDataset.from_images({"img": ([_det(0, 0, 1, 1, 0.5)], [])})
    with pytest.raises(ValueError):
        discrete_roc(empty_gts)
    with pytest.raises(ValueError):
        discrete_roc(_single_image_dataset(), "perfect")


def test_every_curve_names_a_dataset_without_images_or_ground_truths():
    builders = (
        discrete_roc,
        continuous_roc,
        normalized_fp_roc,
        lambda ds: proposal_recall(ds, [1], [0.5]),
    )
    no_gts = "dataset has no ground truths; curves would be undefined"
    for ds, message in (
        (EvalDataset(images={}), "dataset has no images"),
        (EvalDataset.from_images({"img": ([], [])}), no_gts),
        (EvalDataset.from_images({"img": ([_det(0, 0, 1, 1, 0.5)], [])}), no_gts),
    ):
        for build in builders:
            with pytest.raises(ValueError) as excinfo:
                build(ds)
            assert str(excinfo.value) == message


def test_discrete_roc_worked_example():
    curve = discrete_roc(_single_image_dataset())
    assert curve.x_semantics is XSemantics.FP_COUNT
    assert curve.y_semantics is YSemantics.TPR_DISCRETE
    assert curve.points == (
        CurvePoint(0.0, 0.0, math.inf),
        CurvePoint(0.0, 0.5, 0.9),
        CurvePoint(1.0, 0.5, 0.8),
        CurvePoint(1.0, 1.0, 0.7),
    )


def test_continuous_roc_worked_example():
    curve = continuous_roc(_single_image_dataset())
    assert curve.y_semantics is YSemantics.TPR_CONTINUOUS
    assert [p.y for p in curve.points] == [0.0, 0.4, 0.4, 0.7]
    assert [p.x for p in curve.points] == [0.0, 0.0, 1.0, 1.0]


def test_continuous_never_exceeds_discrete():
    rng = random.Random(31)
    for _ in range(20):
        ds = oracles.random_mini_dataset(rng)
        discrete = discrete_roc(ds)
        continuous = continuous_roc(ds)
        for d, c in zip(discrete.points, continuous.points):
            assert c.y <= d.y
            assert c.x == d.x
            assert c.threshold == d.threshold


def test_normalized_roc_divides_by_image_count():
    dets = [_det(0, 0, 10, 8, 0.9, "a"), _det(50, 50, 60, 60, 0.7, "a")]
    gts = [_gt(0, 0, 10, 10, "a")]
    ds = EvalDataset.from_images(
        {"a": (dets, gts), "b": ([], [_gt(0, 0, 5, 5, "b")]), "c": ([], [])}
    )
    discrete = discrete_roc(ds)
    normalized = normalized_fp_roc(ds)
    assert normalized.x_semantics is XSemantics.FP_PER_IMAGE
    assert [p.x for p in normalized.points] == [p.x / 3 for p in discrete.points]
    assert [p.y for p in normalized.points] == [p.y for p in discrete.points]


def test_duplicate_scores_share_an_operating_point():
    dets = [_det(0, 0, 10, 8, 0.9), _det(100, 0, 110, 9, 0.9)]
    gts = [_gt(0, 0, 10, 10), _gt(100, 0, 110, 10)]
    ds = EvalDataset.from_images({"img": (dets, gts)})
    curve = discrete_roc(ds)
    # inf and one shared score: both detections enter together.
    assert len(curve.points) == 2
    assert curve.points[1] == CurvePoint(0.0, 1.0, 0.9)


def test_gts_on_detectionless_images_stay_in_the_denominator():
    ds = EvalDataset.from_images(
        {
            "a": ([_det(0, 0, 10, 8, 0.9, "a")], [_gt(0, 0, 10, 10, "a")]),
            "b": ([], [_gt(0, 0, 10, 10, "b")]),
        }
    )
    curve = discrete_roc(ds)
    assert curve.points[-1].y == 0.5


def test_curve_validation():
    kwargs = dict(x_semantics=XSemantics.FP_COUNT, y_semantics=YSemantics.TPR_DISCRETE)
    with pytest.raises(ValueError):
        Curve(points=(CurvePoint(1.0, 0.0, 0.9), CurvePoint(0.0, 0.0, 0.8)), **kwargs)
    with pytest.raises(ValueError):
        Curve(points=(CurvePoint(0.0, 1.5, 0.9),), **kwargs)
    # Thresholds may not rise across an x increase on an ROC axis.
    with pytest.raises(ValueError):
        Curve(points=(CurvePoint(0.0, 0.5, 0.5), CurvePoint(1.0, 0.5, 0.9)), **kwargs)
    # NaN x or threshold values compare false both ways and would slip past those checks.
    for bad in (CurvePoint(math.nan, 0.5, 0.5), CurvePoint(0.0, 0.5, math.nan)):
        with pytest.raises(CurvePointError, match="NaN") as excinfo:
            Curve(points=(CurvePoint(0.0, 0.0, math.inf), bad, CurvePoint(1.0, 0.6, 2.0)), **kwargs)
        assert excinfo.value.index == 1
    # A false-positive x is a finite, non-negative count or rate.
    for bad_x in (math.inf, -3.0):
        for x_semantics in (XSemantics.FP_COUNT, XSemantics.FP_PER_IMAGE):
            with pytest.raises(CurvePointError, match="finite and non-negative") as excinfo:
                Curve(
                    points=(CurvePoint(0.0, 0.0, math.inf), CurvePoint(bad_x, 0.5, 0.9)),
                    x_semantics=x_semantics,
                    y_semantics=YSemantics.TPR_DISCRETE,
                )
            assert excinfo.value.index == 1
    # An IoU-threshold x lies in (0, 1], as the recall grid's thresholds do.
    for bad_x in (-0.5, 0.0, 2.0, math.inf):
        with pytest.raises(CurvePointError, match="IoU-threshold x") as excinfo:
            Curve(
                points=(CurvePoint(bad_x, 0.5, bad_x),),
                x_semantics=XSemantics.IOU_THRESHOLD,
                y_semantics=YSemantics.DETECTION_RATE,
            )
        assert excinfo.value.index == 0
    # Recall curves index x by IoU threshold, which does rise.
    Curve(
        points=(CurvePoint(0.5, 1.0, 0.5), CurvePoint(0.9, 0.5, 0.9)),
        x_semantics=XSemantics.IOU_THRESHOLD,
        y_semantics=YSemantics.DETECTION_RATE,
    )


def test_roc_builders_reject_iou_thresholds_outside_unit_interval():
    ds = _single_image_dataset()
    for iou_threshold in (math.nan, -0.1, 1.5):
        for build in (discrete_roc, continuous_roc, normalized_fp_roc):
            with pytest.raises(ValueError, match="iou_threshold"):
                build(ds, iou_threshold=iou_threshold)


def test_optimal_matcher_matches_at_least_as_many():
    rng = random.Random(47)
    for _ in range(20):
        ds = oracles.random_mini_dataset(rng)
        greedy = discrete_roc(ds, "greedy")
        optimal = discrete_roc(ds, "optimal")
        for g, o in zip(greedy.points, optimal.points):
            assert o.y >= g.y


def _hex_points(curve):
    return [(p.x.hex(), p.y.hex(), p.threshold.hex()) for p in curve.points]


def _rematch_oracle_datasets():
    """40 larger mini datasets at seed 2016, then 25 default-size ones at seed 101."""
    rng = random.Random(2016)
    for _ in range(40):
        yield oracles.random_mini_dataset(rng, max_images=6, max_total_dets=20)
    rng = random.Random(101)
    for _ in range(25):
        yield oracles.random_mini_dataset(rng)


def test_roc_equals_rematch_oracle_bit_for_bit():
    seen = Counter()
    for ds in _rematch_oracle_datasets():
        total = ds.total_gt_count
        n_images = len(ds.images)
        per_image_scores = [[d.score for d in e.detections] for e in ds.images.values()]
        all_scores = [s for scores in per_image_scores for s in scores]
        seen["tie within an image"] += any(len(set(s)) < len(s) for s in per_image_scores)
        seen["tie across images"] += len(set(all_scores)) < sum(
            len(set(s)) for s in per_image_scores
        )
        seen["image without detections"] += any(not e.detections for e in ds.images.values())
        seen["image without ground truths"] += any(
            not e.ground_truths for e in ds.images.values()
        )
        for matcher in ("greedy", "optimal"):
            for iou_threshold in (0.0, 0.3, 0.5):
                thresholds, tallies = oracles.roc_rematch_tallies(ds, matcher, iou_threshold)
                kwargs = dict(iou_threshold=iou_threshold)
                assert _hex_points(discrete_roc(ds, matcher, **kwargs)) == [
                    (float(fp).hex(), (tp / total).hex(), t.hex())
                    for t, (tp, fp, _) in zip(thresholds, tallies)
                ]
                assert _hex_points(continuous_roc(ds, matcher, **kwargs)) == [
                    (float(fp).hex(), (iou_sum / total).hex(), t.hex())
                    for t, (_, fp, iou_sum) in zip(thresholds, tallies)
                ]
                assert _hex_points(normalized_fp_roc(ds, matcher, **kwargs)) == [
                    ((fp / n_images).hex(), (tp / total).hex(), t.hex())
                    for t, (tp, fp, _) in zip(thresholds, tallies)
                ]
    # Every edge case the sweep must handle came up at least a few times.
    assert min(seen.values()) >= 5, seen
    assert len(seen) == 4


def _count_calls(monkeypatch, name):
    calls = []
    wrapped = getattr(facemetrics.metrics, name)

    def counting(matrix, *args):
        calls.append(matrix)
        return wrapped(matrix, *args)

    monkeypatch.setattr(facemetrics.metrics, name, counting)
    return calls


def test_roc_matches_each_image_once_per_own_score(monkeypatch):
    greedy_calls = _count_calls(monkeypatch, "greedy_assignment")
    optimal_calls = _count_calls(monkeypatch, "optimal_assignment")
    rng = random.Random(5)
    skipped = 0
    for _ in range(20):
        ds = oracles.random_mini_dataset(rng, max_images=6, max_total_dets=20)
        entries = ds.images.values()
        greedy_calls.clear()
        discrete_roc(ds, "greedy")
        assert len(greedy_calls) == sum(1 for e in entries if e.detections)
        greedy_calls.clear()
        optimal_calls.clear()
        discrete_roc(ds, "optimal")
        # One solve per own distinct score that newly keeps a detection
        # with a pair above the default IoU threshold of 0.5.
        useful_scores = sum(
            len(
                {
                    det.score
                    for det, row in zip(e.detections, iou_matrix(e.detections, e.ground_truths))
                    if any(iou > 0.5 for iou in row)
                }
            )
            for e in entries
        )
        assert len(optimal_calls) == useful_scores
        assert not greedy_calls
        skipped += sum(len({d.score for d in e.detections}) for e in entries) - useful_scores
    # Scores whose detections have no admissible pair came up, and were skipped.
    assert skipped >= 10


def test_proposal_recall_worked_example():
    dets = [
        _det(0, 0, 10, 9, 0.9),  # IoU 0.9 with the first ground truth
        _det(20, 0, 30, 5, 0.8),  # IoU 0.5 with the second
        _det(0, 0, 10, 5, 0.7),  # IoU 0.5 with the first
    ]
    gts = [_gt(0, 0, 10, 10), _gt(20, 0, 30, 10)]
    ds = EvalDataset.from_images({"img": (dets, gts)})
    one, three = proposal_recall(ds, [1, 3], [0.4, 0.6, 0.89])
    assert one.x_semantics is XSemantics.IOU_THRESHOLD
    assert one.y_semantics is YSemantics.DETECTION_RATE
    assert one.points == (
        CurvePoint(0.4, 0.5, 0.4),
        CurvePoint(0.6, 0.5, 0.6),
        CurvePoint(0.89, 0.5, 0.89),
    )
    assert three.points == (
        CurvePoint(0.4, 1.0, 0.4),
        CurvePoint(0.6, 0.5, 0.6),
        CurvePoint(0.89, 0.5, 0.89),
    )


def test_proposal_recall_budget_zero_matches_nothing():
    ds = _single_image_dataset()
    zero, full = proposal_recall(ds, [0, 3], [0.5])
    assert zero.points[0].y == 0.0
    assert full.points[0].y == 1.0


def test_proposal_recall_perfect_proposals():
    gts = [_gt(0, 0, 10, 10), _gt(20, 0, 30, 10)]
    dets = [
        _det(0, 0, 10, 10, 0.6),
        _det(20, 0, 30, 10, 0.4),
    ]
    ds = EvalDataset.from_images({"img": (dets, gts)})
    curves = proposal_recall(ds, [2], [0.5, 0.75, 0.99, 1.0])
    assert [p.y for p in curves[0].points] == [1.0, 1.0, 1.0, 0.0]


def test_proposal_recall_validation():
    ds = _single_image_dataset()
    with pytest.raises(ValueError):
        proposal_recall(ds, [], [0.5])
    with pytest.raises(ValueError):
        proposal_recall(ds, [-1], [0.5])
    with pytest.raises(ValueError):
        proposal_recall(ds, [5], [0.0])
    with pytest.raises(ValueError):
        proposal_recall(ds, [5], [1.1])


def test_proposal_recall_rejects_an_empty_budget_list():
    for n_values in ([], ()):
        with pytest.raises(ValueError, match=r"^n_values must not be empty$"):
            proposal_recall(_single_image_dataset(), n_values, [0.5])


def test_proposal_recall_rejects_an_empty_iou_grid():
    with pytest.raises(ValueError, match="iou_thresholds must not be empty"):
        proposal_recall(_single_image_dataset(), [5], [])


def test_proposal_recall_rejects_a_repeated_budget_or_threshold():
    ds = _single_image_dataset()
    with pytest.raises(ValueError, match=r"^n_values must not repeat a value, got 5 more than once"):
        proposal_recall(ds, [5, 1, 5], [0.5])
    with pytest.raises(
        ValueError, match=r"^iou_thresholds must not repeat a value, got 0\.5 more than once$"
    ):
        proposal_recall(ds, [5], [0.5, 0.7, 0.5])


def test_proposal_recall_is_monotone():
    rng = random.Random(3)
    thresholds = [i / 20 for i in range(10, 20)]
    for _ in range(20):
        ds = oracles.random_mini_dataset(rng, max_images=3, max_total_dets=8)
        curves = proposal_recall(ds, [1, 2, 4, 8], thresholds)
        for curve in curves:
            ys = [p.y for p in curve.points]
            assert all(a >= b for a, b in zip(ys, ys[1:]))
        for narrow, wide in zip(curves, curves[1:]):
            for n_point, w_point in zip(narrow.points, wide.points):
                assert w_point.y >= n_point.y


def test_curve_query_step_semantics():
    curve = Curve(
        points=(
            CurvePoint(0.0, 0.0, math.inf),
            CurvePoint(2.0, 0.4, 0.8),
            CurvePoint(2.0, 0.6, 0.7),
            CurvePoint(5.0, 0.9, 0.3),
        ),
        x_semantics=XSemantics.FP_COUNT,
        y_semantics=YSemantics.TPR_DISCRETE,
    )
    assert curve_query(curve, -1.0) == 0.0  # before the first point
    assert curve_query(curve, 0.0) == 0.0
    assert curve_query(curve, 1.9) == 0.0
    assert curve_query(curve, 2.0) == 0.6  # the later duplicate-x point wins
    assert curve_query(curve, 3.0) == 0.6
    assert curve_query(curve, 100.0) == 0.9
    assert curve_query(curve, math.inf) == 0.9


def test_curve_query_rejects_empty():
    empty = Curve(
        points=(), x_semantics=XSemantics.FP_COUNT, y_semantics=YSemantics.TPR_DISCRETE
    )
    with pytest.raises(ValueError):
        curve_query(empty, 1.0)


def test_curve_query_names_an_empty_curve():
    for x_semantics in XSemantics:
        empty = Curve(points=(), x_semantics=x_semantics, y_semantics=YSemantics.TPR_DISCRETE)
        with pytest.raises(ValueError, match=r"^cannot query an empty curve$"):
            curve_query(empty, 0.5)
