import dataclasses
import math
import random
from collections import Counter

import pytest

import facemetrics.matching
import facemetrics.metrics
from facemetrics.geometry import Ellipse, Rect
from facemetrics.matching import Detection, GroundTruth, match_optimal
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


def test_curve_keeps_the_points_it_is_given():
    given = CurvePoint(0.0, 0.0, math.inf)
    curve = Curve(
        points=(given, (1.0, 0.5, 0.9)),
        x_semantics=XSemantics.FP_COUNT,
        y_semantics=YSemantics.TPR_DISCRETE,
    )
    assert curve.points[0] is given
    assert type(curve.points[1]) is CurvePoint and curve.points[1] == (1.0, 0.5, 0.9)


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


def _assert_equals_rematch_oracle(ds, matcher, iou_threshold):
    """All three curves equal, in ``float.hex``, the from-scratch re-match tallies."""
    total = ds.total_gt_count
    n_images = len(ds.images)
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
                _assert_equals_rematch_oracle(ds, matcher, iou_threshold)
    # Every edge case the sweep must handle came up at least a few times.
    assert min(seen.values()) >= 5, seen
    assert len(seen) == 4


def _with_signed_zeros(ds, rng):
    """``ds`` with a seeded share of its scores set to ``0.0`` or ``-0.0``."""
    images = {}
    for image_id, (dets, gts) in ds.images.items():
        dets = [
            dataclasses.replace(d, score=rng.choice((0.0, -0.0))) if rng.random() < 0.3 else d
            for d in dets
        ]
        images[image_id] = (dets, gts)
    return EvalDataset.from_images(images)


def test_streamed_detections_give_the_dataset_curve_in_any_image_order():
    # repr tells 0.0 from -0.0, which compare equal.
    rng = random.Random(27)
    for ds in _rematch_oracle_datasets():
        ds = _with_signed_zeros(ds, rng)
        ground_truths = EvalDataset.from_images(
            {image_id: ((), gts) for image_id, (_, gts) in ds.images.items()}
        )
        order = rng.sample(list(ds.images), len(ds.images))
        for build in (discrete_roc, continuous_roc, normalized_fp_roc):
            for matcher in ("greedy", "optimal"):
                detections = (ds.images[image_id].detections for image_id in order)
                streamed = build(ground_truths, matcher, detections=detections)
                assert repr(streamed) == repr(build(ds, matcher)), (build, matcher)


def test_a_streamed_signed_zero_tie_takes_the_sign_of_the_first_image_in_dataset_order():
    dets = {"a": (_det(0, 0, 1, 1, 0.0, "a"),), "b": (_det(0, 0, 1, 1, -0.0, "b"),)}
    for first, sign in (("a", 1.0), ("b", -1.0)):
        ds = EvalDataset.from_images(
            {image_id: ((), (_gt(0, 0, 1, 1, image_id),)) for image_id in (first, *"ab")}
        )
        for order in ("ab", "ba"):
            curve = discrete_roc(ds, detections=(dets[image_id] for image_id in order))
            assert math.copysign(1.0, curve.points[-1].threshold) == sign, (first, order)


def test_streamed_detections_name_a_repeated_absent_or_misfiled_image():
    ds = EvalDataset.from_images({"a": ((), (_gt(0, 0, 1, 1, "a"),))})
    a = (_det(0, 0, 1, 1, 0.5, "a"),)
    z = (_det(0, 0, 1, 1, 0.5, "z"),)
    for detections, message in (
        ([a, (), a], "image 'a': detections must come once, for an image of the dataset"),
        ([z], "image 'z': detections must come once, for an image of the dataset"),
        ([a + z], "detection for image 'z' filed under 'a'"),
    ):
        with pytest.raises(ValueError) as excinfo:
            discrete_roc(ds, detections=detections)
        assert str(excinfo.value) == message
    # The dataset is checked after the detections, so their own error comes first.
    def failing():
        yield ()
        raise ValueError("bad detections")

    for empty in (EvalDataset(images={}), EvalDataset.from_images({"a": ((), ())})):
        with pytest.raises(ValueError, match="^bad detections$"):
            discrete_roc(empty, detections=failing())
    with pytest.raises(ValueError, match="^dataset has no images$"):
        discrete_roc(EvalDataset(images={}), detections=iter(()))


def test_streamed_proposals_give_the_dataset_recall_in_any_image_order():
    # Both the recall and the ROC builders take their images through one path:
    # shuffled blocks, with empty ones among them, give the dataset's own curves.
    rng = random.Random(28)
    n_values, grid = [0, 1, 2, 5], [0.1, 0.5, 0.75, 0.9]
    seen = Counter()
    for ds in _rematch_oracle_datasets():
        ds = _with_signed_zeros(ds, rng)
        entries = ds.images.values()
        scores = [d.score for e in entries for d in e.detections]
        seen["score tie"] += len(set(scores)) < len(scores)
        seen["0.0 and -0.0"] += len({math.copysign(1.0, s) for s in scores if s == 0.0}) == 2
        seen["image without detections"] += any(not e.detections for e in entries)
        seen["image without ground truths"] += any(not e.ground_truths for e in entries)
        kinds = {type(g.region) for e in entries for g in e.ground_truths}
        seen["rect and ellipse ground truths"] += kinds == {Rect, Ellipse}
        ground_truths = EvalDataset.from_images(
            {image_id: ((), gts) for image_id, (_, gts) in ds.images.items()}
        )
        blocks = [e.detections for e in entries] + [()] * rng.randint(1, 3)
        rng.shuffle(blocks)
        streamed = proposal_recall(ground_truths, n_values, grid, detections=iter(blocks))
        assert streamed == proposal_recall(ds, n_values, grid)
        # repr tells 0.0 from -0.0, which compare equal.
        streamed = discrete_roc(ground_truths, detections=iter(blocks))
        assert repr(streamed) == repr(discrete_roc(ds))
    assert len(seen) == 5 and min(seen.values()) >= 5, seen


def test_streamed_proposals_name_a_repeated_or_absent_image():
    ds = EvalDataset.from_images({"a": ((), (_gt(0, 0, 1, 1, "a"),))})
    a = (_det(0, 0, 1, 1, 0.5, "a"),)
    for detections, image_id in (([a, (), a], "a"), ([(_det(0, 0, 1, 1, 0.5, "z"),)], "z")):
        with pytest.raises(ValueError) as excinfo:
            proposal_recall(ds, [1], [0.5], detections=detections)
        message = f"image {image_id!r}: detections must come once, for an image of the dataset"
        assert str(excinfo.value) == message


def test_a_bad_argument_is_reported_before_an_empty_dataset():
    # The dataset is checked once its images have been swept, so every
    # argument rule comes first.
    empty = EvalDataset(images={})
    for build, message in (
        (lambda: discrete_roc(empty, "perfect"), "matcher must be one of"),
        (lambda: continuous_roc(empty, iou_threshold=1.5), "iou_threshold must be in"),
        (lambda: proposal_recall(empty, [], [0.5]), "n_values must not be empty"),
        (lambda: proposal_recall(empty, [1], [0.0]), "iou_thresholds must lie in"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            build()


def _crowd_dataset(rng):
    """Rows of overlapping box faces, as in crowd-optimal, with few distinct scores.

    Row neighbours sit half a face apart (IoU about 0.33), so a detection
    halfway between two of them clears IoU 0.5 with both and chains their
    clusters; the others sit on one face or stray.  Scores come from a
    pool of four, so a tie group often keeps several rows at once.
    """
    scores = [round(rng.random(), 2) for _ in range(4)]
    images = {}
    for idx in range(rng.randint(1, 3)):
        image_id = f"crowd/{idx}"
        faces = []
        for k in range(rng.randint(2, 7)):
            size = rng.uniform(46.0, 50.0)
            x0 = (k % 4) * 24.0 + rng.uniform(-1.0, 1.0)
            y0 = (k // 4) * 70.0 + rng.uniform(-2.0, 2.0)
            faces.append((x0, y0, x0 + size, y0 + size))
        dets = []
        for _ in range(rng.randint(0, 9)):
            k = rng.randrange(len(faces))
            roll = rng.random()
            if roll < 0.45 and k + 1 < len(faces) and (k + 1) % 4:
                box = [0.5 * (u + v) for u, v in zip(faces[k], faces[k + 1])]
            elif roll < 0.9:
                box = list(faces[k])
            else:
                box = [300.0, 300.0, 320.0, 320.0]
            dx, dy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            region = Rect(box[0] + dx, box[1] + dy, box[2] + dx, box[3] + dy)
            dets.append(Detection(region=region, score=rng.choice(scores), image_id=image_id))
        gts = [GroundTruth(region=Rect(*face), image_id=image_id) for face in faces]
        images[image_id] = (dets, gts)
    return EvalDataset.from_images(images)


def _row_clusters(matrix, rows, iou_threshold):
    """``rows`` grouped into the connected clusters of their pairs above the threshold."""
    groups = []  # pairwise column-disjoint (rows, columns)
    for i in rows:
        merged_rows, merged_cols = {i}, {j for j, iou in enumerate(matrix[i]) if iou > iou_threshold}
        if not merged_cols:
            continue
        rest = []
        for group_rows, group_cols in groups:
            if group_cols & merged_cols:
                merged_rows |= group_rows
                merged_cols |= group_cols
            else:
                rest.append((group_rows, group_cols))
        groups = rest + [(merged_rows, merged_cols)]
    return [frozenset(group_rows) for group_rows, _ in groups]


def _useful_groups(entry, matrix, iou_threshold):
    """(newly kept rows with an admissible pair, every kept row) per useful own score."""
    dets = entry.detections
    for score in sorted({d.score for d in dets}, reverse=True):
        new = {
            i for i, d in enumerate(dets)
            if d.score == score and any(iou > iou_threshold for iou in matrix[i])
        }
        if new:
            yield new, [i for i, d in enumerate(dets) if d.score >= score]


def _sweep_cases(entry, iou_threshold):
    """Which cluster changes the optimal sweep of one image goes through."""
    matrix = oracles.reference_iou_matrix(*entry)
    cases = set()
    before = []
    optimum = {}  # column -> row, at the previous useful score
    for new, kept in _useful_groups(entry, matrix, iou_threshold):
        after = _row_clusters(matrix, kept, iou_threshold)
        touched = [c for c in after if c & new]
        if any(sum(b <= c for b in before) >= 2 for c in touched):
            cases.add("a tie group bridges two clusters")
        if any(b <= c for b in before for c in touched) and any(b in after for b in before):
            cases.add("one cluster touched, another unchanged")
        pairs, _, _ = oracles.exhaustive_best_assignment([matrix[k] for k in kept], iou_threshold)
        now = {j: kept[r] for r, j in pairs}
        if any(now.get(j) in new for j in optimum):
            cases.add("a new row steals a column")
        before, optimum = after, now
    return cases


def test_optimal_sweep_on_crowds_equals_rematch_oracle_bit_for_bit():
    seen = Counter()
    rng = random.Random(1955)
    for _ in range(30):
        ds = _crowd_dataset(rng)
        for iou_threshold in (0.0, 0.3, 0.5):
            _assert_equals_rematch_oracle(ds, "optimal", iou_threshold)
            for entry in ds.images.values():
                seen.update(_sweep_cases(entry, iou_threshold))
    assert len(seen) == 3 and min(seen.values()) >= 5, seen


def _few_faces_dataset(rng):
    """20-60 detections over 1-3 neighbouring box faces, with three distinct scores.

    Most detections sit on one face, so each face gathers a tall cluster;
    a few sit halfway between two neighbours (IoU about 0.33 apart) and
    bridge their clusters.
    """
    scores = [round(rng.random(), 2) for _ in range(3)]
    n_faces = rng.randint(1, 3)
    faces = [(24.0 * k, 0.0, 24.0 * k + 48.0, 48.0) for k in range(n_faces)]
    dets = []
    for _ in range(rng.randint(20, 60)):
        k = rng.randrange(n_faces)
        if k + 1 < n_faces and rng.random() < 0.15:
            box = [0.5 * (u + v) for u, v in zip(faces[k], faces[k + 1])]
        else:
            box = list(faces[k])
        dx, dy, grow = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        region = Rect(box[0] + dx, box[1] + dy, box[2] + dx + grow, box[3] + dy + grow)
        dets.append(Detection(region=region, score=rng.choice(scores), image_id="faces"))
    gts = [GroundTruth(region=Rect(*face), image_id="faces") for face in faces]
    return EvalDataset.from_images({"faces": (dets, gts)})


def test_optimal_sweep_on_tall_clusters_equals_rematch_oracle_bit_for_bit():
    rng = random.Random(2016)
    tallest = 0
    for _ in range(40):
        ds = _few_faces_dataset(rng)
        for iou_threshold in (0.0, 0.3, 0.5):
            _assert_equals_rematch_oracle(ds, "optimal", iou_threshold)
            for entry in ds.images.values():
                matrix = oracles.reference_iou_matrix(*entry)
                clusters = _row_clusters(matrix, range(len(matrix)), iou_threshold)
                tallest = max([tallest] + [len(c) for c in clusters])
    assert tallest >= 40, tallest


def test_the_solver_gets_each_cluster_unpadded_with_no_more_rows_than_columns(monkeypatch):
    costs = []
    solve = facemetrics.matching._solve

    def recording(cost):
        costs.append(cost)
        return solve(cost)

    monkeypatch.setattr(facemetrics.matching, "_solve", recording)
    # A tall sweep: 40 detections on one face, at distinct scores.
    rng = random.Random(40)
    dets = []
    for n in range(40):
        dx, dy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        dets.append(_det(dx, dy, 48.0 + dx, 48.0 + dy, 1.0 - n / 64))
    tall = EvalDataset.from_images({"img": (dets, [_gt(0, 0, 48, 48)])})
    # A wide sweep: three long detections, each across twelve small faces.
    gts = [_gt(10 * k, 0, 10 * k + 8, 8) for k in range(12)]
    dets = [_det(0, 0, 118, 8 + n, 0.9 - n / 10) for n in range(3)]
    wide = EvalDataset.from_images({"img": (dets, gts)})
    for ds in (tall, wide, _few_faces_dataset(random.Random(3))):
        discrete_roc(ds, "optimal", iou_threshold=0.0)
        for entry in ds.images.values():
            match_optimal(*entry, 0.0)
    shapes = {(len(cost), len(cost[0])) for cost in costs}
    # The 40x1 cluster arrives as one row over 40 columns, and the 3x12 one as it is.
    assert {(1, 40), (3, 12)} <= shapes, sorted(shapes)
    for cost in costs:
        assert len(cost) <= len(cost[0])
        # A pair costs below 0 and any other cell 0: no row or column is padding.
        assert all(min(row) < 0 for row in cost)
        assert all(min(column) < 0 for column in zip(*cost))


def _count_calls(monkeypatch, name):
    """Each call's (first argument, result), in call order."""
    calls = []
    wrapped = getattr(facemetrics.metrics, name)

    def counting(first, *args):
        result = wrapped(first, *args)
        calls.append((first, result))
        return result

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
                    for det, row in zip(e.detections, oracles.reference_iou_matrix(*e))
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


def test_optimal_sweep_solves_only_the_clusters_new_rows_join(monkeypatch):
    matrices = _count_calls(monkeypatch, "iou_matrix")
    solves = _count_calls(monkeypatch, "optimal_assignment")
    rng = random.Random(7)
    handed = kept = 0
    for _ in range(20):
        ds = _crowd_dataset(rng)
        entries = [e for e in ds.images.values() if e.detections]
        for iou_threshold in (0.3, 0.5):
            matrices.clear()
            solves.clear()
            discrete_roc(ds, "optimal", iou_threshold=iou_threshold)
            # Each solve's rows, as (image, row), found by identity in the images' matrices.
            where = {
                id(row): (n, i) for n, (_, matrix) in enumerate(matrices) for i, row in enumerate(matrix)
            }
            got = [[where[id(row)] for row in matrix] for matrix, _ in solves]
            want = []
            for n, (entry, (_, matrix)) in enumerate(zip(entries, matrices)):
                for new, kept_rows in _useful_groups(entry, matrix, iou_threshold):
                    clusters = _row_clusters(matrix, kept_rows, iou_threshold)
                    want.append([(n, i) for i in sorted(i for c in clusters if c & new for i in c)])
                    kept += len(kept_rows)
            # One solve per useful own score, on exactly the touched clusters' rows.
            assert got == want
            handed += sum(map(len, got))
    assert 0 < handed < kept


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


def test_proposal_recall_matches_each_image_once_per_distinct_row_count(monkeypatch):
    calls = _count_calls(monkeypatch, "greedy_assignment_by_iou")
    rng = random.Random(11)
    shared = 0
    for _ in range(20):
        ds = oracles.random_mini_dataset(rng, max_images=6, max_total_dets=20)
        n_values = rng.sample(range(8), rng.randint(1, 5))
        calls.clear()
        curves = proposal_recall(ds, n_values, [0.3, 0.5, 0.7])
        # Every budget at or above an image's detection count matches the same rows.
        row_counts = [
            {min(n, len(e.detections)) for n in n_values} for e in ds.images.values() if e.detections
        ]
        assert len(calls) == sum(map(len, row_counts))
        shared += len(n_values) * len(row_counts) - len(calls)
        for n, curve in zip(n_values, curves):
            assert proposal_recall(ds, [n], [0.3, 0.5, 0.7]) == [curve]
    assert shared > 0


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


def test_proposal_recall_takes_int_budgets_only():
    ds = _single_image_dataset()
    for bad in (True, False, 1.5, 2.0):
        with pytest.raises(ValueError) as excinfo:
            proposal_recall(ds, [5, bad], [0.5])
        assert str(excinfo.value) == f"n_values must be non-negative ints, got [5, {bad!r}]"


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


def test_curve_query_rejects_nan_x():
    # Every point-x <= NaN is false, so a NaN query would read the first y.
    curve = Curve(
        points=(CurvePoint(0.0, 0.0, math.inf), CurvePoint(1.0, 0.5, 0.9)),
        x_semantics=XSemantics.FP_COUNT,
        y_semantics=YSemantics.TPR_DISCRETE,
    )
    for x in (math.nan, -math.nan):
        with pytest.raises(ValueError, match=r"^query x must not be NaN$"):
            curve_query(curve, x)


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
