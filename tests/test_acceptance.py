"""Acceptance gate: one test per release criterion.

Each test prints a ``PASS <criterion> (<elapsed>s)`` line (visible with
``pytest -s``) and enforces its own wall-clock budget, so a slow machine
or a regression in either correctness or speed fails loudly.  Oracles
live in :mod:`tests.oracles` and share no code with the library paths
they check.
"""

import contextlib
import math
import random
import time
from pathlib import Path

import pytest

from facemetrics.anchors import (
    DEFAULT_ANCHOR_SPEC,
    AnchorSpec,
    anchor_grid,
    base_anchors,
    decode,
    encode,
    resize_scale,
)
from facemetrics.cli import main
from facemetrics.geometry import Ellipse, Rect, area, iou_ellipse_rect, iou_rect
from facemetrics.matching import Detection, GroundTruth, match_optimal
from facemetrics.metrics import (
    CurvePoint,
    EvalDataset,
    continuous_roc,
    discrete_roc,
    normalized_fp_roc,
    proposal_recall,
)

from oracles import (
    _ellipse_bbox,
    _shifted,
    exact_iou_ellipse_rect,
    exact_iou_rects,
    exhaustive_best_assignment,
    random_ellipse,
    random_match_instance,
    random_mini_dataset,
    random_rect,
    reference_greedy_pairs,
    reference_iou_matrix,
    roc_rematch_tallies,
    scale_rows_to_ints,
)


@contextlib.contextmanager
def criterion(name, budget=None):
    """Time a criterion body; print one PASS/FAIL line; enforce the budget."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeds {budget:.0f}s budget"
    except BaseException:
        print(f"FAIL {name}", flush=True)
        raise
    print(f"PASS {name} ({elapsed:.2f}s)", flush=True)


def test_anchor_suite():
    with criterion("anchor-suite", budget=1.0):
        base = base_anchors(DEFAULT_ANCHOR_SPEC)
        assert len(base) == 9
        for scale in (128.0, 256.0, 512.0):
            hits = [
                a for a in base
                if math.isclose(area(a), scale * scale, rel_tol=1e-12)
            ]
            assert len(hits) == 3, f"scale {scale}: {len(hits)} anchors"

        rng = random.Random(1001)
        for _ in range(100):
            w = rng.randint(1, 12)
            h = rng.randint(1, 12)
            spec = AnchorSpec(
                scales=tuple(rng.uniform(16.0, 600.0) for _ in range(rng.randint(1, 4))),
                ratios=tuple(rng.uniform(0.2, 5.0) for _ in range(rng.randint(1, 4))),
                stride=rng.choice((4.0, 8.0, 16.0, 32.0)),
            )
            k = len(spec.scales) * len(spec.ratios)
            assert len(anchor_grid(w, h, spec)) == w * h * k


def test_codec_round_trip():
    with criterion("codec-round-trip", budget=1.0):
        rng = random.Random(1002)
        for _ in range(10_000):
            anchor = random_rect(rng, span=400.0)
            box = random_rect(rng, span=400.0)
            back = decode(encode(box, anchor), anchor)
            for got, want in zip(
                (back.x_min, back.y_min, back.x_max, back.y_max),
                (box.x_min, box.y_min, box.x_max, box.y_max),
            ):
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_geometry_oracle():
    with criterion("geometry-oracle", budget=30.0):
        rng = random.Random(1003)
        worst = 0.0
        for _ in range(1000):
            a = random_rect(rng, span=60.0)
            if rng.random() < 0.7:
                b = _shifted(a, rng, 10.0, 0.0)
            else:
                b = random_rect(rng, span=60.0)
            worst = max(worst, abs(iou_rect(a, b) - exact_iou_rects(a, b)))
        assert worst <= 1e-12, f"worst rect IoU deviation {worst:.2e}"

        circle = Ellipse(center_x=0.0, center_y=0.0, semi_major=10.0, semi_minor=10.0, angle=0.3)
        square = Rect(x_min=-10.0, y_min=-10.0, x_max=10.0, y_max=10.0)
        assert abs(iou_ellipse_rect(circle, square) - math.pi / 4) <= 1e-3

        for _ in range(200):
            e = random_ellipse(rng)
            if rng.random() < 0.7:
                x0, y0, x1, y1 = _ellipse_bbox(e)
                r = _shifted(Rect(x0, y0, x1, y1), rng, 8.0, 0.0)
            else:
                r = random_rect(rng)
            got = iou_ellipse_rect(e, r)
            want = exact_iou_ellipse_rect(e, r)
            # The inscribed polygon's deficit: never above, at most 1.3e-5 below.
            assert want - 1.3e-5 <= got <= want + 1e-10, (e, r, got, want)


def test_matching_oracle():
    with criterion("matching-oracle", budget=10.0):
        rng = random.Random(1004)
        for _ in range(500):
            dets, gts = random_match_instance(rng)
            matrix = reference_iou_matrix(dets, gts)
            want_pairs, want_total, scaled = exhaustive_best_assignment(matrix, 0.5)
            outcome = match_optimal(dets, gts, iou_threshold=0.5)
            got_pairs = tuple((p.detection, p.ground_truth) for p in outcome.pairs)
            assert got_pairs == want_pairs
            got_total = sum(scaled[d][g] for d, g in got_pairs)
            assert got_total == want_total

            order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
            greedy_pairs = reference_greedy_pairs(matrix, order, 0.5)
            greedy_total = sum(scaled[d][g] for d, g, _ in greedy_pairs)
            assert greedy_total <= want_total


def test_roc_oracle():
    with criterion("roc-oracle", budget=30.0):
        rng = random.Random(1005)
        for _ in range(200):
            ds = random_mini_dataset(rng)
            total = sum(len(e.ground_truths) for e in ds.images.values())
            n_images = len(ds.images)
            for matcher in ("greedy", "optimal"):
                thresholds, tallies = roc_rematch_tallies(ds, matcher, 0.5)
                want_discrete = tuple(
                    CurvePoint(x=float(fp), y=tp / total, threshold=thr)
                    for thr, (tp, fp, _) in zip(thresholds, tallies)
                )
                want_continuous = tuple(
                    CurvePoint(x=float(fp), y=iou_total / total, threshold=thr)
                    for thr, (_, fp, iou_total) in zip(thresholds, tallies)
                )
                want_normalized = tuple(
                    CurvePoint(x=fp / n_images, y=tp / total, threshold=thr)
                    for thr, (tp, fp, _) in zip(thresholds, tallies)
                )
                got_discrete = discrete_roc(ds, matcher).points
                got_continuous = continuous_roc(ds, matcher).points
                got_normalized = normalized_fp_roc(ds, matcher).points
                assert got_discrete == want_discrete
                assert got_continuous == want_continuous
                assert got_normalized == want_normalized
                for dp, cp in zip(got_discrete, got_continuous):
                    assert cp.y <= dp.y


def test_proposal_recall_monotonicity():
    with criterion("proposal-recall-monotonicity", budget=10.0):
        rng = random.Random(1006)
        budgets = (1, 2, 4, 8)
        thresholds = tuple(i / 20 for i in range(6, 20))  # 0.3 .. 0.95
        for _ in range(100):
            ds = random_mini_dataset(rng, max_images=3, max_total_dets=10)
            curves = proposal_recall(ds, budgets, thresholds)
            for curve in curves:
                ys = [p.y for p in curve.points]
                assert all(a >= b for a, b in zip(ys, ys[1:])), "not non-increasing in t"
            for lo, hi in zip(curves, curves[1:]):
                for p_lo, p_hi in zip(lo.points, hi.points):
                    assert p_hi.y >= p_lo.y, "not non-decreasing in N"

        # proposals identical to the ground truths find everything below t=1
        gts = [
            GroundTruth(region=random_rect(rng), image_id="img")
            for _ in range(4)
        ]
        dets = [
            Detection(region=g.region, score=1.0 - 0.1 * i, image_id="img")
            for i, g in enumerate(gts)
        ]
        ds = EvalDataset.from_images({"img": (dets, gts)})
        (curve,) = proposal_recall(ds, (4,), (0.3, 0.5, 0.7, 0.9, 0.999))
        assert [p.y for p in curve.points] == [1.0, 1.0, 1.0, 1.0, 1.0]


def test_resize_constants():
    with criterion("resize-constants"):
        assert resize_scale(350.0, 450.0, "test").scale == pytest.approx(1.714286, abs=1e-6)
        assert resize_scale(2048.0, 1024.0, "train").scale == 0.5


def test_end_to_end_determinism(tmp_path):
    with criterion("end-to-end-determinism"):
        data_dir = Path(__file__).parent / "data"
        gt = str(data_dir / "synthetic_gt.txt")
        det = str(data_dir / "synthetic_det.txt")
        for mode in ("discrete", "continuous", "normalized"):
            outputs = set()
            for threads in (1, 4):
                for run in range(5):
                    out = tmp_path / f"{mode}_{threads}_{run}.csv"
                    code = main(
                        [
                            "eval", "--gt", gt, "--det", det,
                            "--mode", mode, "--threads", str(threads),
                            "--out", str(out),
                        ]
                    )
                    assert code == 0
                    outputs.add(out.read_bytes())
            assert len(outputs) == 1, f"{mode}: {len(outputs)} distinct outputs"
