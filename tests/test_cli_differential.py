"""``facemetrics eval`` end to end against the from-scratch re-match oracle.

A seeded generator writes a ground-truth and a detection file; every
mode and matcher runs through ``cli.main`` in-process, and the curve file
must be the bytes ``write_curve`` gives for the curve the oracle tallies
on the same parsed files.
"""

import math
import random

import pytest

from facemetrics.cli import main
from facemetrics.io import build_dataset, parse_region_list, read_curve, write_curve
from facemetrics.metrics import MATCHERS, Curve, CurvePoint, XSemantics, YSemantics

import oracles

SEEDS = (3, 2016)

# Each mode's axes, and its point from the oracle's (threshold, tp, fp,
# IoU total) with ``total`` ground truths on ``images`` images.
MODES = {
    "discrete": (
        XSemantics.FP_COUNT,
        YSemantics.TPR_DISCRETE,
        lambda tp, fp, iou, total, images: (float(fp), tp / total),
    ),
    "continuous": (
        XSemantics.FP_COUNT,
        YSemantics.TPR_CONTINUOUS,
        lambda tp, fp, iou, total, images: (float(fp), iou / total),
    ),
    "normalized": (
        XSemantics.FP_PER_IMAGE,
        YSemantics.TPR_DISCRETE,
        lambda tp, fp, iou, total, images: (fp / images, tp / total),
    ),
}


def _region_line(region) -> str:
    """A ground truth's file line, every float written with ``repr`` so it parses back exactly."""
    if isinstance(region, tuple):
        return " ".join(repr(v) for v in region)
    return (
        f"{region.semi_major!r} {region.semi_minor!r} {region.angle!r} "
        f"{region.center_x!r} {region.center_y!r} 1"
    )


def _write_dataset(rng: random.Random, tmp_path):
    """Ground-truth and detection files, and the 1-based numbers of the detection region lines.

    Eight images: boxes and ellipses, a detection pool that ties scores
    (``0.0`` and ``-0.0`` among them) within and across images, one image
    without ground truths, one listed with no detections and one missing
    from the detection file.
    """
    scores = [0.0, -0.0, 0.5, rng.random(), rng.random()]
    gt_lines: list[str] = []
    det_lines: list[str] = []
    det_region_lines: list[int] = []
    for idx in range(8):
        image_id = f"img/{idx}"
        gts = []
        if idx != 1:
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    gts.append(oracles.random_ellipse(rng))
                else:
                    box = oracles.random_rect(rng)
                    gts.append((box.x_min, box.y_min, box.width, box.height))
        gt_lines += [image_id, str(len(gts))] + [_region_line(g) for g in gts]
        if idx == 4:
            continue  # absent from the detection file
        dets = []
        for k in range(0 if idx == 3 else rng.randint(1, 6)):
            if gts and rng.random() < 0.7:
                target = gts[rng.randrange(len(gts))]
                if isinstance(target, tuple):
                    x, y, w, h = target
                else:
                    x, y, x1, y1 = oracles._ellipse_bbox(target)
                    w, h = x1 - x, y1 - y
                x += rng.uniform(-3.0, 3.0)
                y += rng.uniform(-3.0, 3.0)
            else:
                box = oracles.random_rect(rng)
                x, y, w, h = box.x_min, box.y_min, box.width, box.height
            if k == 0:  # each image's first score cycles through the pool
                score = scores[idx % len(scores)]
            else:
                score = rng.choice(scores) if rng.random() < 0.5 else rng.random()
            dets.append(f"{x!r} {y!r} {w!r} {h!r} {score!r}")
        det_lines += [image_id, str(len(dets))]
        det_region_lines += range(len(det_lines) + 1, len(det_lines) + len(dets) + 1)
        det_lines += dets
    gt_path = tmp_path / "gt.txt"
    det_path = tmp_path / "det.txt"
    gt_path.write_text("\n".join(gt_lines) + "\n")
    det_path.write_text("\n".join(det_lines) + "\n")
    return gt_path, det_path, det_region_lines


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_writes_the_rematch_oracle_curve(seed, tmp_path, capsys):
    gt_path, det_path, det_region_lines = _write_dataset(random.Random(seed), tmp_path)
    ds = build_dataset(
        parse_region_list(gt_path.read_text()), parse_region_list(det_path.read_text())
    )
    scores = [d.score for entry in ds.images.values() for d in entry.detections]
    zeros = {math.copysign(1.0, s) for s in scores if s == 0.0}
    assert zeros == {1.0, -1.0} and len(set(scores)) < len(scores) - 1
    total = ds.total_gt_count
    for matcher in MATCHERS:
        thresholds, tallies = oracles.roc_rematch_tallies(ds, matcher, 0.5)
        for mode, (x_semantics, y_semantics, point) in MODES.items():
            want = Curve(
                points=tuple(
                    CurvePoint(*point(tp, fp, iou, total, len(ds.images)), threshold)
                    for threshold, (tp, fp, iou) in zip(thresholds, tallies)
                ),
                x_semantics=x_semantics,
                y_semantics=y_semantics,
            )
            out_path = tmp_path / f"{mode}-{matcher}.csv"
            argv = [
                "eval", "--gt", str(gt_path), "--det", str(det_path),
                "--mode", mode, "--matcher", matcher, "--out", str(out_path),
            ]
            first = _run(capsys, argv)
            text = out_path.read_text()
            assert first[0] == 0, first
            assert text == write_curve(want, "csv"), (mode, matcher)
            assert 0.0 < want.points[-1].y < 1.0
            assert write_curve(read_curve(text), "csv") == text
            assert _run(capsys, argv) == first and out_path.read_text() == text

    # One malformed detection region, at a seeded line, is named by number.
    bad_line = random.Random(seed).choice(det_region_lines)
    lines = det_path.read_text().splitlines(keepends=True)
    lines[bad_line - 1] = "1.0 2.0 three 4.0 0.5\n"
    det_path.write_text("".join(lines))
    code, out, err = _run(capsys, ["eval", "--gt", str(gt_path), "--det", str(det_path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"facemetrics: error: line {bad_line}: ")
