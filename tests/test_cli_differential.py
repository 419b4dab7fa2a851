"""The ``facemetrics`` commands end to end against from-scratch references.

A seeded generator writes a ground-truth and a detection file; every
``eval`` mode, matcher and format runs through ``cli.main`` in-process,
and the curve file must be the bytes ``write_curve`` gives for the curve
the re-match oracle tallies on the same parsed files.  The same holds for
angles written in degrees, for ellipses far from the origin or past
half the float range in area, and for boxes whose areas overflow.  A
malformed line of either file, of each kind, makes ``eval`` exit 1 with
empty stdout and an error naming that line.  ``nms`` must keep the
reference NMS's boxes, and ``proposal-recall`` must give a greedy-by-IoU
recall counted from scratch.
"""

import functools
import math
import random

import numpy as np
import pytest

from facemetrics.cli import main
from facemetrics.geometry import Ellipse, Rect, area, bounding_rect, iou_rect
from facemetrics.io import (
    build_dataset,
    format_rect,
    parse_region_list,
    parse_scored_rects,
    read_curve,
    write_curve,
)
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


def _region_line(region, angle_unit: str = "radians") -> str:
    """A ground truth's file line, every float written with ``repr`` so it parses back exactly."""
    if isinstance(region, tuple):
        return " ".join(repr(v) for v in region)
    angle = math.degrees(region.angle) if angle_unit == "degrees" else region.angle
    return (
        f"{region.semi_major!r} {region.semi_minor!r} {angle!r} "
        f"{region.center_x!r} {region.center_y!r} 1"
    )


def _write_dataset(rng: random.Random, tmp_path, angle_unit: str = "radians"):
    """Ground-truth and detection files, and the 1-based numbers of the detection region lines.

    Eight images: boxes and ellipses, a detection pool that ties scores
    (``0.0`` and ``-0.0`` among them) within and across images, one image
    without ground truths, one listed with no detections and one missing
    from the detection file.  The detection file lists its images in a
    seeded order of their own, so the image that names a tied threshold
    comes from the annotation order, not the detection file's.  Ellipse
    angles are written in ``angle_unit``.
    """
    scores = [0.0, -0.0, 0.5, rng.random(), rng.random()]
    gt_lines: list[str] = []
    det_blocks: list[tuple[str, list[str]]] = []
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
        gt_lines += [image_id, str(len(gts))] + [_region_line(g, angle_unit) for g in gts]
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
        det_blocks.append((image_id, dets))
    det_lines: list[str] = []
    det_region_lines: list[int] = []
    for image_id, dets in rng.sample(det_blocks, len(det_blocks)):
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


def _check_eval(capsys, tmp_path, gt_path, det_path, angle_unit="radians"):
    """Every mode x matcher x format of ``eval`` against the oracle; returns the oracle's curves.

    Each file must be ``write_curve`` of the oracle's curve, the JSON file
    must read back as the CSV file does, and a second run must give the
    same exit status, stdout, stderr and file.
    """
    ds = build_dataset(
        parse_region_list(gt_path.read_text(), angle_unit=angle_unit),
        parse_region_list(det_path.read_text(), angle_unit=angle_unit),
    )
    total = ds.total_gt_count
    curves = {}
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
            texts = {}
            for fmt in ("csv", "json"):
                out_path = tmp_path / f"{mode}-{matcher}.{fmt}"
                argv = [
                    "eval", "--gt", str(gt_path), "--det", str(det_path), "--angle-unit", angle_unit,
                    "--mode", mode, "--matcher", matcher, "--format", fmt, "--out", str(out_path),
                ]
                first = _run(capsys, argv)
                text = out_path.read_text()
                assert first[0] == 0, first
                assert text == write_curve(want, fmt, matcher=matcher), (mode, matcher, fmt)
                assert _run(capsys, argv) == first and out_path.read_text() == text
                texts[fmt] = text
            assert write_curve(read_curve(texts["csv"]), "csv") == texts["csv"]
            assert read_curve(texts["json"]) == read_curve(texts["csv"])
            curves[mode, matcher] = want
    return curves


@pytest.mark.parametrize("seed", SEEDS)
def test_eval_writes_the_rematch_oracle_curve(seed, tmp_path, capsys):
    gt_path, det_path, det_region_lines = _write_dataset(random.Random(seed), tmp_path)
    ds = build_dataset(
        parse_region_list(gt_path.read_text()), parse_region_list(det_path.read_text())
    )
    scores = [d.score for entry in ds.images.values() for d in entry.detections]
    zeros = {math.copysign(1.0, s) for s in scores if s == 0.0}
    assert zeros == {1.0, -1.0} and len(set(scores)) < len(scores) - 1
    for curve in _check_eval(capsys, tmp_path, gt_path, det_path).values():
        assert 0.0 < curve.points[-1].y < 1.0

    # One malformed detection region, at a seeded line, is named by number.
    bad_line = random.Random(seed).choice(det_region_lines)
    lines = det_path.read_text().splitlines(keepends=True)
    lines[bad_line - 1] = "1.0 2.0 three 4.0 0.5\n"
    det_path.write_text("".join(lines))
    code, out, err = _run(capsys, ["eval", "--gt", str(gt_path), "--det", str(det_path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"facemetrics: error: line {bad_line}: ")


def test_eval_reads_ellipse_angles_in_degrees(tmp_path, capsys):
    gt_path, det_path, _ = _write_dataset(random.Random(SEEDS[0]), tmp_path, "degrees")
    fields = [line.split() for line in gt_path.read_text().splitlines()]
    angles = [float(f[2]) for f in fields if len(f) == 6]
    assert angles and max(angles) > math.pi  # the file holds degrees
    _check_eval(capsys, tmp_path, gt_path, det_path, "degrees")


def _records(lines):
    """Each record's id line, count line and region lines, as indices into a file without blanks."""
    records, pos = [], 0
    while pos < len(lines):
        count = int(lines[pos + 1])
        records.append((pos, pos + 1, range(pos + 2, pos + 2 + count)))
        pos += 2 + count
    return records


def _region_lines(lines):
    return [k for _, _, regions in _records(lines) for k in regions]


def _non_numeric_field(rng, files):
    name = rng.choice(("gt", "det"))
    k = rng.choice(_region_lines(files[name]))
    tokens = files[name][k].split()
    tokens[rng.randrange(len(tokens))] = rng.choice(("x", "1,5", "0x10"))
    files[name][k] = " ".join(tokens)
    return name, k


def _field_count(fields, rng, files):
    name = rng.choice(("gt", "det"))
    k = rng.choice(_region_lines(files[name]))
    files[name][k] = " ".join((files[name][k].split() * 2)[:fields])
    return name, k


def _region_count(count, rng, files):
    name = rng.choice(("gt", "det"))
    _, k, _ = rng.choice(_records(files[name]))
    files[name][k] = count
    return name, k


def _fewer_regions_than_declared(rng, files):
    name = rng.choice(("gt", "det"))
    _, k, regions = rng.choice(_records(files[name]))
    files[name][k] = str(len(regions) + 1)
    files[name].insert(regions.stop, "")
    return name, regions.stop


def _repeated_image_id(rng, files):
    name = rng.choice(("gt", "det"))
    records = _records(files[name])
    k = rng.randrange(1, len(records))
    files[name][records[k][0]] = files[name][records[rng.randrange(k)][0]]
    return name, records[k][0]


def _ellipse_detection(rng, files):
    k = rng.choice(_region_lines(files["det"]))
    files["det"][k] = _region_line(oracles.random_ellipse(rng))
    return "det", k


def _unscored_detection(rng, files):
    k = rng.choice(_region_lines(files["det"]))
    files["det"][k] = " ".join(files["det"][k].split()[:4])
    return "det", k


def _detections_of_an_unannotated_image(rng, files):
    k, _, _ = rng.choice(_records(files["det"]))
    files["det"][k] = f"ghost/{k}"
    return "det", k


# Each one breaks one seeded line of the ground-truth or detection file
# and returns the file and the index of the line the error must name.
MALFORMED = {
    "non-numeric-field": _non_numeric_field,
    "3-field-region": functools.partial(_field_count, 3),
    "7-field-region": functools.partial(_field_count, 7),
    "missing-count": functools.partial(_region_count, ""),
    "negative-count": functools.partial(_region_count, "-1"),
    "fewer-regions-than-declared": _fewer_regions_than_declared,
    "repeated-image-id": _repeated_image_id,
    "ellipse-detection": _ellipse_detection,
    "unscored-detection": _unscored_detection,
    "unannotated-detection-image": _detections_of_an_unannotated_image,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("malform", MALFORMED.values(), ids=MALFORMED)
def test_eval_names_the_line_of_each_malformed_input(malform, seed, tmp_path, capsys):
    gt_path, det_path, _ = _write_dataset(random.Random(seed), tmp_path)
    files = {"gt": gt_path.read_text().splitlines(), "det": det_path.read_text().splitlines()}
    name, k = malform(random.Random(seed), files)
    for lines, path in ((files["gt"], gt_path), (files["det"], det_path)):
        path.write_text("\n".join(lines) + "\n")
    argv = ["eval", "--gt", str(gt_path), "--det", str(det_path)]
    first = _run(capsys, argv)
    assert first[:2] == (1, ""), (name, k, first)
    assert first[2].startswith(f"facemetrics: error: line {k + 1}: "), (name, k, first)
    assert _run(capsys, argv) == first


# Ellipses whose shoelace products overflow about (0, 0), and one whose
# area, 1.5e308, passes half the float range.
FAR_ELLIPSES = (
    Ellipse(1e160, -1e160, 1e146, 5e145, 0.3),
    Ellipse(-1.5e160, 1e160, 3e146, 2e146, 2.0),
    Ellipse(0.0, 0.0, 1.2e154, 4e153, 0.0),
)


def test_eval_matches_far_off_and_huge_ellipses(tmp_path, capsys):
    """Each ellipse's bounding box matches it; the left half of each box, scored above, does not."""
    gt_lines = ["far/0", str(len(FAR_ELLIPSES))] + [_region_line(e) for e in FAR_ELLIPSES]
    det_lines = ["far/0", str(2 * len(FAR_ELLIPSES))]
    for k, ellipse in enumerate(FAR_ELLIPSES):
        box = bounding_rect(ellipse)
        corner = f"{box.x_min!r} {box.y_min!r}"
        det_lines.append(f"{corner} {box.width!r} {box.height!r} {0.5 + k / 8!r}")
        det_lines.append(f"{corner} {box.width / 2!r} {box.height!r} 0.9")
    gt_path = tmp_path / "gt.txt"
    det_path = tmp_path / "det.txt"
    gt_path.write_text("\n".join(gt_lines) + "\n")
    det_path.write_text("\n".join(det_lines) + "\n")
    curves = _check_eval(capsys, tmp_path, gt_path, det_path)
    for matcher in MATCHERS:
        last = curves["discrete", matcher].points[-1]
        assert (last.x, last.y) == (3.0, 1.0), matcher
        assert curves["continuous", matcher].points[-1].y > 0.5, matcher


def test_eval_matches_boxes_whose_areas_overflow(tmp_path, capsys):
    """Boxes near 1e154 on a side, whose two areas sum past the float range, and larger ones.

    A file gives a box as ``x y w h`` with a finite ``w`` and ``h``, so
    its sides stay finite, but from about 1.3e154 on a side its own area
    overflows.  Each ground truth has a shifted copy among the detections,
    and a random box of the same scale joins them.
    """
    rng = random.Random(SEEDS[1])
    gt_lines, det_lines, pairs = [], [], []
    for idx, scale in enumerate((1e152, 1e153, 1e200, 1e305)):
        image_id = f"huge/{idx}"
        gts = [oracles.random_rect(rng) for _ in range(rng.randint(1, 3))]
        dets = [oracles._shifted(g, rng, 3.0, 0.0) for g in gts] + [oracles.random_rect(rng)]
        boxes = [
            Rect(*(scale * v for v in (r.x_min, r.y_min, r.x_max, r.y_max))) for r in gts + dets
        ]
        lines = [f"{b.x_min!r} {b.y_min!r} {b.width!r} {b.height!r}" for b in boxes]
        scores = [rng.choice((0.5, 0.9, rng.random())) for _ in dets]
        gt_lines += [image_id, str(len(gts))] + lines[: len(gts)]
        det_lines += [image_id, str(len(dets))]
        det_lines += [f"{line} {score!r}" for line, score in zip(lines[len(gts):], scores)]
        pairs += [(g, d) for g in boxes[: len(gts)] for d in boxes[len(gts):]]
    gt_path = tmp_path / "gt.txt"
    det_path = tmp_path / "det.txt"
    gt_path.write_text("\n".join(gt_lines) + "\n")
    det_path.write_text("\n".join(det_lines) + "\n")
    ds = build_dataset(
        parse_region_list(gt_path.read_text()), parse_region_list(det_path.read_text())
    )
    boxes = [g.region for entry in ds.images.values() for g in entry.ground_truths]
    assert any(math.isinf(area(b)) for b in boxes)
    assert any(iou_rect(g, d) > 0.5 and math.isinf(area(g) + area(d)) for g, d in pairs)
    curves = _check_eval(capsys, tmp_path, gt_path, det_path)
    for matcher in MATCHERS:
        assert curves["discrete", matcher].points[-1].y > 0.5, matcher


@pytest.mark.parametrize("iou", ["0", "0.3", "0.5"])
def test_nms_keeps_the_reference_boxes(iou, tmp_path, capsys):
    """Score ties (signed zeros among them), zero-area boxes and a blank line."""
    rng = random.Random(SEEDS[1])
    lines = []
    for k in range(60):
        x, y = rng.randrange(60), rng.randrange(60)
        w = 0 if k % 11 == 0 else rng.randrange(1, 25)
        h = 0 if k % 13 == 0 else rng.randrange(1, 25)
        score = rng.choice((0.9, 0.5, 0.0, -0.0, round(rng.random(), 3)))
        lines.append(f"{x} {y} {w} {h} {score!r}")
    lines.insert(30, "")
    path = tmp_path / "scored.txt"
    path.write_text("\n".join(lines) + "\n")
    regions = parse_scored_rects(path.read_text())
    boxes = np.array([[r.region.x_min, r.region.y_min, r.region.x_max, r.region.y_max] for r in regions])
    kept = oracles.reference_nms_indices(boxes, np.array([r.score for r in regions]), float(iou))
    assert 0 < len(kept) < len(regions)
    code, out, err = _run(capsys, ["nms", "--in", str(path), "--iou", iou])
    assert (code, err) == (0, "")
    assert out == "".join(format_rect(regions[i].region, regions[i].score) + "\n" for i in kept)


def _greedy_by_iou_recall(ds, n, iou_thresholds):
    """Detection rate of each image's ``n`` best-scored boxes, greedy by IoU, from scratch."""
    matched = [0] * len(iou_thresholds)
    for entry in ds.images.values():
        dets = entry.detections
        top = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))[:n]
        matrix = oracles.reference_iou_matrix([dets[i] for i in top], entry.ground_truths)
        candidates = sorted(
            (-iou, i, j) for i, row in enumerate(matrix) for j, iou in enumerate(row) if iou > 0.0
        )
        used_rows, used_cols, ious = set(), set(), []
        for neg, i, j in candidates:
            if i not in used_rows and j not in used_cols:
                used_rows.add(i)
                used_cols.add(j)
                ious.append(-neg)
        for k, t in enumerate(iou_thresholds):
            matched[k] += sum(1 for iou in ious if iou > t)
    return Curve(
        points=tuple(
            CurvePoint(t, m / ds.total_gt_count, t) for t, m in zip(iou_thresholds, matched)
        ),
        x_semantics=XSemantics.IOU_THRESHOLD,
        y_semantics=YSemantics.DETECTION_RATE,
    )


def test_proposal_recall_equals_a_from_scratch_greedy_by_iou_recall(tmp_path, capsys):
    gt_path, det_path, _ = _write_dataset(random.Random(SEEDS[1]), tmp_path)
    ds = build_dataset(
        parse_region_list(gt_path.read_text()), parse_region_list(det_path.read_text())
    )
    prefix = tmp_path / "recall_"
    argv = [
        "proposal-recall", "--gt", str(gt_path), "--det", str(det_path),
        "--top-n", "1,3", "--iou-thresholds", "0.3,0.5,0.7", "--out", str(prefix),
    ]
    assert _run(capsys, argv) == (0, "", "")
    texts = {n: (tmp_path / f"recall_{n}.csv").read_text() for n in (1, 3)}
    for n, text in texts.items():
        assert text == write_curve(_greedy_by_iou_recall(ds, n, (0.3, 0.5, 0.7)), "csv"), n
    assert texts[1] != texts[3]
