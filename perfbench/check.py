"""Reference checks of a job's outputs.

The references do not run the code paths under test.  Every point of a
ROC curve is recomputed by re-matching each image from scratch with the
oracles in ``tests/oracles.py`` (``reference_greedy_pairs`` and
``exhaustive_best_assignment``), on an IoU matrix built here for boxes;
ellipse IoU comes from ``facemetrics.matching.iou_matrix`` and sampled
cells of it are checked against a Monte Carlo estimate.  Proposal output
is recomputed with this file's own anchor, decode and top-N arithmetic,
the oracle's array-based NMS, and a pair-driven greedy matcher written
here.

:func:`check_outputs` returns a list of problems; an empty list means
the outputs agree with the references.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import generate

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

MC_SAMPLES = 200_000
MC_CELLS = 6
MC_TOLERANCE = 0.01
Y_TOLERANCE = 2e-6  # outputs carry 6 significant digits


def _read_regions(path: Path) -> list[tuple[str, list[list[float]]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    entries, pos = [], 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        image_id, count = lines[pos].strip(), int(lines[pos + 1])
        rows = [[float(v) for v in line.split()] for line in lines[pos + 2 : pos + 2 + count]]
        entries.append((image_id, rows))
        pos += 2 + count
    return entries


def _read_curve(path: Path) -> list[tuple[float, float, float]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[1] != "x,y,threshold":
        raise ValueError(f"{path.name}: not a curve CSV")
    return [tuple(float(v) for v in line.split(",")) for line in lines[2:] if line]


def _box(x: float, y: float, w: float, h: float) -> tuple[float, float, float, float]:
    # Same corner arithmetic as a box parsed from "x y w h": max corner = min + size.
    return (x, y, x + w, y + h)


def _iou(a, b) -> float:
    inter_w = min(a[2], b[2]) - max(a[0], b[0])
    inter_h = min(a[3], b[3]) - max(a[1], b[1])
    if inter_w <= 0 or inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def _optimal_pairs(matrix, rows: list[int], iou_threshold: float):
    """Maximum-total-IoU pairs, solved exhaustively per connected component."""
    from oracles import exhaustive_best_assignment

    parent: dict = {}

    def find(node):
        while parent.setdefault(node, node) != node:
            node = parent[node]
        return node

    edges = [(i, j) for i in rows for j, v in enumerate(matrix[i]) if v > iou_threshold]
    for i, j in edges:
        parent[find(("r", i))] = find(("c", j))
    components: dict = {}
    for i, j in edges:
        comp = components.setdefault(find(("r", i)), (set(), set()))
        comp[0].add(i)
        comp[1].add(j)
    pairs = []
    for comp_rows, comp_cols in components.values():
        comp_rows, comp_cols = sorted(comp_rows), sorted(comp_cols)
        sub = [[matrix[i][j] for j in comp_cols] for i in comp_rows]
        chosen, _, _ = exhaustive_best_assignment(sub, iou_threshold)
        pairs += [(comp_rows[a], comp_cols[b], sub[a][b]) for a, b in chosen]
    return pairs


def _roc_images(data: Path, seed: int, problems: list[str]):
    """Per image ``(scores, IoU matrix)`` plus the ground-truth total."""
    from facemetrics.geometry import Ellipse, Rect
    from facemetrics.matching import Detection, GroundTruth, iou_matrix
    from oracles import mc_iou_ellipse_rect, unit_samples

    gts = dict(_read_regions(data / "gt.txt"))
    dets = dict(_read_regions(data / "det.txt"))
    images, ellipse_cells = [], []
    for image_id, gt_rows in gts.items():
        det_rows = dets.get(image_id, [])
        scores = [row[4] for row in det_rows]
        if all(len(row) == 4 for row in gt_rows):
            boxes = [_box(*row[:4]) for row in det_rows]
            faces = [_box(*row) for row in gt_rows]
            matrix = [[_iou(d, g) for g in faces] for d in boxes]
        else:
            ellipses = [Ellipse(r[3], r[4], r[0], r[1], r[2]) for r in gt_rows]
            rects = [Rect(*_box(*row[:4])) for row in det_rows]
            matrix = iou_matrix(
                [Detection(r, s, image_id) for r, s in zip(rects, scores)],
                [GroundTruth(e, image_id) for e in ellipses],
            )
            ellipse_cells += [
                (ellipses[j], rects[i], matrix[i][j])
                for i in range(len(rects))
                for j in range(len(ellipses))
                if 0.2 < matrix[i][j] < 0.95
            ]
        images.append((scores, matrix))
    if ellipse_cells:
        samples = unit_samples(seed, MC_SAMPLES)
        for ellipse, rect, value in random.Random(seed).sample(
            ellipse_cells, min(MC_CELLS, len(ellipse_cells))
        ):
            estimate = mc_iou_ellipse_rect(ellipse, rect, samples)
            if abs(estimate - value) > MC_TOLERANCE:
                problems.append(f"ellipse IoU {value:.4f} but Monte Carlo gives {estimate:.4f}")
    total_gt = sum(len(rows) for rows in gts.values())
    return images, total_gt


def _reference_curve(images, total_gt, thresholds, matcher, continuous, iou_threshold=0.5):
    """``(x, y)`` at every threshold, re-matching each image from scratch.

    An image's kept set changes only at its own scores, so each image is
    matched once per own distinct score and that tally holds until the
    next one.
    """
    from oracles import reference_greedy_pairs

    tp = [0] * len(thresholds)
    fp = [0] * len(thresholds)
    iou_sums: list[list[float]] = [[] for _ in thresholds]
    for scores, matrix in images:
        levels = sorted(set(scores), reverse=True)
        tallies = []
        for level in levels:
            kept = [k for k, s in enumerate(scores) if s >= level]
            if matcher == "greedy":
                order = sorted(kept, key=lambda k: (-scores[k], k))
                pairs = reference_greedy_pairs(matrix, order, iou_threshold)
            else:
                pairs = _optimal_pairs(matrix, kept, iou_threshold)
            tallies.append((len(pairs), len(kept) - len(pairs), math.fsum(p[2] for p in pairs)))
        current = (0, 0, 0.0)
        next_level = 0
        for t, threshold in enumerate(thresholds):
            while next_level < len(levels) and levels[next_level] >= threshold:
                current = tallies[next_level]
                next_level += 1
            tp[t] += current[0]
            fp[t] += current[1]
            iou_sums[t].append(current[2])
    if continuous:
        return [(float(f), math.fsum(s) / total_gt) for f, s in zip(fp, iou_sums)]
    return [(float(f), t / total_gt) for f, t in zip(fp, tp)]


def _check_roc(dataset: str, data: Path, out: Path, seed: int) -> list[str]:
    from job import EVAL_STEPS

    problems: list[str] = []
    images, total_gt = _roc_images(data, seed, problems)
    scores = sorted({s for image_scores, _ in images for s in image_scores}, reverse=True)
    thresholds = [math.inf] + scores
    expected = [math.inf] + [float(f"{s:.6g}") for s in scores]
    for name, flags in EVAL_STEPS[dataset]:
        matcher = flags[flags.index("--matcher") + 1] if "--matcher" in flags else "greedy"
        curve = _read_curve(out / f"{name}.csv")
        if [p[2] for p in curve] != expected:
            problems.append(f"{name}: thresholds are not the distinct scores, descending")
            continue
        reference = _reference_curve(images, total_gt, thresholds, matcher, name == "continuous")
        for threshold, (got_x, got_y, _), (x, y) in zip(thresholds, curve, reference):
            if got_x != x or abs(got_y - y) > Y_TOLERANCE:
                problems.append(
                    f"{name}: at threshold {threshold!r} got ({got_x:g}, {got_y:g}), "
                    f"reference ({x:g}, {y:g})"
                )
                break
        if "--query-fp" in flags:
            budget = float(flags[flags.index("--query-fp") + 1])
            y = curve[0][1]
            for point in curve:
                if point[0] > budget:
                    break
                y = point[1]
            summary = (out / f"{name}.summary").read_text(encoding="utf-8").strip()
            want = f"tpr_discrete={y:.6g} at fp_count={budget:.6g}"
            if summary != want:
                problems.append(f"{name}: summary {summary!r}, expected {want!r}")
    return problems


def _reference_proposals(image: dict, faces):
    """Kept boxes (x0, y0, x1, y1, score) and scaled ground truths of one image."""
    import numpy as np
    from oracles import reference_nms_indices

    scale = generate.resize_factor(image["width"], image["height"])
    decoded = []
    for index, (tx, ty, tw, th, score) in enumerate(generate.proposal_deltas(image)):
        ax0, ay0, ax1, ay1 = generate.anchor_box(index, image["feature_w"])
        aw, ah = ax1 - ax0, ay1 - ay0
        cx = 0.5 * (ax0 + ax1) + tx * aw
        cy = 0.5 * (ay0 + ay1) + ty * ah
        w = aw * math.exp(tw)
        h = ah * math.exp(th)
        decoded.append((-score, index, (cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)))
    decoded.sort()
    top = decoded[: generate.PRE_NMS_TOP_N]
    boxes = np.array([box for _, _, box in top])
    scores = np.array([-neg for neg, _, _ in top])
    kept = [(*top[k][2], -top[k][0]) for k in reference_nms_indices(boxes, scores, generate.NMS_IOU)]
    scaled = [tuple(v * scale for v in _box(*face)) for face in faces]
    return kept, scaled


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-5 * max(abs(a), abs(b)) + 1e-4


def _check_proposals(data: Path, out: Path) -> list[str]:
    from job import RECALL_IOU_GRID

    problems = []
    images = json.loads((data / "images.json").read_text(encoding="utf-8"))
    gts = dict(_read_regions(data / "gt.txt"))
    written = dict(_read_regions(out / "proposals.txt"))
    matched = {n: [0] * len(RECALL_IOU_GRID) for n in generate.RECALL_BUDGETS}
    total_gt = 0
    for image in images:
        kept, faces = _reference_proposals(image, gts[image["id"]])
        total_gt += len(faces)
        got = written.get(image["id"], [])
        if len(got) != len(kept) or not all(
            _close(u, v)
            for row, ref in zip(got, kept)
            for u, v in zip(row, (ref[0], ref[1], ref[2] - ref[0], ref[3] - ref[1], ref[4]))
        ):
            problems.append(f"{image['id']}: NMS output differs from the reference")
        for n in generate.RECALL_BUDGETS:
            candidates = sorted(
                (-_iou(box, face), i, j)
                for i, box in enumerate(kept[:n])
                for j, face in enumerate(faces)
                if _iou(box, face) > 0.0
            )
            used_rows, used_cols, ious = set(), set(), []
            for neg, i, j in candidates:
                if i not in used_rows and j not in used_cols:
                    used_rows.add(i)
                    used_cols.add(j)
                    ious.append(-neg)
            for t_idx, t in enumerate(RECALL_IOU_GRID):
                matched[n][t_idx] += sum(1 for iou in ious if iou > t)
    for n in generate.RECALL_BUDGETS:
        curve = _read_curve(out / f"recall_{n}.csv")
        want = [(t, matched[n][k] / total_gt) for k, t in enumerate(RECALL_IOU_GRID)]
        if len(curve) != len(want) or any(
            abs(x - wx) > 1e-9 or abs(y - wy) > Y_TOLERANCE for (x, y, _), (wx, wy) in zip(curve, want)
        ):
            problems.append(f"recall_{n}.csv differs from the reference recall")
    return problems


def check_outputs(dataset: str, data: Path, out: Path, seed: int) -> list[str]:
    """Problems found in one job's outputs; empty when they match the references."""
    try:
        if dataset == "proposal-pipeline":
            return _check_proposals(data, out)
        return _check_roc(dataset, data, out, seed)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
