"""Seeded input generator for the facemetrics benchmark.

Every dataset is synthetic data shaped like the one it stands in
for (FDDB ellipses, WIDER crowds, region-proposal output).  Inputs are a
pure function of ``(dataset, seed)``: the same seed writes byte-identical
files.  Per-image region counts are fixed by image index and only their
placement, sizes and scores come from the seed, so the amount of work a
job does is nearly the same for every seed and seed-to-seed spread in the
timings reflects the machine, not the data.

Generated files follow the region-list layout the ``facemetrics`` CLI
reads (image id line, region count line, one region per line).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Each dataset stresses one layer:
# * fddb-ellipse: ellipse IoU in geometry does over 90% of its work while
#   the sweep is short (<=101 thresholds); the single-threaded baseline.
# * wider-crowded: the metrics sweep and the greedy re-match dominate
#   (~2.3k distinct scores) while box IoU is cheap; the only dataset run on
#   the per-image thread pool, and where sweep memory shows.
# * crowd-optimal: the exact Hungarian solver in
#   matching.optimal_assignment takes ~99% of its time.
# * proposal-pipeline: geometry as an NMS loop, anchors and
#   greedy_assignment_by_iou with no score sweep.
DATASETS = ("fddb-ellipse", "wider-crowded", "crowd-optimal", "proposal-pipeline")

# A workload is the datasets one job runs, in order.  The benchmark runs
# two, split by the layer that dominates them: ``geometry`` (ellipse IoU,
# the NMS loop, anchors) and ``matching`` (the greedy re-match sweep, the
# Hungarian solver).  A change to one layer shows on one workload and
# should leave the other unchanged.  Two workloads rather than four leave
# each run long enough, within the run budget, to average out the drift
# of a shared machine.  The single-dataset workloads attribute a change
# to its dataset.
WORKLOADS = {
    "geometry": ("fddb-ellipse", "proposal-pipeline"),
    "matching": ("wider-crowded", "crowd-optimal"),
    "fddb-ellipse": ("fddb-ellipse",),
    "proposal-pipeline": ("proposal-pipeline",),
    "wider-crowded": ("wider-crowded",),
    "crowd-optimal": ("crowd-optimal",),
}

# Proposal-pipeline constants: the default anchor family (scales 128/256/512,
# height/width ratios 1/2/0.5, stride 16), the pre-NMS budget and the recall
# budgets.  The generator needs the family to aim "hit" deltas at faces.
ANCHOR_SCALES = (128.0, 256.0, 512.0)
ANCHOR_RATIOS = (1.0, 2.0, 0.5)
ANCHOR_STRIDE = 16.0
PRE_NMS_TOP_N = 1000
NMS_IOU = 0.7
RECALL_BUDGETS = (100, 300, 1000)
PROPOSAL_IMAGE_SIZES = (
    (500, 375), (375, 500), (640, 480), (480, 640), (500, 333),
    (333, 500), (600, 400), (400, 600), (512, 512), (450, 350),
)


def _rng(seed: int, dataset: str) -> random.Random:
    # String seeds are hashed with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{dataset}:{seed}")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _region_list(entries: list[tuple[str, list[str]]]) -> str:
    lines = []
    for image_id, regions in entries:
        lines.append(image_id)
        lines.append(str(len(regions)))
        lines.extend(regions)
    return "\n".join(lines) + "\n"


def _rect_line(x0: float, y0: float, x1: float, y1: float, score: str | None = None) -> str:
    fields = [_fmt(x0), _fmt(y0), _fmt(x1 - x0), _fmt(y1 - y0)]
    if score is not None:
        fields.append(score)
    return " ".join(fields)


def _jitter_box(rng: random.Random, box, shift: float, grow: float):
    """Shift a box by up to ``shift`` of its size and rescale it by up to ``grow``."""
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    cx = 0.5 * (x0 + x1) + rng.uniform(-shift, shift) * w
    cy = 0.5 * (y0 + y1) + rng.uniform(-shift, shift) * h
    w *= math.exp(rng.uniform(-grow, grow))
    h *= math.exp(rng.uniform(-grow, grow))
    return (cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)


def _random_box(rng: random.Random, width: float, height: float, lo: float, hi: float):
    w = rng.uniform(lo, hi)
    h = w * rng.uniform(0.8, 1.3)
    x0 = rng.uniform(0.0, width - w)
    y0 = rng.uniform(0.0, height - h)
    return (x0, y0, x0 + w, y0 + h)


def _ellipse_bounds(cx, cy, a, b, angle):
    half_w = math.hypot(a * math.cos(angle), b * math.sin(angle))
    half_h = math.hypot(a * math.sin(angle), b * math.cos(angle))
    return (cx - half_w, cy - half_h, cx + half_w, cy + half_h)


def _fddb_ellipse(rng: random.Random) -> dict[str, str]:
    """100 images, 1-3 near-upright ellipse faces and 5-15 boxes each, 2-decimal scores."""
    gt_entries, det_entries = [], []
    for idx in range(100):
        image_id = f"fddb/{idx:03d}"
        n_gts = 1 + idx % 3
        n_dets = 5 + idx % 11
        faces, regions = [], []
        for _ in range(n_gts):
            a = rng.uniform(25.0, 60.0)
            b = a * rng.uniform(0.65, 0.85)
            angle = math.pi / 2 + rng.uniform(-0.3, 0.3)
            cx = rng.uniform(70.0, 380.0)
            cy = rng.uniform(70.0, 380.0)
            faces.append(_ellipse_bounds(cx, cy, a, b, angle))
            regions.append(f"{a:.4f} {b:.4f} {angle:.6f} {cx:.3f} {cy:.3f} 1")
        gt_entries.append((image_id, regions))
        dets = []
        for k in range(n_dets):
            if k < 2 * n_gts:
                box = _jitter_box(rng, faces[k % n_gts], 0.2, 0.3)
                score = rng.randint(40, 100)
            else:
                box = _random_box(rng, 450.0, 450.0, 20.0, 120.0)
                score = rng.randint(0, 80)
            dets.append(_rect_line(*box, score=f"{score / 100:.2f}"))
        det_entries.append((image_id, dets))
    return {"gt.txt": _region_list(gt_entries), "det.txt": _region_list(det_entries)}


def _wider_crowded(rng: random.Random) -> dict[str, str]:
    """50 images, 5-20 small box faces and 30-60 boxes each, full-precision scores."""
    gt_entries, det_entries = [], []
    for idx in range(50):
        image_id = f"wider/{idx:02d}"
        n_gts = 5 + idx % 16
        n_dets = 30 + (idx * 13) % 31
        faces = [_random_box(rng, 1024.0, 768.0, 12.0, 90.0) for _ in range(n_gts)]
        gt_entries.append((image_id, [_rect_line(*f) for f in faces]))
        dets = []
        for k in range(n_dets):
            if k < n_gts + n_gts // 2:
                box = _jitter_box(rng, faces[k % n_gts], 0.22, 0.35)
                score = 0.3 + 0.7 * rng.random()
            else:
                box = _random_box(rng, 1024.0, 768.0, 12.0, 90.0)
                score = 0.8 * rng.random()
            dets.append(_rect_line(*box, score=repr(score)))
        det_entries.append((image_id, dets))
    return {"gt.txt": _region_list(gt_entries), "det.txt": _region_list(det_entries)}


def _crowd_optimal(rng: random.Random) -> dict[str, str]:
    """20 images, rows of 5-20 overlapping box faces and 20-40 boxes each, 2-decimal scores.

    The solver's cost depends on which pairs clear IoU 0.5, so that set is
    fixed by image index: a box near one face clears only that face, a box
    halfway between two row neighbours clears both, and small strays clear
    none.  Each image's scores are a fixed multiset in seeded order.
    """
    gt_entries, det_entries = [], []
    per_row = 5
    for idx in range(20):
        image_id = f"crowd/{idx:02d}"
        n_gts = 5 + (idx * 7) % 16
        n_dets = 20 + (idx * 5) % 21
        faces = []
        for k in range(n_gts):
            size = rng.uniform(46.0, 50.0)
            # Row neighbours sit half a face width apart (IoU about 0.33).
            x0 = 30.0 + (k % per_row) * 24.0 + rng.uniform(-1.0, 1.0)
            y0 = 30.0 + (k // per_row) * 70.0 + rng.uniform(-2.0, 2.0)
            faces.append((x0, y0, x0 + size, y0 + size))
        gt_entries.append((image_id, [_rect_line(*f) for f in faces]))
        n_true = min(n_dets, n_gts + n_gts // 2)
        true_scores = [30 + (70 * k) // max(n_true - 1, 1) for k in range(n_true)]
        stray_scores = [(70 * k) // max(n_dets - n_true - 1, 1) for k in range(n_dets - n_true)]
        rng.shuffle(true_scores)
        rng.shuffle(stray_scores)
        scores = true_scores + stray_scores
        dets = []
        for k in range(n_dets):
            face = k % n_gts
            if k < n_true and k % 3 == 2 and face + 1 < n_gts and (face + 1) % per_row:
                # Between two neighbours (IoU about 0.6 with each): where the
                # optimal and greedy matchers disagree.
                left, right = faces[face], faces[face + 1]
                box = _jitter_box(rng, tuple(0.5 * (u + v) for u, v in zip(left, right)), 0.02, 0.03)
            elif k < n_true:
                box = _jitter_box(rng, faces[face], 0.05, 0.05)
            else:
                box = _random_box(rng, 200.0, 340.0, 14.0, 24.0)
            dets.append(_rect_line(*box, score=f"{scores[k] / 100:.2f}"))
        det_entries.append((image_id, dets))
    return {"gt.txt": _region_list(gt_entries), "det.txt": _region_list(det_entries)}


def resize_factor(width: float, height: float) -> float:
    """Test-mode rescale: short side to 600, long side capped at 1024."""
    return min(600.0 / min(width, height), 1024.0 / max(width, height))


def feature_grid(width: float, height: float) -> tuple[int, int]:
    """Feature-map size covering the resized image at the anchor stride."""
    scale = resize_factor(width, height)
    return (
        math.ceil(scale * width / ANCHOR_STRIDE),
        math.ceil(scale * height / ANCHOR_STRIDE),
    )


def anchor_box(index: int, feature_w: int) -> tuple[float, float, float, float]:
    """Anchor ``index`` of a row-major grid (rows, then columns, then scale/ratio)."""
    per_cell = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    cell, kind = divmod(index, per_cell)
    j, i = divmod(cell, feature_w)
    scale = ANCHOR_SCALES[kind // len(ANCHOR_RATIOS)]
    ratio = ANCHOR_RATIOS[kind % len(ANCHOR_RATIOS)]
    half_w = 0.5 * scale / math.sqrt(ratio)
    half_h = 0.5 * scale * math.sqrt(ratio)
    cx = (i + 0.5) * ANCHOR_STRIDE
    cy = (j + 0.5) * ANCHOR_STRIDE
    return (cx - half_w, cy - half_h, cx + half_w, cy + half_h)


def _proposal_pipeline(rng: random.Random) -> dict[str, str]:
    """10 images with 3-15 box faces; deltas aim a few anchors at each face."""
    gt_entries, images = [], []
    per_cell = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    for idx, (width, height) in enumerate(PROPOSAL_IMAGE_SIZES):
        image_id = f"proposal/{idx:02d}"
        n_gts = 3 + (idx * 4) % 13
        faces = [_random_box(rng, width, height, 50.0, 200.0) for _ in range(n_gts)]
        gt_entries.append((image_id, [_rect_line(*f) for f in faces]))
        scale = resize_factor(width, height)
        feature_w, feature_h = feature_grid(width, height)
        hits = {}
        for face in faces:
            target = tuple(v * scale for v in face)
            cx = 0.5 * (target[0] + target[2])
            cy = 0.5 * (target[1] + target[3])
            side = math.sqrt((target[2] - target[0]) * (target[3] - target[1]))
            scale_idx = min(range(len(ANCHOR_SCALES)), key=lambda s: abs(ANCHOR_SCALES[s] - side))
            ci = min(int(cx // ANCHOR_STRIDE), feature_w - 1)
            cj = min(int(cy // ANCHOR_STRIDE), feature_h - 1)
            for _ in range(12):
                i = min(max(ci + rng.randint(-2, 2), 0), feature_w - 1)
                j = min(max(cj + rng.randint(-2, 2), 0), feature_h - 1)
                kind = scale_idx * len(ANCHOR_RATIOS) + rng.randrange(len(ANCHOR_RATIOS))
                index = (j * feature_w + i) * per_cell + kind
                ax0, ay0, ax1, ay1 = anchor_box(index, feature_w)
                bx0, by0, bx1, by1 = _jitter_box(rng, target, 0.1, 0.15)
                aw, ah = ax1 - ax0, ay1 - ay0
                hits[index] = [
                    index,
                    (0.5 * (bx0 + bx1) - 0.5 * (ax0 + ax1)) / aw,
                    (0.5 * (by0 + by1) - 0.5 * (ay0 + ay1)) / ah,
                    math.log((bx1 - bx0) / aw),
                    math.log((by1 - by0) / ah),
                    0.9 + 0.1 * rng.random(),
                ]
        images.append(
            {
                "id": image_id,
                "width": width,
                "height": height,
                "feature_w": feature_w,
                "feature_h": feature_h,
                "delta_seed": rng.getrandbits(64),
                "hits": [hits[k] for k in sorted(hits)],
            }
        )
    return {
        "gt.txt": _region_list(gt_entries),
        "images.json": json.dumps(images, indent=1, sort_keys=True) + "\n",
    }


def proposal_deltas(image: dict) -> list[tuple[float, float, float, float, float]]:
    """``(tx, ty, tw, th, score)`` for every anchor of one proposal image.

    Background anchors get small seeded offsets and scores below 0.9;
    the generator's "hits" (scores 0.9-1.0) override their anchors, so
    every hit survives the pre-NMS top-N cut.
    """
    rng = random.Random(image["delta_seed"])
    n = image["feature_w"] * image["feature_h"] * len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
    uniform = rng.uniform
    deltas = [
        (uniform(-0.15, 0.15), uniform(-0.15, 0.15), uniform(-0.3, 0.3), uniform(-0.3, 0.3),
         0.9 * rng.random())
        for _ in range(n)
    ]
    for index, tx, ty, tw, th, score in image["hits"]:
        deltas[index] = (tx, ty, tw, th, score)
    return deltas


_GENERATORS = {
    "fddb-ellipse": _fddb_ellipse,
    "wider-crowded": _wider_crowded,
    "crowd-optimal": _crowd_optimal,
    "proposal-pipeline": _proposal_pipeline,
}


def generate(dataset: str, seed: int, directory: Path) -> dict[str, int]:
    """Write the dataset's input files for ``seed`` into ``directory``; return their shape."""
    files = _GENERATORS[dataset](_rng(seed, dataset))
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return dataset_shape(dataset, directory)


def _region_lines(text: str) -> list[tuple[str, list[str]]]:
    lines = text.splitlines()
    entries, pos = [], 0
    while pos < len(lines):
        image_id, count = lines[pos], int(lines[pos + 1])
        entries.append((image_id, lines[pos + 2 : pos + 2 + count]))
        pos += 2 + count
    return entries


def dataset_shape(dataset: str, directory: Path) -> dict[str, int]:
    """Images, ground truths, detections (or anchors) and distinct scores of a dataset."""
    gts = _region_lines((directory / "gt.txt").read_text(encoding="utf-8"))
    shape = {"images": len(gts), "ground_truths": sum(len(r) for _, r in gts)}
    if dataset == "proposal-pipeline":
        images = json.loads((directory / "images.json").read_text(encoding="utf-8"))
        per_cell = len(ANCHOR_SCALES) * len(ANCHOR_RATIOS)
        shape["anchors"] = sum(im["feature_w"] * im["feature_h"] * per_cell for im in images)
        shape["face_hits"] = sum(len(im["hits"]) for im in images)
        return shape
    dets = _region_lines((directory / "det.txt").read_text(encoding="utf-8"))
    shape["detections"] = sum(len(r) for _, r in dets)
    shape["distinct_scores"] = len({line.split()[4] for _, r in dets for line in r})
    return shape
