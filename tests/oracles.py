"""Independent reference implementations the tests check the library against.

Everything here is deliberately written from first principles rather
than by calling back into the code under test: a Monte Carlo estimator
of ellipse/rect IoU, the vertex-by-vertex Sutherland-Hodgman clip and
shoelace (its terms taken about a given point: the ellipse IoU takes
them about its polygon's first vertex, as the library does), the
ellipse IoU built from those two, the exact area of an ellipse inside
a rect, an exact rational rectangle IoU, the dense IoU matrix, an
exhaustive assignment search, a vectorized NMS, and a re-matching ROC
tally that recomputes every operating point from scratch instead of
sweeping incrementally.
"""

import math
import random
from fractions import Fraction

import numpy as np

from facemetrics.geometry import Ellipse, Rect, ellipse_to_polygon, iou_ellipse_rect, iou_rect
from facemetrics.matching import Detection, GroundTruth
from facemetrics.metrics import EvalDataset


# --------------------------------------------------------------------
# Monte Carlo IoU estimation
# --------------------------------------------------------------------

def unit_samples(seed: int, n: int) -> np.ndarray:
    """A reusable (2, n) buffer of uniform [0, 1) samples."""
    return np.random.default_rng(seed).random((2, n))


def mc_work(n: int) -> tuple[np.ndarray, ...]:
    """Work arrays for the estimators below at ``n`` samples: five float, three bool.

    The estimators write every intermediate into these with ``out=``;
    a caller that makes many estimates allocates them once and passes
    them as ``work``.
    """
    return tuple(np.empty(n) for _ in range(5)) + tuple(np.empty(n, dtype=bool) for _ in range(3))


def _sample_box(samples, x0, y0, x1, y1, px, py):
    """px, py = x0 + (x1 - x0) * samples[0], y0 + (y1 - y0) * samples[1]."""
    np.multiply(samples[0], x1 - x0, out=px)
    px += x0
    np.multiply(samples[1], y1 - y0, out=py)
    py += y0


def _points_in_box(px, py, x0, y0, x1, y1, out, tmp):
    np.greater_equal(px, x0, out=out)
    out &= np.less_equal(px, x1, out=tmp)
    out &= np.greater_equal(py, y0, out=tmp)
    out &= np.less_equal(py, y1, out=tmp)
    return out


def _overlap_ratio(in_a, in_b, tmp) -> float:
    union = np.count_nonzero(np.logical_or(in_a, in_b, out=tmp))
    if union == 0:
        return 0.0
    return np.count_nonzero(np.logical_and(in_a, in_b, out=tmp)) / union


def _ellipse_bbox(e: Ellipse) -> tuple[float, float, float, float]:
    cos_t = math.cos(e.angle)
    sin_t = math.sin(e.angle)
    half_w = math.hypot(e.semi_major * cos_t, e.semi_minor * sin_t)
    half_h = math.hypot(e.semi_major * sin_t, e.semi_minor * cos_t)
    return e.center_x - half_w, e.center_y - half_h, e.center_x + half_w, e.center_y + half_h


def mc_iou_ellipse_rect(e: Ellipse, r: Rect, samples: np.ndarray, work=None) -> float:
    """IoU of an ellipse and a rectangle by point sampling."""
    px, py, u, v, t, in_e, in_r, tmp = work or mc_work(samples.shape[1])
    ex0, ey0, ex1, ey1 = _ellipse_bbox(e)
    x0 = min(ex0, r.x_min)
    y0 = min(ey0, r.y_min)
    x1 = max(ex1, r.x_max)
    y1 = max(ey1, r.y_max)
    _sample_box(samples, x0, y0, x1, y1, px, py)
    _points_in_box(px, py, r.x_min, r.y_min, r.x_max, r.y_max, in_r, tmp)
    # In place from here on: px, py become dx, dy.
    dx = np.subtract(px, e.center_x, out=px)
    dy = np.subtract(py, e.center_y, out=py)
    cos_t = math.cos(e.angle)
    sin_t = math.sin(e.angle)
    # u = (dx * cos_t + dy * sin_t) / semi_major
    np.multiply(dx, cos_t, out=u)
    u += np.multiply(dy, sin_t, out=t)
    u /= e.semi_major
    # v = (dy * cos_t - dx * sin_t) / semi_minor
    np.multiply(dy, cos_t, out=v)
    v -= np.multiply(dx, sin_t, out=t)
    v /= e.semi_minor
    # in_e = u * u + v * v <= 1
    u *= u
    v *= v
    u += v
    np.less_equal(u, 1.0, out=in_e)
    return _overlap_ratio(in_e, in_r, tmp)


# --------------------------------------------------------------------
# Vertex-by-vertex polygon clipping, shoelace and ellipse IoU
# --------------------------------------------------------------------

def reference_clip_polygon_to_rect(vertices, rect: Rect):
    """Sutherland-Hodgman clip of a polygon against a rect, one vertex at a time.

    Each pass keeps the half-plane on the inner side of one rect edge and
    adds a crossing wherever an edge changes sides.  The library's
    run-length clip must return exactly this list, in this order.
    """
    passes = (
        (0, rect.x_min, 1.0),   # x >= x_min
        (0, rect.x_max, -1.0),  # x <= x_max
        (1, rect.y_min, 1.0),   # y >= y_min
        (1, rect.y_max, -1.0),  # y <= y_max
    )
    output = list(vertices)
    for axis, bound, sign in passes:
        if not output:
            return []
        polygon = output
        output = []
        prev = polygon[-1]
        prev_inside = sign * (prev[axis] - bound) >= 0
        for current in polygon:
            cur_inside = sign * (current[axis] - bound) >= 0
            if cur_inside != prev_inside:
                t = (bound - prev[axis]) / (current[axis] - prev[axis])
                output.append((
                    prev[0] + t * (current[0] - prev[0]),
                    prev[1] + t * (current[1] - prev[1]),
                ))
            if cur_inside:
                output.append(current)
            prev = current
            prev_inside = cur_inside
    return output


def reference_signed_area(vertices, origin=(0.0, 0.0)) -> float:
    """Shoelace formula, one edge at a time; positive for counter-clockwise order.

    Each term is taken on the coordinates less ``origin``, which leaves
    the exact area alone but not its rounding: the library takes its
    terms about the subject polygon's first vertex.
    """
    ox, oy = origin
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total += (x0 - ox) * (y1 - oy) - (x1 - ox) * (y0 - oy)
    return 0.5 * total


def reference_iou_ellipse_rect(ellipse: Ellipse, rect: Rect, polygon, clipped=None) -> float:
    """Ellipse/rect IoU by the reference clip and shoelace of ``polygon``, the ellipse's 1024-gon.

    No shortcut: every rect of nonzero area is clipped, and the clipped
    shoelace is taken about the polygon's first vertex.  The library's
    ``iou_ellipse_rect`` must return exactly this float.  ``clipped``,
    when given, is that clip's result.
    """
    rect_area = (rect.x_max - rect.x_min) * (rect.y_max - rect.y_min)
    if rect_area <= 0:
        return 0.0
    if clipped is None:
        clipped = reference_clip_polygon_to_rect(polygon.vertices, rect)
    if len(clipped) < 3:
        return 0.0
    inter = abs(reference_signed_area(clipped, polygon.vertices[0]))
    union = math.pi * ellipse.semi_major * ellipse.semi_minor + rect_area - inter
    if union <= 0:
        return 0.0
    return min(max(inter / union, 0.0), 1.0)


# --------------------------------------------------------------------
# Exact ellipse/rect overlap
# --------------------------------------------------------------------

def _disk_triangle_area(p, q) -> float:
    """Signed area of the unit disk inside the triangle (origin, p, q).

    The edge p -> q is inside the circle for ``t`` in [lo, hi] of
    ``p + t * (q - p)``: that piece adds its triangle with the origin,
    and the pieces before and after it add the sectors their ends span.
    """
    px, py = p
    dx, dy = q[0] - px, q[1] - py
    a = dx * dx + dy * dy
    if a == 0.0:
        return 0.0
    b = px * dx + py * dy
    disc = b * b - a * (px * px + py * py - 1.0)
    lo = hi = 0.0
    if disc > 0.0:
        root = math.sqrt(disc)
        lo = min(max((-b - root) / a, 0.0), 1.0)
        hi = min(max((-b + root) / a, 0.0), 1.0)
    ux, uy = px + lo * dx, py + lo * dy
    vx, vy = px + hi * dx, py + hi * dy
    sector_in = math.atan2(px * uy - ux * py, px * ux + py * uy)
    triangle = ux * vy - vx * uy
    sector_out = math.atan2(vx * q[1] - q[0] * vy, vx * q[0] + vy * q[1])
    return 0.5 * (sector_in + triangle + sector_out)


def exact_overlap_ellipse_rect(ellipse: Ellipse, rect: Rect) -> float:
    """Area of the ellipse inside the rect, with no polygon.

    The affine map taking the ellipse to the unit disk takes the rect to
    a counter-clockwise parallelogram; the disk's area inside it is the
    sum, over its edges, of the disk's signed area inside the triangle
    from the origin to that edge.  Areas scale back by ``a * b``.  In the
    spirit of Hughes & Chraibi, "Calculating ellipse overlap areas",
    Computing and Visualization in Science, 2012: polygon pieces inside,
    elliptical sectors outside.
    """
    a, b = ellipse.semi_major, ellipse.semi_minor
    cos_t, sin_t = math.cos(ellipse.angle), math.sin(ellipse.angle)
    corners = []
    for x, y in (
        (rect.x_min, rect.y_min),
        (rect.x_max, rect.y_min),
        (rect.x_max, rect.y_max),
        (rect.x_min, rect.y_max),
    ):
        dx, dy = x - ellipse.center_x, y - ellipse.center_y
        corners.append(((dx * cos_t + dy * sin_t) / a, (dy * cos_t - dx * sin_t) / b))
    return a * b * sum(_disk_triangle_area(corners[i - 1], corners[i]) for i in range(4))


def exact_iou_rects(a: Rect, b: Rect) -> float:
    """Rectangle IoU in exact rational arithmetic on the float corners, rounded once."""
    ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 = (
        Fraction(v) for v in (a.x_min, a.y_min, a.x_max, a.y_max, b.x_min, b.y_min, b.x_max, b.y_max)
    )
    inter = max(min(ax1, bx1) - max(ax0, bx0), 0) * max(min(ay1, by1) - max(ay0, by0), 0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return float(inter / union) if union > 0 else 0.0


def exact_iou_ellipse_rect(ellipse: Ellipse, rect: Rect) -> float:
    """Ellipse/rect IoU from the exact overlap and the exact ellipse area."""
    rect_area = (rect.x_max - rect.x_min) * (rect.y_max - rect.y_min)
    if rect_area <= 0:
        return 0.0
    inter = exact_overlap_ellipse_rect(ellipse, rect)
    return inter / (math.pi * ellipse.semi_major * ellipse.semi_minor + rect_area - inter)


# --------------------------------------------------------------------
# Dense IoU matrix
# --------------------------------------------------------------------

def reference_iou_matrix(dets, gts):
    """Detection-by-ground-truth IoUs, one call per cell.

    No pruning: one polygon per ellipse column, then ``iou_rect`` or
    ``iou_ellipse_rect`` on every cell, row by row.
    """
    polygons = [
        ellipse_to_polygon(g.region) if isinstance(g.region, Ellipse) else None for g in gts
    ]
    return [
        [
            iou_rect(d.region, g.region)
            if polygon is None
            else iou_ellipse_rect(g.region, d.region, polygon=polygon)
            for g, polygon in zip(gts, polygons)
        ]
        for d in dets
    ]


# --------------------------------------------------------------------
# Exhaustive one-to-one assignment
# --------------------------------------------------------------------

def scale_rows_to_ints(rows):
    """Rescale a float matrix to exact integers.

    Every float is a dyadic rational, so putting all entries over the
    largest denominator (a power of two) loses nothing.  Totals of the
    scaled integers compare exactly where float sums would round.
    """
    denominators = [1]
    for row in rows:
        for value in row:
            denominators.append(float(value).as_integer_ratio()[1])
    common = max(denominators)
    scaled = []
    for row in rows:
        out = []
        for value in row:
            numerator, denominator = float(value).as_integer_ratio()
            out.append(numerator * (common // denominator))
        scaled.append(out)
    return scaled, common


def exhaustive_best_assignment(matrix, iou_threshold):
    """Best one-to-one assignment by dynamic programming over column sets.

    Considers every admissible assignment (entries strictly above the
    threshold); maximizes the exact integer-scaled total and breaks ties
    toward the lexicographically smallest sorted pair list.  Returns
    ``(pairs, total, scaled)`` where ``total`` is in scaled-integer
    units and ``scaled`` is the integer matrix for re-scoring other
    candidate assignments.
    """
    n_rows = len(matrix)
    n_cols = len(matrix[0]) if n_rows else 0
    scaled, _ = scale_rows_to_ints(matrix)
    # (total, pairs) per set of claimed columns; pairs grow in row order,
    # so plain tuple comparison is the sorted-pairs lexicographic order.
    layer = {0: (0, ())}
    for i in range(n_rows):
        out = dict(layer)
        for mask, (total, pairs) in layer.items():
            for j in range(n_cols):
                if mask & (1 << j) or not matrix[i][j] > iou_threshold:
                    continue
                key = mask | (1 << j)
                candidate = (total + scaled[i][j], pairs + ((i, j),))
                cur = out.get(key)
                if (
                    cur is None
                    or candidate[0] > cur[0]
                    or (candidate[0] == cur[0] and candidate[1] < cur[1])
                ):
                    out[key] = candidate
        layer = out
    best_total, best_pairs = 0, ()
    for total, pairs in layer.values():
        if total > best_total or (total == best_total and pairs < best_pairs):
            best_total, best_pairs = total, pairs
    return best_pairs, best_total, scaled


# --------------------------------------------------------------------
# Reference NMS (vectorized, array-based)
# --------------------------------------------------------------------

def reference_nms_indices(boxes: np.ndarray, scores: np.ndarray, thresh: float):
    """Greedy NMS over an (n, 4) x0/y0/x1/y1 array; returns kept indices.

    Continuous-coordinate areas (no pixel +1), suppression on overlap
    strictly greater than the threshold, score ties broken by index.
    """
    x0, y0, x1, y1 = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    areas = (x1 - x0) * (y1 - y0)
    order = np.lexsort((np.arange(len(scores)), -scores))
    keep = []
    while order.size > 0:
        i = order[0]
        keep.append(int(i))
        xx0 = np.maximum(x0[i], x0[order[1:]])
        yy0 = np.maximum(y0[i], y0[order[1:]])
        xx1 = np.minimum(x1[i], x1[order[1:]])
        yy1 = np.minimum(y1[i], y1[order[1:]])
        inter = np.maximum(0.0, xx1 - xx0) * np.maximum(0.0, yy1 - yy0)
        union = areas[i] + areas[order[1:]] - inter
        overlap = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
        order = order[1:][overlap <= thresh]
    return keep


# --------------------------------------------------------------------
# Re-matching ROC tally
# --------------------------------------------------------------------

def reference_greedy_pairs(matrix, order, iou_threshold):
    """Row-priority greedy matching: each row claims its best free column."""
    claimed = set()
    pairs = []
    n_cols = len(matrix[0]) if matrix else 0
    for i in order:
        best_j = -1
        best = iou_threshold
        for j in range(n_cols):
            if j not in claimed and matrix[i][j] > best:
                best = matrix[i][j]
                best_j = j
        if best_j >= 0:
            claimed.add(best_j)
            pairs.append((i, best_j, matrix[i][best_j]))
    return pairs


def roc_rematch_tallies(ds: EvalDataset, matcher: str, iou_threshold: float):
    """(thresholds, [(tp, fp, iou_total)]) recomputed from scratch per cut.

    No incremental sweeping: at every score cutoff the surviving
    detections of every image are re-matched in full, greedily by
    :func:`reference_greedy_pairs` or optimally by
    :func:`exhaustive_best_assignment`, on the IoUs of
    :func:`reference_iou_matrix` (whose cells ``test_geometry_oracle``
    checks against exact IoUs).  IoU totals use one fsum per image and
    one across images, mirroring how any correct aggregation would group
    them.
    """
    scores = sorted(
        {d.score for entry in ds.images.values() for d in entry.detections}, reverse=True
    )
    thresholds = [math.inf] + scores
    tallies = []
    for threshold in thresholds:
        tp = 0
        fp = 0
        per_image_sums = []
        for entry in ds.images.values():
            dets = [d for d in entry.detections if d.score >= threshold]
            matrix = reference_iou_matrix(dets, entry.ground_truths)
            if matcher == "greedy":
                order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
                matched = reference_greedy_pairs(matrix, order, iou_threshold)
                ious = [iou for _, _, iou in matched]
            else:
                pairs, _, _ = exhaustive_best_assignment(matrix, iou_threshold)
                ious = [matrix[i][j] for i, j in pairs]
            tp += len(ious)
            fp += len(dets) - len(ious)
            per_image_sums.append(math.fsum(ious))
        tallies.append((tp, fp, math.fsum(per_image_sums)))
    return thresholds, tallies


# --------------------------------------------------------------------
# Random instance generators
# --------------------------------------------------------------------

def random_rect(rng: random.Random, span: float = 80.0, quantum: float = 0.0) -> Rect:
    """A random box; a positive quantum snaps coordinates to its multiples."""
    x = rng.uniform(0.0, span)
    y = rng.uniform(0.0, span)
    w = rng.uniform(4.0, 32.0)
    h = rng.uniform(4.0, 32.0)
    if quantum > 0.0:
        x = round(x / quantum) * quantum
        y = round(y / quantum) * quantum
        w = max(round(w / quantum), 1) * quantum
        h = max(round(h / quantum), 1) * quantum
    return Rect(x, y, x + w, y + h)


def random_ellipse(rng: random.Random, span: float = 80.0) -> Ellipse:
    major = rng.uniform(6.0, 20.0)
    return Ellipse(
        center_x=rng.uniform(10.0, span),
        center_y=rng.uniform(10.0, span),
        semi_major=major,
        semi_minor=rng.uniform(3.0, major),
        angle=rng.uniform(0.0, math.pi),
    )


def _shifted(rect: Rect, rng: random.Random, amount: float, quantum: float) -> Rect:
    dx = rng.uniform(-amount, amount)
    dy = rng.uniform(-amount, amount)
    if quantum > 0.0:
        dx = round(dx / quantum) * quantum
        dy = round(dy / quantum) * quantum
    return Rect(rect.x_min + dx, rect.y_min + dy, rect.x_max + dx, rect.y_max + dy)


def random_match_instance(rng: random.Random, max_dets: int = 6, max_gts: int = 6):
    """Detections and ground truths for one image.

    Half the instances use quarter-unit coordinates and duplicated or
    translated-congruent boxes, which makes exactly tied IoU values
    common; the rest are generic floats.  Scores repeat occasionally to
    exercise index tie-breaking.
    """
    quantum = 0.25 if rng.random() < 0.5 else 0.0
    n_gts = rng.randint(0, max_gts)
    gts = [
        GroundTruth(region=random_rect(rng, quantum=quantum), image_id="img")
        for _ in range(n_gts)
    ]
    n_dets = rng.randint(0, max_dets)
    regions = []
    for _ in range(n_dets):
        roll = rng.random()
        if gts and roll < 0.5:
            regions.append(_shifted(gts[rng.randrange(n_gts)].region, rng, 8.0, quantum))
        elif regions and roll < 0.65:
            regions.append(regions[rng.randrange(len(regions))])
        else:
            regions.append(random_rect(rng, quantum=quantum))
    scores = []
    for _ in range(n_dets):
        if scores and rng.random() < 0.3:
            scores.append(rng.choice(scores))
        else:
            scores.append(round(rng.random(), 3))
    dets = [
        Detection(region=region, score=score, image_id="img")
        for region, score in zip(regions, scores)
    ]
    return dets, gts


def random_mini_dataset(
    rng: random.Random,
    max_images: int = 3,
    max_total_dets: int = 8,
    ellipse_share: float = 0.25,
) -> EvalDataset:
    """A small dataset with at least one ground truth.

    Ground truths mix boxes and ellipses; detections cluster around them
    with occasional strays; scores repeat across images now and then so
    several detections can share one ROC operating point.
    """
    while True:
        images = {}
        det_budget = rng.randint(0, max_total_dets)
        all_scores = []
        total_gts = 0
        for idx in range(rng.randint(1, max_images)):
            image_id = f"img/{idx}"
            n_gts = rng.randint(0, 3)
            total_gts += n_gts
            gts = []
            for _ in range(n_gts):
                if rng.random() < ellipse_share:
                    gts.append(GroundTruth(region=random_ellipse(rng), image_id=image_id))
                else:
                    gts.append(GroundTruth(region=random_rect(rng), image_id=image_id))
            n_dets = min(det_budget, rng.randint(0, 4))
            det_budget -= n_dets
            dets = []
            for _ in range(n_dets):
                if gts and rng.random() < 0.7:
                    anchor_gt = gts[rng.randrange(len(gts))].region
                    if isinstance(anchor_gt, Ellipse):
                        x0, y0, x1, y1 = _ellipse_bbox(anchor_gt)
                        base = Rect(x0, y0, x1, y1)
                    else:
                        base = anchor_gt
                    region = _shifted(base, rng, 6.0, 0.0)
                else:
                    region = random_rect(rng)
                if all_scores and rng.random() < 0.25:
                    score = rng.choice(all_scores)
                else:
                    score = round(rng.random(), 3)
                all_scores.append(score)
                dets.append(Detection(region=region, score=score, image_id=image_id))
            images[image_id] = (dets, gts)
        if total_gts > 0:
            return EvalDataset.from_images(images)
