"""The Monte Carlo oracles write into reused buffers; their estimates must
equal those of the plain array expressions they replace."""

import math
import random

import numpy as np

import oracles
from facemetrics.geometry import Rect


def _in_box(px, py, x0, y0, x1, y1):
    return (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)


def _ratio(in_a, in_b):
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def _allocating_iou_rects(a, b, samples):
    x0, y0 = min(a.x_min, b.x_min), min(a.y_min, b.y_min)
    x1, y1 = max(a.x_max, b.x_max), max(a.y_max, b.y_max)
    px = x0 + (x1 - x0) * samples[0]
    py = y0 + (y1 - y0) * samples[1]
    return _ratio(
        _in_box(px, py, a.x_min, a.y_min, a.x_max, a.y_max),
        _in_box(px, py, b.x_min, b.y_min, b.x_max, b.y_max),
    )


def _allocating_iou_ellipse_rect(e, r, samples):
    ex0, ey0, ex1, ey1 = oracles._ellipse_bbox(e)
    x0, y0 = min(ex0, r.x_min), min(ey0, r.y_min)
    x1, y1 = max(ex1, r.x_max), max(ey1, r.y_max)
    px = x0 + (x1 - x0) * samples[0]
    py = y0 + (y1 - y0) * samples[1]
    dx = px - e.center_x
    dy = py - e.center_y
    cos_t = math.cos(e.angle)
    sin_t = math.sin(e.angle)
    u = (dx * cos_t + dy * sin_t) / e.semi_major
    v = (dy * cos_t - dx * sin_t) / e.semi_minor
    return _ratio(u * u + v * v <= 1.0, _in_box(px, py, r.x_min, r.y_min, r.x_max, r.y_max))


def test_buffered_monte_carlo_estimates_are_unchanged():
    rng = random.Random(5)
    for n in (10**5, 777):
        samples = oracles.unit_samples(n, n)
        work = oracles.mc_work(n)
        for _ in range(30):
            a = oracles.random_rect(rng, span=60.0)
            b = oracles._shifted(a, rng, 10.0, 0.0) if rng.random() < 0.7 else oracles.random_rect(rng)
            assert oracles.mc_iou_rects(a, b, samples, work) == _allocating_iou_rects(a, b, samples)
            assert oracles.mc_iou_rects(a, b, samples) == _allocating_iou_rects(a, b, samples)
            e = oracles.random_ellipse(rng)
            x0, y0, x1, y1 = oracles._ellipse_bbox(e)
            r = oracles._shifted(Rect(x0, y0, x1, y1), rng, 8.0, 0.0)
            want = _allocating_iou_ellipse_rect(e, r, samples)
            assert oracles.mc_iou_ellipse_rect(e, r, samples, work) == want
            assert oracles.mc_iou_ellipse_rect(e, r, samples) == want
