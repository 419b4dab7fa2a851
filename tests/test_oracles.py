"""The Monte Carlo oracles write into reused buffers; their estimates must
equal those of the plain array expressions they replace.  The exact
ellipse/rect overlap meets closed forms, and the Monte Carlo ellipse IoU
agrees with it."""

import math
import random

import numpy as np
import pytest

import oracles
from facemetrics.geometry import Ellipse, Rect


def _in_box(px, py, x0, y0, x1, y1):
    return (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)


def _ratio(in_a, in_b):
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


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
            e = oracles.random_ellipse(rng)
            x0, y0, x1, y1 = oracles._ellipse_bbox(e)
            r = oracles._shifted(Rect(x0, y0, x1, y1), rng, 8.0, 0.0)
            want = _allocating_iou_ellipse_rect(e, r, samples)
            assert oracles.mc_iou_ellipse_rect(e, r, samples, work) == want
            assert oracles.mc_iou_ellipse_rect(e, r, samples) == want


def test_exact_ellipse_rect_overlap_meets_closed_forms():
    overlap = oracles.exact_overlap_ellipse_rect
    circle = Ellipse(3.0, -2.0, 10.0, 10.0, 0.3)
    for e in (circle, Ellipse(5.0, 3.0, 8.0, 3.0, 0.7)):
        area = math.pi * e.semi_major * e.semi_minor
        x, y = e.center_x, e.center_y
        # Holding it, inside it, clear of it, and halved by a line through the center.
        assert overlap(e, Rect(x - 20, y - 20, x + 20, y + 20)) == pytest.approx(area, rel=1e-14)
        assert overlap(e, Rect(x - 1, y - 1, x + 1, y + 0.5)) == pytest.approx(3.0, rel=1e-14)
        assert abs(overlap(e, Rect(x + 30, y, x + 40, y + 9))) < 1e-12
        assert overlap(e, Rect(x - 50, y, x + 50, y + 50)) == pytest.approx(area / 2, rel=1e-14)
    # A circle's quarter, and its segment beyond a chord 5 from the center.
    assert overlap(circle, Rect(3.0, -2.0, 20.0, 20.0)) == pytest.approx(25.0 * math.pi, rel=1e-14)
    segment = 100.0 * math.acos(0.5) - 5.0 * math.sqrt(75.0)
    assert overlap(circle, Rect(8.0, -30.0, 20.0, 20.0)) == pytest.approx(segment, rel=1e-13)
    # An ellipse's cap beyond x = 0.6 a: the unit disk's segment, scaled by a * b.
    unit_segment = math.acos(0.6) - 0.6 * 0.8
    cap = overlap(Ellipse(0.0, 0.0, 4.0, 2.0, 0.0), Rect(2.4, -5.0, 9.0, 5.0))
    assert cap == pytest.approx(8.0 * unit_segment, rel=1e-13)
    assert oracles.exact_iou_ellipse_rect(circle, Rect(1.0, 1.0, 1.0, 2.0)) == 0.0


def test_monte_carlo_ellipse_iou_agrees_with_the_exact_oracle():
    n = 10**6
    samples = oracles.unit_samples(11, n)
    work = oracles.mc_work(n)
    rng = random.Random(6)
    worst = 0.0
    for _ in range(20):
        e = oracles.random_ellipse(rng)
        x0, y0, x1, y1 = oracles._ellipse_bbox(e)
        r = oracles._shifted(Rect(x0, y0, x1, y1), rng, 8.0, 0.0)
        exact = oracles.exact_iou_ellipse_rect(e, r)
        worst = max(worst, abs(oracles.mc_iou_ellipse_rect(e, r, samples, work) - exact))
    # Several times the standard error of a 10**6-sample estimate (under 1e-3).
    assert worst < 5e-3, f"worst Monte Carlo deviation {worst:.2e}"
