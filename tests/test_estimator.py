"""Slope fitting and normalized limits of counting curves.

Core claims:
    - a synthetic floor(x^0.5) curve fits slope 0.5 within 0.01
    - the Lebesgue string fits the Weyl slope and the 1/pi constant
    - normalization of an exact power curve is constant one
    - the slope is invariant under scaling all counts
    - thin or narrow curves are rejected
    - lattice normalized tails stay in a bounded positive band on the
      span subsequence
"""
import math

import numpy as np
import pytest

from cantorstring import (
    StieltjesString,
    counting_curve,
    fit_exponent,
    sample_tree,
    solve_recursive_exponent,
    tail_statistics,
)
from cantorstring.measure import atomize, build_cells
from cantorstring.tree import StopRule


def dirichlet_curve(string, grid):
    return [(s.x, s.count_dirichlet) for s in counting_curve(string, grid)]


class TestFitExponent:
    def test_synthetic_square_root(self):
        xs = np.geomspace(1e2, 1e8, 80)
        curve = [(float(x), float(math.floor(x ** 0.5))) for x in xs]
        slope, stderr = fit_exponent(curve)
        assert slope == pytest.approx(0.5, abs=0.01)
        assert stderr >= 0.0

    def test_lebesgue_string(self):
        u = StieltjesString.uniform(2000)
        curve = dirichlet_curve(u, np.geomspace(10, 1e5, 80))
        slope, _ = fit_exponent(curve)
        assert slope == pytest.approx(0.5, abs=0.02)

    def test_scale_invariance(self):
        xs = np.geomspace(1e2, 1e8, 60)
        curve = [(float(x), float(math.floor(x ** 0.5))) for x in xs]
        scaled = [(x, 5.0 * c) for x, c in curve]
        assert fit_exponent(scaled)[0] == pytest.approx(fit_exponent(curve)[0], abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_exponent([(10.0 ** k, 10.0 ** k) for k in range(5)])

    def test_narrow_span(self):
        xs = np.geomspace(10, 500, 30)
        with pytest.raises(ValueError):
            fit_exponent([(float(x), float(x)) for x in xs])

    def test_window_selects_top_decades(self):
        # a curve that kinks at 1e4: the default window only sees the tail
        xs = np.geomspace(1e2, 1e8, 120)
        curve = [(float(x), float(x ** 0.3) if x < 1e4 else float(x ** 0.6) / 10 ** 3)
                 for x in xs]
        slope, _ = fit_exponent(curve)
        assert slope == pytest.approx(0.6, abs=0.02)


class TestNormalizedLimit:
    def test_exact_power_is_constant(self):
        xs = np.geomspace(1.0, 1e6, 30)
        curve = [(float(x), float(x ** 0.4)) for x in xs]
        mean, cv = tail_statistics(curve, 0.4)
        assert mean == pytest.approx(1.0)
        assert cv == pytest.approx(0.0, abs=1e-12)

    def test_weyl_constant(self):
        u = StieltjesString.uniform(10_000)
        curve = dirichlet_curve(u, np.geomspace(10, 1e6, 120))
        mean, cv = tail_statistics(curve, 0.5)
        assert mean == pytest.approx(1.0 / math.pi, rel=0.05)
        assert cv < 0.05


class TestLatticeBoundedness:
    def test_span_subsequence_band(self, middle_third):
        gamma = solve_recursive_exponent(middle_third)
        span = math.log(6.0)
        tree = sample_tree(middle_third, StopRule.depth(9), 0)
        string = StieltjesString.from_measure(atomize(build_cells(tree, 9)))
        ks = range(4, 14)
        vals = []
        for k in ks:
            x = math.exp(k * span)
            nd = counting_curve(string, [x])[0].count_dirichlet
            vals.append(nd * x ** -gamma)
        assert all(v > 0 for v in vals)
        assert max(vals) / min(vals) < 10.0

