"""Exponent solvers, lattice classification, diagnostics, comparison.

Core claims:
    - gamma_r of the third-fifth model matches an independent brentq solve
      of (1/6)^g + (1/15)^g = 5/6 and the literature value 0.396403
    - closed forms: ln2/ln6 for the middle-third letter, 1/2 for the
      Lebesgue-like letter, Hausdorff dimensions ln2/ln3 and ln3/ln5
    - gamma_h has the log-mean closed form and is strictly below gamma_r
      unless all letters share a per-letter alpha
    - the one-point support is lattice with span ln6; {ln4, ln16} has span
      ln4; {ln6, ln15} is non-lattice
    - Malthusian residual vanishes at gamma_r; the tilted first moment and
      x log x functional match hand sums
    - the Nerman constant matches direct numerical integration
    - every function of a model refuses an inadmissible one with the same
      error, on every call, and validates a valid model once per object
"""
import math

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from cantorstring import (
    IfsModel,
    build_report,
    check_equality_condition,
    classify_lattice,
    contraction_products,
    hausdorff_dimension,
    make_letter,
    malthusian_diagnostics,
    middle_third_letter,
    nerman_constant_hat_phi,
    random_model,
    single_letter_model,
    solve_homogeneous_exponent,
    solve_recursive_exponent,
)
from cantorstring import ifs
from cantorstring.exponent import EQUAL, STRICTLY_LESS, _alpha, mean_product_power
from cantorstring.ifs import five_interval_letter

from conftest import GAMMA_H_THIRD_FIFTH, GAMMA_R_THIRD_FIFTH

LN6 = math.log(6.0)
LN15 = math.log(15.0)


class TestRecursiveExponent:
    def test_third_fifth_vs_independent_solver(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        oracle = brentq(lambda g: (1 / 6) ** g + (1 / 15) ** g - 5 / 6,
                        0.1, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert gamma == pytest.approx(oracle, abs=1e-12)
        assert gamma == pytest.approx(0.396403, abs=1e-5)
        assert gamma == pytest.approx(GAMMA_R_THIRD_FIFTH, abs=1e-13)

    def test_middle_third_closed_form(self, middle_third):
        assert solve_recursive_exponent(middle_third) == pytest.approx(
            math.log(2) / LN6, abs=1e-12)

    def test_lebesgue_weyl_exponent(self, lebesgue):
        assert solve_recursive_exponent(lebesgue) == pytest.approx(0.5, abs=1e-12)

    def test_residual_tiny_on_random_models(self):
        for seed in range(100):
            model = random_model(seed)
            gamma = solve_recursive_exponent(model)
            assert abs(mean_product_power(model, gamma) - 1.0) <= 1e-14

    def test_f_strictly_decreasing(self):
        for seed in range(10):
            model = random_model(seed)
            values = [mean_product_power(model, s) for s in (0.0, 0.3, 0.7, 1.5, 4.0)]
            assert values[0] >= 2.0
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_natural_measure_identity(self):
        # weights m_i = r_i^d make gamma solve sum r^((1+d) g) = 1
        ratios = (1 / 3, 1 / 4)
        d = brentq(lambda t: sum(r ** t for r in ratios) - 1, 0.0, 1.0,
                   xtol=1e-15, rtol=8.9e-16)
        letter = make_letter("nat", [(ratios[0], 0.0), (ratios[1], 0.75)],
                             tuple(r ** d for r in ratios))
        gamma = solve_recursive_exponent(single_letter_model(letter))
        oracle = brentq(lambda g: sum(r ** ((1 + d) * g) for r in ratios) - 1,
                        0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert gamma == pytest.approx(oracle, abs=1e-12)


class TestHomogeneousExponent:
    def test_single_letter_coincides(self, middle_third):
        assert solve_homogeneous_exponent(middle_third) == pytest.approx(
            solve_recursive_exponent(middle_third), abs=1e-13)

    def test_third_fifth_closed_form(self, third_fifth):
        gamma = solve_homogeneous_exponent(third_fifth)
        closed = (0.6 * math.log(2) + 0.4 * math.log(3)) / (0.6 * LN6 + 0.4 * LN15)
        assert gamma == pytest.approx(closed, abs=1e-12)
        assert gamma == pytest.approx(GAMMA_H_THIRD_FIFTH, abs=1e-12)
        assert gamma < solve_recursive_exponent(third_fifth)

    def test_degenerate_probs_reduce_to_single_letter(self):
        model = IfsModel((0.0, 1.0), (middle_third_letter(), five_interval_letter()),
                         (1.0, 0.0))
        assert solve_homogeneous_exponent(model) == pytest.approx(
            math.log(2) / LN6, abs=1e-12)
        assert solve_recursive_exponent(model) == pytest.approx(
            math.log(2) / LN6, abs=1e-12)


class TestHausdorff:
    def test_middle_third(self):
        assert hausdorff_dimension(middle_third_letter()) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12)

    def test_five_interval(self):
        assert hausdorff_dimension(five_interval_letter()) == pytest.approx(
            math.log(3) / math.log(5), abs=1e-12)

    def test_full_interval(self):
        letter = make_letter("halves", [(0.5, 0.0), (0.5, 0.5)], (0.5, 0.5))
        assert hausdorff_dimension(letter) == 1.0

    def test_residual(self):
        for seed in range(30):
            letter = random_model(seed).letters[0]
            d = hausdorff_dimension(letter)
            assert abs(math.fsum(s.ratio ** d for s in letter.maps) - 1.0) <= 1e-12


class TestLattice:
    def test_one_point_support(self, middle_third):
        result = classify_lattice(middle_third)
        assert result.lattice and result.span == pytest.approx(LN6, abs=1e-12)

    def test_integer_multiples(self):
        # products (1/4, 1/16): offsets {ln4, 2 ln4}
        letter = make_letter("pow4", [(0.5, 0.0), (0.125, 0.875)], (0.5, 0.5))
        assert contraction_products(letter) == pytest.approx([0.25, 0.0625])
        result = classify_lattice(single_letter_model(letter))
        assert result.lattice and result.span == pytest.approx(math.log(4), abs=1e-9)

    def test_third_fifth_non_lattice(self, third_fifth):
        assert not classify_lattice(third_fifth).lattice

    def test_permutation_invariant(self, third_fifth):
        flipped = IfsModel((0.0, 1.0), tuple(reversed(third_fifth.letters)),
                           tuple(reversed(third_fifth.probs)))
        assert classify_lattice(flipped) == classify_lattice(third_fifth)

    def test_zero_prob_letters_ignored(self):
        model = IfsModel((0.0, 1.0), (middle_third_letter(), five_interval_letter()),
                         (1.0, 0.0))
        result = classify_lattice(model)
        assert result.lattice and result.span == pytest.approx(LN6, abs=1e-12)


class TestMalthusian:
    def test_residual_at_gamma(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        diag = malthusian_diagnostics(third_fifth, gamma)
        assert diag.condition1_residual <= 1e-12

    def test_single_letter_moment(self, middle_third):
        gamma = solve_recursive_exponent(middle_third)
        diag = malthusian_diagnostics(middle_third, gamma)
        # one-point support: mass 1 at ln6 after the tilt
        assert diag.condition2_value == pytest.approx(LN6, abs=1e-12)

    def test_hand_sums(self, third_fifth):
        gamma = 0.3
        diag = malthusian_diagnostics(third_fifth, gamma)
        m2 = (0.6 * 2 * LN6 * 6 ** -gamma + 0.4 * 3 * LN15 * 15 ** -gamma)
        x1 = 2 * 6 ** -gamma
        x2 = 3 * 15 ** -gamma
        xlogx = 0.6 * x1 * max(math.log(x1), 0.0) + 0.4 * x2 * max(math.log(x2), 0.0)
        assert diag.condition2_value == pytest.approx(m2, abs=1e-12)
        assert diag.xlogx_value == pytest.approx(xlogx, abs=1e-12)

    def test_finite_on_random_models(self):
        for seed in range(20):
            model = random_model(seed)
            diag = malthusian_diagnostics(model, solve_recursive_exponent(model))
            assert math.isfinite(diag.condition2_value)
            assert math.isfinite(diag.xlogx_value)
            assert diag.xlogx_value >= 0.0


class TestEqualityCondition:
    def test_single_letter(self, middle_third):
        assert check_equality_condition(middle_third) == EQUAL

    def test_third_fifth(self, third_fifth):
        assert check_equality_condition(third_fifth) == STRICTLY_LESS
        assert _alpha(contraction_products(third_fifth.letters[0])) == pytest.approx(
            math.log(2) / LN6, abs=1e-12)
        assert _alpha(contraction_products(third_fifth.letters[1])) == pytest.approx(
            math.log(3) / LN15, abs=1e-12)

    def test_constructed_equal_pair(self, balanced_pair):
        assert check_equality_condition(balanced_pair) == EQUAL
        gr = solve_recursive_exponent(balanced_pair)
        gh = solve_homogeneous_exponent(balanced_pair)
        assert abs(gr - gh) <= 1e-9

    def test_jensen_direction(self):
        for seed in range(100):
            model = random_model(seed, balanced=(seed % 3 == 0))
            gr = solve_recursive_exponent(model)
            gh = solve_homogeneous_exponent(model)
            assert gh <= gr + 1e-12
            assert (check_equality_condition(model) == EQUAL) == (abs(gr - gh) <= 1e-9)


class TestNermanConstant:
    def test_single_letter_closed_form(self, middle_third):
        gamma = math.log(2) / LN6
        assert nerman_constant_hat_phi(middle_third, gamma) == pytest.approx(
            1.0 / (gamma * LN6), abs=1e-12)

    def test_third_fifth_vs_quadrature(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        value = nerman_constant_hat_phi(third_fifth, gamma)
        assert value > 0

        def mean_unborn(t):
            # E #(offsets > t): each letter contributes its count of offsets past t
            total = 0.0
            for letter, p in zip(third_fifth.letters, third_fifth.probs):
                taus = [-math.log(q) for q in contraction_products(letter)]
                total += p * sum(1 for tau in taus if tau > t)
            return total

        numerator, _ = quad(lambda t: math.exp(-gamma * t) * mean_unborn(t),
                            0.0, LN15, points=[LN6], limit=200)
        denominator = (0.6 * 2 * LN6 * 6 ** -gamma + 0.4 * 3 * LN15 * 15 ** -gamma)
        assert value == pytest.approx(numerator / denominator, rel=1e-9)

    def test_positive_on_random_models(self):
        for seed in range(20):
            model = random_model(seed)
            gamma = solve_recursive_exponent(model)
            assert nerman_constant_hat_phi(model, gamma) > 0.0


class TestReport:
    def test_third_fifth_report(self, third_fifth):
        report = build_report(third_fifth)
        assert report.gamma_r == pytest.approx(GAMMA_R_THIRD_FIFTH, abs=1e-13)
        assert report.gamma_h <= report.gamma_r + 1e-12
        assert report.comparison == STRICTLY_LESS
        assert not report.lattice.lattice
        assert report.malthusian_ok
        assert report.hausdorff["third"] == pytest.approx(math.log(2) / math.log(3),
                                                          abs=1e-12)
        payload = report.to_dict()
        assert set(payload) == {"gamma_r", "gamma_h", "hausdorff", "lattice",
                                "malthusian_ok", "condition2_value", "xlogx_value",
                                "comparison"}

    def test_invalid_model_rejected(self):
        # maps 1 and 2 overlap: S_1(1) = 0.6 > S_2(0) = 0.4
        letter = make_letter("overlap", [(0.6, 0.0), (0.6, 0.4)], (0.5, 0.5))
        model = single_letter_model(letter)
        entry_points = (build_report, solve_recursive_exponent, solve_homogeneous_exponent,
                        check_equality_condition, classify_lattice,
                        lambda m: mean_product_power(m, 0.5),
                        lambda m: malthusian_diagnostics(m, 0.5),
                        lambda m: nerman_constant_hat_phi(m, 0.5))
        for call in entry_points * 2:  # a failed check is not cached
            with pytest.raises(ValueError, match="invalid model: .*overlap"):
                call(model)
        with pytest.raises(ValueError, match="gamma must be positive"):
            malthusian_diagnostics(model, 0.0)

    def test_validates_once_per_model_object(self, monkeypatch):
        # the exponent-sweep unit: compare --random's three calls, then the report
        calls = []
        validate = ifs.validate_model
        monkeypatch.setattr(ifs, "validate_model", lambda m: calls.append(m) or validate(m))
        model = random_model(12345)
        solve_recursive_exponent(model)
        solve_homogeneous_exponent(model)
        check_equality_condition(model)
        build_report(model)
        assert calls == [model]

    def test_invalid_gamma_rejected(self, third_fifth):
        with pytest.raises(ValueError):
            malthusian_diagnostics(third_fifth, 0.0)
        with pytest.raises(ValueError):
            nerman_constant_hat_phi(third_fifth, -1.0)
