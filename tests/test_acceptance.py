"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.

 1. third-fifth exponent 0.396403 +- 1e-5, under 1 ms
 2. closed-form exponents and Hausdorff dimensions to 1e-12, under 1 ms
 3. gamma_h <= gamma_r over 1000 random models; Equal <=> |diff| <= 1e-9
 4. inertia == dense counts on 500 random strings x 20 shifts
 5. Weyl sanity: slope 0.500 +- 0.02, tail within 5% of 1/pi
 6. gap in {0,1,2} and the bracketing chain on 50 seeds at depth 8
 7. per-seed slope within 0.05 of gamma_r, tail dispersion across seeds
 8. martingale suite: mean R_50 = 1 +- 3 SE over 1e4 seeds, R_n >= 0,
    balanced models pin R_n at 1
 9. e^(-gamma t) z_t at t=12 within 10% of the closed-form constant
10. byte-identical CLI replays
"""
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cantorstring import (
    StieltjesString,
    atomize,
    build_cells,
    check_bracketing,
    check_equality_condition,
    count_dirichlet,
    count_neumann,
    counting_curve,
    dense_count,
    fit_exponent,
    hausdorff_dimension,
    lebesgue_model,
    leaf_cells,
    middle_third_letter,
    nerman_constant_hat_phi,
    random_model,
    sample_tree,
    single_letter_model,
    solve_homogeneous_exponent,
    solve_recursive_exponent,
    tail_statistics,
    third_fifth_model,
    validate_model,
)
from cantorstring.branching import forests, martingale_traces, z_by_root
from cantorstring.cli import main as cli_main
from cantorstring.exponent import EQUAL
from cantorstring.ifs import five_interval_letter
from cantorstring.tree import StopRule


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"[PASS] criterion {num}: {label} ({elapsed:.2f}s)")


def best_of(repeats: int, fn) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_c01_exponent_reproduction():
    with criterion(1, "third-fifth gamma_r = 0.396403 +- 1e-5, < 1 ms", 30.0):
        model = third_fifth_model()
        gamma = solve_recursive_exponent(model)
        assert gamma == pytest.approx(0.396403, abs=1e-5)
        assert best_of(50, lambda: solve_recursive_exponent(model)) < 1e-3


def test_c02_closed_form_exponents():
    with criterion(2, "closed forms to 1e-12, < 1 ms each", 30.0):
        mt = single_letter_model(middle_third_letter())
        lb = lebesgue_model()
        assert solve_recursive_exponent(mt) == pytest.approx(
            math.log(2) / math.log(6), abs=1e-12)
        assert solve_recursive_exponent(lb) == pytest.approx(0.5, abs=1e-12)
        assert hausdorff_dimension(middle_third_letter()) == pytest.approx(
            math.log(2) / math.log(3), abs=1e-12)
        assert hausdorff_dimension(five_interval_letter()) == pytest.approx(
            math.log(3) / math.log(5), abs=1e-12)
        assert best_of(50, lambda: solve_recursive_exponent(mt)) < 1e-3
        assert best_of(50, lambda: hausdorff_dimension(five_interval_letter())) < 1e-3


def test_c03_jensen_comparison():
    with criterion(3, "gamma_h <= gamma_r on 1000 random models, verdict <=> gap", 10.0):
        for k in range(1000):
            model = random_model(k, balanced=(k % 4 == 0))
            assert validate_model(model) == []
            gr = solve_recursive_exponent(model)
            gh = solve_homogeneous_exponent(model)
            assert gh <= gr + 1e-12
            verdict_equal = check_equality_condition(model) == EQUAL
            assert verdict_equal == (abs(gr - gh) <= 1e-9)


def test_c04_solver_oracle_equivalence():
    with criterion(4, "inertia == dense on 500 strings x 20 shifts", 60.0):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 200)
            positions = sorted(rng.uniform(0.01, 0.99) for _ in range(n))
            masses = [10 ** rng.uniform(-3, 0) for _ in range(n)]
            string = StieltjesString((0.0, 1.0), positions, masses)
            for _ in range(20):
                x = 10 ** rng.uniform(-2, 9)
                assert count_dirichlet(string, x) == dense_count(string, x, "dirichlet")
                assert count_neumann(string, x) == dense_count(string, x, "neumann")


def test_c05_weyl_sanity():
    with criterion(5, "uniform 1e4 string: slope 0.5 +- 0.02, tail ~ 1/pi +- 5%", 30.0):
        string = StieltjesString.uniform(10_000)
        grid = np.geomspace(10.0, 1e6, 160)
        curve = [(s.x, s.count_dirichlet) for s in counting_curve(string, grid)]
        slope, _ = fit_exponent(curve)
        assert slope == pytest.approx(0.500, abs=0.02)
        tail_mean, _ = tail_statistics(curve, 0.5)
        assert tail_mean == pytest.approx(1.0 / math.pi, rel=0.05)


def test_c06_gap_and_bracketing():
    with criterion(6, "gap in {0,1,2} and bracketing chain, 50 seeds depth 8", 300.0):
        model = third_fifth_model()
        grid = np.geomspace(1.0, 1e6, 12)
        for seed in range(50):
            tree = sample_tree(model, StopRule.depth(8), seed)
            string = StieltjesString.from_measure(atomize(build_cells(tree, 8)))
            for sample in counting_curve(string, grid):
                assert 0 <= sample.count_neumann - sample.count_dirichlet <= 2
            for x in grid:
                assert check_bracketing(tree, 8, float(x))


def test_c07_spectral_slope_vs_theory():
    with criterion(7, "slope within 0.05 of gamma_r per seed, tail CV > 1%", 600.0):
        model = third_fifth_model()
        gamma = solve_recursive_exponent(model)
        grid = np.geomspace(1.0, 1e9, 120)
        tails = []
        for seed in range(10):
            tree = sample_tree(model, StopRule.resolution(1e-6), seed)
            string = StieltjesString.from_measure(atomize(leaf_cells(tree)))
            curve = [(s.x, s.count_dirichlet) for s in counting_curve(string, grid)]
            slope, _ = fit_exponent(curve)
            assert abs(slope - gamma) <= 0.05
            tail_mean, _ = tail_statistics(curve, gamma)
            tails.append(tail_mean)
        tails = np.asarray(tails)
        cv = tails.std(ddof=1) / tails.mean()
        assert cv > 0.01  # the random factor W shows up across seeds


def test_c08_martingale_suite():
    with criterion(8, "mean R_50 = 1 +- 3 SE over 1e4 seeds; R_n >= 0; balanced == 1",
                   120.0):
        model = third_fifth_model()
        gamma = solve_recursive_exponent(model)
        r50 = np.empty(10_000)
        traces = (trace for run in forests(model, 14.0, range(10_000), gamma)
                  for trace in martingale_traces(run, gamma))
        for seed, trace in enumerate(traces):
            assert len(trace) > 50
            assert min(trace) >= 0.0
            r50[seed] = trace[50]
        assert seed == len(r50) - 1  # one trace per seed
        se = r50.std(ddof=1) / math.sqrt(len(r50))
        assert abs(r50.mean() - 1.0) <= 3 * se

        # per-letter balanced alphabet: R_n pinned at 1
        alpha = math.log(2) / math.log(6)
        r = 3.0 ** (1.0 - 1.0 / alpha)
        from cantorstring import IfsModel, make_letter
        tri = make_letter("tri", [(r, 0.0), (r, (1 - r) / 2), (r, 1.0 - r)],
                          (1 / 3, 1 / 3, 1 / 3))
        balanced = IfsModel((0.0, 1.0), (middle_third_letter(), tri), (0.5, 0.5))
        gb = solve_recursive_exponent(balanced)
        for run in forests(balanced, 12.0, range(50), gb):
            for trace in martingale_traces(run, gb):
                assert max(abs(v - 1.0) for v in trace) <= 1e-9


def test_c09_cmj_strong_law():
    with criterion(9, "mean e^(-gamma t) z_t at t=12 within 10% of the constant",
                   300.0):
        model = third_fifth_model()
        gamma = solve_recursive_exponent(model)
        target = nerman_constant_hat_phi(model, gamma)
        t = 12.0
        scale = math.exp(-gamma * t)
        values = [scale * z for run in forests(model, t, range(1000), gamma)
                  for z in z_by_root(run, t)]
        assert len(values) == 1000  # one z per seed
        assert abs(np.mean(values) / target - 1.0) <= 0.10


def test_c10_cli_determinism(tmp_path, models_dir):
    with criterion(10, "CLI re-runs are byte-identical", 120.0):
        model = str(models_dir / "third-fifth.json")
        outputs = {}
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            cli_main(["exponent", "--model", model, "--out", str(d / "report.json")])
            cli_main(["curve", "--model", model, "--seed", "42", "--depth", "6",
                      "--grid", "1:1e5:40", "--out", str(d / "curve.csv")])
            cli_main(["branching", "--model", model, "--seed", "7", "--tmax", "8",
                      "--out", str(d / "events.csv"),
                      "--martingale-out", str(d / "mart.csv"),
                      "--z-out", str(d / "z.csv")])
            cli_main(["compare", "--random", "20", "--seed", "5",
                      "--out", str(d / "compare.json")])
            outputs[tag] = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        assert outputs["a"].keys() == outputs["b"].keys()
        for name in outputs["a"]:
            assert outputs["a"][name] == outputs["b"][name], name
