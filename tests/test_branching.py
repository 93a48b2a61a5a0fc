"""Population simulation, the fundamental martingale, and the z process.

Core claims:
    - the horizon-zero run contains exactly the ancestor with its future
      child birth times
    - deterministic one-letter clocks: generation n is born at n ln6 and
      R_n is identically one
    - child birth times replay the sampled tree labels (shared draws)
    - E R_n = 1 within Monte Carlo error; R_n is never negative
    - balanced alphabets keep R_n at one to rounding
    - z_t counts (mother <= t < child) pairs; jumps only on the lattice
      clock for lattice models
    - e^(-gamma t) z_t tracks the closed-form constant at moderate t
"""
import math

import numpy as np
import pytest

from cantorstring import (
    martingale_R,
    martingale_trace,
    nerman_constant_hat_phi,
    sample_tree,
    simulate_population,
    solve_recursive_exponent,
    z_process,
)
from cantorstring.branching import export_events_csv, export_martingale_csv, export_z_csv
from cantorstring.tree import StopRule

LN6 = math.log(6.0)


class TestSimulation:
    def test_horizon_zero(self, third_fifth):
        run = simulate_population(third_fifth, 0.0, 3)
        assert len(run) == 1
        (event,) = run.events
        assert event.address == () and event.sigma == 0.0
        assert all(tau > 0 for tau in event.child_offsets)

    def test_negative_horizon_rejected(self, third_fifth):
        for t_max in (-1.0, math.nan):
            with pytest.raises(ValueError):
                simulate_population(third_fifth, t_max, 0)

    @pytest.mark.parametrize("probs", [(0.0, 1.0), (1.0, 0.0)])
    def test_zero_probability_letter_never_drawn(self, third_fifth, probs):
        from cantorstring import IfsModel
        model = IfsModel(third_fifth.interval, third_fifth.letters, probs)
        drawn = model.letters[probs.index(1.0)].id
        for seed in range(20):
            run = simulate_population(model, 6.0, seed)
            assert {event.letter_id for event in run.events} == {drawn}

    def test_deterministic_clock(self, middle_third):
        run = simulate_population(middle_third, 3.5 * LN6, 7)
        by_gen = {}
        for event in run.events:
            by_gen.setdefault(len(event.address), []).append(event.sigma)
        assert sorted(by_gen) == [0, 1, 2, 3]
        for n, sigmas in by_gen.items():
            assert len(sigmas) == 2 ** n
            assert sigmas == pytest.approx([n * LN6] * len(sigmas), abs=1e-12)

    def test_birth_order_sorted(self, third_fifth):
        run = simulate_population(third_fifth, 8.0, 11)
        sigmas = [event.sigma for event in run.events]
        assert sigmas == sorted(sigmas)

    def test_prefix_closed(self, third_fifth):
        run = simulate_population(third_fifth, 8.0, 11)
        present = {event.address for event in run.events}
        for address in present:
            if address:
                assert address[:-1] in present

    def test_replays_tree_labels(self, third_fifth):
        seed = 5
        run = simulate_population(third_fifth, 7.0, seed)
        tree = sample_tree(third_fifth, StopRule.depth(6), seed)
        events = {event.address: event for event in run.events}
        for address, event in events.items():
            if address in tree:
                assert event.letter_id == tree.letter_id(address)
            if address:
                mother = events[address[:-1]]
                tau = mother.child_offsets[address[-1] - 1]
                assert event.sigma == pytest.approx(mother.sigma + tau, abs=1e-12)

    def test_determinism(self, third_fifth):
        r1 = simulate_population(third_fifth, 6.0, 42)
        r2 = simulate_population(third_fifth, 6.0, 42)
        assert [e.address for e in r1.events] == [e.address for e in r2.events]
        assert [e.sigma for e in r1.events] == [e.sigma for e in r2.events]


class TestMartingale:
    def test_r0_is_one(self, third_fifth):
        run = simulate_population(third_fifth, 5.0, 1)
        assert martingale_R(run, 0) == 1.0

    def test_single_letter_identically_one(self, middle_third):
        gamma = solve_recursive_exponent(middle_third)
        run = simulate_population(middle_third, 4 * LN6, 3)
        trace = martingale_trace(run, gamma)
        assert max(abs(v - 1.0) for v in trace) <= 1e-12

    def test_r1_closed_form(self, middle_third):
        gamma = solve_recursive_exponent(middle_third)
        run = simulate_population(middle_third, 1.0, 0)
        # R_1 = 1 + 2 e^(-gamma ln6) - 1 = 2 * 6^(-gamma) = 1
        assert martingale_R(run, 1, gamma) == pytest.approx(2 * 6 ** -gamma, abs=1e-14)

    def test_balanced_model_identically_one(self, balanced_pair):
        gamma = solve_recursive_exponent(balanced_pair)
        for seed in range(10):
            run = simulate_population(balanced_pair, 12.0, seed)
            trace = martingale_trace(run, gamma)
            assert max(abs(v - 1.0) for v in trace) <= 1e-9

    def test_mean_is_one(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        values = [martingale_R(simulate_population(third_fifth, 14.0, seed), 50, gamma)
                  for seed in range(2000)]
        arr = np.asarray(values)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - 1.0) <= 3 * se

    def test_never_negative(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        for seed in range(200):
            run = simulate_population(third_fifth, 10.0, seed)
            assert min(martingale_trace(run, gamma)) >= 0.0

    def test_increment_mean_zero(self, third_fifth):
        # martingale property at one step: E[R_{n+1} - R_n] = 0
        gamma = solve_recursive_exponent(third_fifth)
        diffs = []
        for seed in range(2000):
            run = simulate_population(third_fifth, 10.0, seed)
            trace = martingale_trace(run, gamma)
            diffs.append(trace[21] - trace[20])
        arr = np.asarray(diffs)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean()) <= 3 * se

    def test_out_of_range_rejected(self, third_fifth):
        run = simulate_population(third_fifth, 1.0, 0)
        with pytest.raises(ValueError):
            martingale_R(run, len(run.events) + 1)
        with pytest.raises(ValueError):
            martingale_R(run, -1)


class TestEstimateW:
    """W estimated by truncation: R_n over the whole materialized population."""

    def test_deterministic_model(self, middle_third):
        run = simulate_population(middle_third, 3 * LN6, 5)
        gamma = solve_recursive_exponent(middle_third)
        assert martingale_R(run, len(run.events), gamma) == pytest.approx(1.0, abs=1e-12)

    def test_positive_across_seeds(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        for seed in range(500):
            run = simulate_population(third_fifth, 10.0, seed)
            assert martingale_R(run, len(run.events), gamma) > 0.0

    def test_cauchy_differences_shrink(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        early, late = [], []
        for seed in range(300):
            trace = martingale_trace(simulate_population(third_fifth, 14.0, seed), gamma)
            early.append(abs(trace[50] - trace[25]))
            late.append(abs(trace[200] - trace[100]))
        assert np.mean(late) < np.mean(early)


class TestZProcess:
    def test_t_zero_counts_root_children(self, third_fifth):
        for seed in range(10):
            run = simulate_population(third_fifth, 0.0, seed)
            assert z_process(run, 0.0) == len(run.events[0].child_offsets)

    def test_middle_third_hand_count(self, middle_third):
        # at t = 1.5 ln6 generations 0 and 1 are born; only the four
        # grandchildren (born at 2 ln6) are still pending
        t = 1.5 * LN6
        run = simulate_population(middle_third, t, 2)
        assert z_process(run, t) == 4

    def test_beyond_horizon_rejected(self, third_fifth):
        run = simulate_population(third_fifth, 2.0, 0)
        with pytest.raises(ValueError):
            z_process(run, 2.5)
        with pytest.raises(ValueError):
            z_process(run, -0.1)

    def test_lattice_jump_times(self, middle_third):
        # z changes only when the deterministic clock ticks at k ln6
        run = simulate_population(middle_third, 3.2 * LN6, 4)
        for k in (1, 2, 3):
            before = z_process(run, k * LN6 - 1e-9)
            after = z_process(run, k * LN6 + 1e-9)
            assert after != before
        assert z_process(run, 1.2 * LN6) == z_process(run, 1.8 * LN6)

    def test_scaled_mean_tracks_constant(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        target = nerman_constant_hat_phi(third_fifth, gamma)
        t = 10.0
        vals = [math.exp(-gamma * t) * z_process(simulate_population(third_fifth, t, s), t)
                for s in range(400)]
        assert abs(np.mean(vals) / target - 1.0) <= 0.15


def test_csv_exports(tmp_path, third_fifth):
    run = simulate_population(third_fifth, 4.0, 9)
    gamma = solve_recursive_exponent(third_fifth)
    export_events_csv(run, tmp_path / "events.csv", header="# h")
    export_martingale_csv(run, tmp_path / "mart.csv", gamma, header="# h")
    export_z_csv(run, [0.0, 1.0, 2.0], gamma, tmp_path / "z.csv", header="# h")
    events = (tmp_path / "events.csv").read_text().splitlines()
    assert events[1] == "order_index,address,sigma,letter"
    assert len(events) == 2 + len(run.events)
    mart = (tmp_path / "mart.csv").read_text().splitlines()
    assert mart[1] == "n,R_n"
    assert mart[2] == "0,1.0"
    z = (tmp_path / "z.csv").read_text().splitlines()
    assert z[1] == "t,z_t,scaled"
    assert len(z) == 5
