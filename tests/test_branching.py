"""Population simulation, the fundamental martingale, and the z process.

Core claims:
    - the horizon-zero run contains exactly the ancestor with its future
      child birth times
    - a population past MAX_NODES (born or not) is refused, naming --tmax
    - deterministic one-letter clocks: generation n is born at n ln6 and
      R_n is identically one
    - child birth times replay the sampled tree labels (shared draws)
    - E R_n = 1 within Monte Carlo error; R_n is never negative
    - balanced alphabets keep R_n at one to rounding
    - z_t counts (mother <= t < child) pairs; jumps only on the lattice
      clock for lattice models
    - e^(-gamma t) z_t tracks the closed-form constant at moderate t
    - events, martingale traces and z values keep the bits recorded from
      the heap sampler, exact sigma ties across generations included, and
      the array forms of R_n and z_t equal loops over the events
    - seeds grown as forests, or regrown seed by seed when a forest is refused,
      keep each seed's R_n, trace and z_t, lattice ties included; the one-seed
      statistics (the trace, z_t) refuse a forest, z_by_root gives z_t per seed, and
      an empty seed list is refused
    - z_counts gives z_process at many times from one sort, tied births included,
      and the z CSV rows follow it
"""
import functools
import hashlib
import math

import numpy as np
import pytest

from cantorstring import (
    IfsModel,
    contraction_products,
    martingale_trace,
    middle_third_letter,
    nerman_constant_hat_phi,
    random_model,
    sample_tree,
    simulate_population,
    single_letter_model,
    solve_recursive_exponent,
    third_fifth_model,
    z_process,
)
from cantorstring import branching
from cantorstring.branching import (export_events_csv, export_martingale_csv, export_z_csv,
                                    forests, martingale_R_by_root, martingale_traces, z_by_root)
from cantorstring.tree import StopRule
from conftest import tie_model

LN6 = math.log(6.0)


def child_offsets(model):
    """Letter id -> the birth-time offsets -log(r_i m_i) of its children, in map order."""
    return {letter.id: [-math.log(q) for q in contraction_products(letter)]
            for letter in model.letters}


class TestSimulation:
    def test_horizon_zero(self, third_fifth):
        run = simulate_population(third_fifth, 0.0, 3)
        assert len(run) == 1
        (event,) = run.events
        assert event.address == () and event.sigma == 0.0
        assert all(tau > 0 for tau in child_offsets(third_fifth)[event.letter_id])

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
        offsets = child_offsets(third_fifth)
        present = set(tree.addresses())
        for address, event in events.items():
            if address in present:
                assert event.letter_id == tree.letter_at(address).id
            if address:
                mother = events[address[:-1]]
                tau = offsets[mother.letter_id][address[-1] - 1]
                assert event.sigma == pytest.approx(mother.sigma + tau, abs=1e-12)

    def test_node_budget(self, third_fifth, monkeypatch):
        from cantorstring import tree
        nodes = simulate_population(third_fifth, 8.0, 4).sigma.size  # born or not
        monkeypatch.setattr(tree, "MAX_NODES", nodes)
        assert simulate_population(third_fifth, 8.0, 4).sigma.size == nodes
        monkeypatch.setattr(tree, "MAX_NODES", nodes - 1)
        with pytest.raises(ValueError, match="--tmax"):
            simulate_population(third_fifth, 8.0, 4)

    def test_determinism(self, third_fifth):
        r1 = simulate_population(third_fifth, 6.0, 42)
        r2 = simulate_population(third_fifth, 6.0, 42)
        assert [e.address for e in r1.events] == [e.address for e in r2.events]
        assert [e.sigma for e in r1.events] == [e.sigma for e in r2.events]


class TestMartingale:
    def test_r0_is_one(self, third_fifth):
        run = simulate_population(third_fifth, 5.0, 1)
        assert martingale_R_by_root(run, 0, solve_recursive_exponent(third_fifth)) == [1.0]

    def test_single_letter_identically_one(self, middle_third):
        gamma = solve_recursive_exponent(middle_third)
        run = simulate_population(middle_third, 4 * LN6, 3)
        trace = martingale_trace(run, gamma)
        assert max(abs(v - 1.0) for v in trace) <= 1e-12

    def test_r1_closed_form(self, middle_third):
        gamma = solve_recursive_exponent(middle_third)
        run = simulate_population(middle_third, 1.0, 0)
        # R_1 = 1 + 2 e^(-gamma ln6) - 1 = 2 * 6^(-gamma) = 1
        assert martingale_R_by_root(run, 1, gamma)[0] == pytest.approx(2 * 6 ** -gamma,
                                                                        abs=1e-14)

    def test_balanced_model_identically_one(self, balanced_pair):
        gamma = solve_recursive_exponent(balanced_pair)
        for run in forests(balanced_pair, 12.0, range(10), gamma):
            for trace in martingale_traces(run, gamma):
                assert max(abs(v - 1.0) for v in trace) <= 1e-9

    def test_mean_is_one(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        values = [v for run in forests(third_fifth, 14.0, range(2000), gamma)
                  for v in martingale_R_by_root(run, 50, gamma)]
        arr = np.asarray(values)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean() - 1.0) <= 3 * se

    def test_never_negative(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        for run in forests(third_fifth, 10.0, range(200), gamma):
            for trace in martingale_traces(run, gamma):
                assert min(trace) >= 0.0

    def test_increment_mean_zero(self, third_fifth):
        # martingale property at one step: E[R_{n+1} - R_n] = 0
        gamma = solve_recursive_exponent(third_fifth)
        diffs = []
        for run in forests(third_fifth, 10.0, range(2000), gamma):
            for trace in martingale_traces(run, gamma):
                diffs.append(trace[21] - trace[20])
        arr = np.asarray(diffs)
        se = arr.std(ddof=1) / math.sqrt(len(arr))
        assert abs(arr.mean()) <= 3 * se

    def test_out_of_range_rejected(self, third_fifth):
        run = simulate_population(third_fifth, 1.0, 0)
        gamma = solve_recursive_exponent(third_fifth)
        assert martingale_R_by_root(run, len(run.events) + 1, gamma) == [None]
        assert martingale_R_by_root(run, -1, gamma) == [None]


class TestEstimateW:
    """W estimated by truncation: R_n over the whole materialized population."""

    def test_deterministic_model(self, middle_third):
        run = simulate_population(middle_third, 3 * LN6, 5)
        gamma = solve_recursive_exponent(middle_third)
        assert martingale_R_by_root(run, len(run.events), gamma)[0] == pytest.approx(1.0,
                                                                                    abs=1e-12)

    def test_positive_across_seeds(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        for run in forests(third_fifth, 10.0, range(500), gamma):
            for trace in martingale_traces(run, gamma):
                assert trace[-1] > 0.0  # R_n over the root's whole population

    def test_cauchy_differences_shrink(self, third_fifth):
        gamma = solve_recursive_exponent(third_fifth)
        early, late = [], []
        for run in forests(third_fifth, 14.0, range(300), gamma):
            for trace in martingale_traces(run, gamma):
                early.append(abs(trace[50] - trace[25]))
                late.append(abs(trace[200] - trace[100]))
        assert np.mean(late) < np.mean(early)


class TestZProcess:
    def test_t_zero_counts_root_children(self, third_fifth):
        for seed in range(10):
            run = simulate_population(third_fifth, 0.0, seed)
            assert z_process(run, 0.0) == len(child_offsets(third_fifth)[run.events[0].letter_id])

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
        for t in (-0.1, math.nan):
            with pytest.raises(ValueError):
                z_process(run, t)

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
        vals = [math.exp(-gamma * t) * z for run in forests(third_fifth, t, range(400), gamma)
                for z in z_by_root(run, t)]
        assert len(vals) == 400  # one z per seed
        assert abs(np.mean(vals) / target - 1.0) <= 0.15


def test_z_counts_equal_z_process(tmp_path):
    """z at 200 times from one sort, as z_process gives each: on a lattice model, with
    tied births, at every birth time itself and between them; the CSV rows follow."""
    model = tie_model()
    run = simulate_population(model, 10.0, 3)
    lattice = sorted({s for s in run.sigma.tolist() if s <= 10.0})
    ts = sorted(np.linspace(0.0, 10.0, 200 - len(lattice)).tolist() + lattice)
    zs = branching.z_counts(run, ts)
    assert zs == [z_process(run, t) for t in ts]
    assert len(set(zs)) > 5
    gamma = solve_recursive_exponent(model)
    export_z_csv(run, ts, gamma, tmp_path / "z.csv", header="# h")
    assert (tmp_path / "z.csv").read_text().splitlines()[2:] == [
        f"{t},{z_process(run, t)},{math.exp(-gamma * t) * z_process(run, t)}" for t in ts]
    for bad in (-1e-9, 10.5, math.nan):
        with pytest.raises(ValueError, match="t must be in"):
            branching.z_counts(run, [1.0, bad])
    with pytest.raises(ValueError, match="one-seed"):
        branching.z_counts(branching.simulate_populations(model, 4.0, [1, 2]), [1.0])


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


@pytest.mark.parametrize("k", range(10))
def test_arrays_match_event_loops(k):
    """Birth order, R_n (the whole trace, and each R_n alone) and z_t from the
    node arrays equal the per-event loops of the heap sampler, run over
    `run.events`."""
    model = random_model(k)
    gamma = solve_recursive_exponent(model)
    run = simulate_population(model, 6.0, k)
    offsets = child_offsets(model)
    keys = [(e.sigma, e.address) for e in run.events]
    assert keys == sorted(keys) and len(run.events) == len(run)
    trace, acc, steps = [1.0], 1.0, []
    for e in run.events:
        steps.append(math.fsum(math.exp(-gamma * (e.sigma + tau)) for tau in offsets[e.letter_id])
                     - math.exp(-gamma * e.sigma))
        acc += steps[-1]
        trace.append(acc)
    assert martingale_trace(run, gamma) == trace
    assert ([martingale_R_by_root(run, n, gamma)[0] for n in range(len(run) + 1)]
            == [1.0 + math.fsum(steps[:n]) for n in range(len(run) + 1)])
    for t in np.linspace(0.0, 6.0, 13).tolist():
        assert z_process(run, t) == sum(e.sigma <= t < e.sigma + tau
                                        for e in run.events for tau in offsets[e.letter_id])


# sha256 of every event's (address, sigma.hex(), letter id), the repr of
# every martingale_trace value and z_process at 8 times in [0, t]; recorded
# from the heap sampler, with (population size, adjacent cross-generation ties)
MIDDLE_THIRD_DIGEST = (63, 0, "16b62031b66f4f06d73e35fe84055cad4570006da54608e168653ff4c6816111")
POPULATION_DIGESTS = {
    "third-fifth": [
        (74, 0, "01a4101c1d2ca46a7cc70fca6e3bf93ebb0fddead12f9d0cff734bf4fc670eee"),
        (67, 0, "f8255561aec9df9494478bcd61cd2e8e88e240625e44f6e4b164e8fe064035ad"),
        (83, 0, "bb8690907e003ebf9f3933a21f5a1d79c0a3929e324b012a4003b6ed0739dd68"),
        (74, 0, "791cc57e8aa97969f53cce7ebeb42d3cede1093c47a486feaa9cbdfd9f21ebd6"),
        (67, 0, "dbcf4aa195b3d5e6e6fe9fc7e32c371747fca8911e40af8b550472ed0ba2363c"),
        (73, 0, "7c194d94c835d8d44b6eb8737d5a39e49855549b8e4995a207007386c8cfc2a7"),
        (77, 0, "04b0c4a075b9fb83d00c360d09d11fb43812c8467da57445377bd0acc6dbb3d4"),
        (70, 0, "58078a1dcce9991f01948e205e6bcef95f5b64bc68176cc6313381399eced5e3"),
        (68, 0, "bc2f0ad1d0519b45d92a0ae2d72565a6dd65791511088bf15334eed330167fd0"),
        (72, 0, "1f929dd9b5b257b6afd5c32449e32f8c7fa7a1619ea33ae220330ef84f510043"),
    ],
    # one letter, so every seed grows the same population
    "middle-third": [MIDDLE_THIRD_DIGEST] * 10,
    "ties": [
        (41, 8, "64d681a84a526800bc2a8bfe0c971b18898d21ce69ee802213a3b483799e1a70"),
        (46, 16, "2e9873f2ba3b557ff290630475860464ecafa1eefbbb2d3ffa8163a2be1d992d"),
        (46, 17, "4ef489ae53fcc87cb4070fbef159980bb946d3e4fae6afe761e9e9867e22902e"),
        (44, 17, "95945e482ed0f04b45c236fd51422d438c1beb76655051f858274dcb4f142064"),
        (42, 4, "6abe0b2d78c3de50c23110667dcb26ccbe19b7574e6d82f4e47f0ef0a4466bbd"),
        (43, 11, "0c56b16a453287b1c5b8f12a6db533c9f370b575af9218cf642f1a55787c966b"),
        (45, 10, "b52feb99e1f245ea1afe93b323d51f53a0e2d48705b89619ddbf58b6519362a3"),
        (41, 6, "5e3e45943ee4bd6ec6015eaedaad93e697e35050a7f41aae6144cba14283525b"),
        (43, 9, "2470dea0a71b23e09924bdeb8db1f5304e7d77553e22fbaf2fba596825850854"),
        (42, 6, "5453a5e87f2a58b4ace422926b44778bbd32880928d290dcce74d17be4250517"),
    ],
}
PIN_MODELS = {"third-fifth": third_fifth_model,
              "middle-third": lambda: single_letter_model(middle_third_letter()),
              "ties": tie_model}


@pytest.mark.parametrize("name, seed", [(name, seed) for name in POPULATION_DIGESTS
                                        for seed in range(10)])
def test_population_bits_pinned(name, seed, both_paths):
    t, model = 10.0, PIN_MODELS[name]()
    for path in both_paths():
        run = simulate_population(model, t, seed)
        h = hashlib.sha256()
        for e in run.events:
            h.update(f"{e.address}|{e.sigma.hex()}|{e.letter_id}\n".encode())
        for value in martingale_trace(run, solve_recursive_exponent(model)):
            h.update(repr(value).encode() + b"\n")
        for u in np.linspace(0.0, t, 8).tolist():
            h.update(f"{z_process(run, u)}\n".encode())
        ties = sum(a.sigma == b.sigma and len(a.address) != len(b.address)
                   for a, b in zip(run.events, run.events[1:]))
        assert (len(run), ties, h.hexdigest()) == POPULATION_DIGESTS[name][seed], path
        if name == "ties":
            assert ties > 0  # the address tiebreak across generations is exercised


def test_empty_seed_list_refused(third_fifth):
    # an empty run made martingale_traces and martingale_R_by_root raise IndexError
    with pytest.raises(ValueError, match="at least one seed"):
        branching.simulate_populations(third_fifth, 4.0, [])
    assert list(forests(third_fifth, 4.0, [], 0.4)) == []


def test_forest_events_are_the_one_seed_events(third_fifth):
    forest = branching.simulate_populations(third_fifth, 6.0, [3, 4, 5])
    assert forest.events == [e for seed in (3, 4, 5)
                             for e in simulate_population(third_fifth, 6.0, seed).events]


def test_one_seed_statistics_refuse_forests(third_fifth):
    forest = branching.simulate_populations(third_fifth, 6.0, [3, 4, 5])
    births = [len(simulate_population(third_fifth, 6.0, seed)) for seed in (3, 4, 5)]
    gamma = solve_recursive_exponent(third_fifth)
    with pytest.raises(ValueError, match="one-seed"):
        martingale_trace(forest, gamma)
    with pytest.raises(ValueError, match="one-seed"):
        z_process(forest, 1.0)
    assert z_by_root(forest, 1.0) == [z_process(simulate_population(third_fifth, 6.0, seed), 1.0)
                                      for seed in (3, 4, 5)]
    assert births[0] < len(forest)  # n between root 0's births and the forest's
    assert martingale_R_by_root(forest, births[0] + 1, gamma)[0] is None  # the per-root forms
    assert [len(trace) - 1 for trace in martingale_traces(forest, gamma)] == births


@functools.lru_cache(maxsize=None)
def one_seed_runs(name):
    model = PIN_MODELS[name]()
    alpha = solve_recursive_exponent(model)
    runs = [simulate_population(model, 10.0, seed) for seed in range(230)]
    return model, alpha, runs, [list(map(float.hex, martingale_trace(run, alpha)))
                                for run in runs]


@pytest.mark.parametrize("n", [0, 1, 20, "births", "births + 1", -1])
@pytest.mark.parametrize("lo, hi", [(0, 70), (100, 230)])
@pytest.mark.parametrize("name", PIN_MODELS)
def test_forests_match_one_seed_runs(name, lo, hi, n, monkeypatch):
    """`branching --stat mean-R` grows the seeds through `forests` (here of 18 to 33
    seeds); each seed's R_n, trace and z_t (at 0, at t_max and at a birth time, which
    lattice ties share across seeds) keep the bits of its one-seed run, and R_n is None
    exactly where n is outside 0..(its births), where the CLI refuses. At n = 20 the
    seeds are grown again under a node budget of the largest one-seed tree, which
    refuses every forest, so that each is regrown seed by seed."""
    from cantorstring import tree
    monkeypatch.setattr(branching, "FOREST_BIRTHS", 1000)
    model, alpha, runs, traces = one_seed_runs(name)
    runs, traces = runs[lo:hi], traces[lo:hi]
    if isinstance(n, str):
        n = len(runs[0]) + n.endswith("+ 1")
    expected = [None if v is None else v.hex()
                for run in runs for v in martingale_R_by_root(run, n, alpha)]
    ts = (0.0, 10.0, float(runs[0].sigma[runs[0].order[len(runs[0]) // 2]]))
    zs = [[z_process(run, t) for run in runs] for t in ts]
    grown = list(forests(model, 10.0, list(range(lo, hi)), alpha))
    assert 1 < len(grown[0].seeds) < hi - lo  # forest boundaries are crossed
    attempts = [grown]
    if n == 20:
        monkeypatch.setattr(tree, "MAX_NODES", max(run.sigma.size for run in runs))
        attempts.append(list(forests(model, 10.0, list(range(lo, hi)), alpha)))
        assert [len(run.seeds) for run in attempts[-1]] == [1] * len(runs)
    for grown in attempts:
        got = [v for run in grown for v in martingale_R_by_root(run, n, alpha)]
        assert [None if v is None else v.hex() for v in got] == expected
        assert [list(map(float.hex, trace))
                for run in grown for trace in martingale_traces(run, alpha)] == traces
        assert [[z for run in grown for z in z_by_root(run, t)] for t in ts] == zs
