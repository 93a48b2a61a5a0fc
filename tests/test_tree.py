"""Random tree sampling: determinism, generations, forests, the node table, refusals.

Core claims:
    - depth(0) yields only the labelled root; single-letter models give
      complete N-ary trees
    - replay is exact: same (model, stop, seed) -> identical label maps
    - root-label frequencies match the letter distribution (3-sigma band,
      chi-square) and labels at distinct addresses are independent
    - |I_{n+1}| equals the sum of child counts over generation n
    - a forest of roots grows each root's rows as growing it alone would,
      and label lookups of absent addresses raise KeyError
    - the node table's global `first` runs from the root count to the node
      count without decreasing, its read-only `rank` is each node's place in a
      preorder walk, root after root, so root r's nodes are the ranks
      rank[r]:rank[r + 1] and ranks increase along a generation, and a
      population reads sigma and first from the table without copying them
    - letter, rank and first are int32 (MAX_NODES < 2^31), only populations
      store sigma, and a tree's table takes at most 36 B a node
    - every address view (generations, the reference forest's root-child pieces,
      leaves, forests and their birth events) equals its reference definition over
      a preorder walk
    - resolution stop expands exactly the cells no shorter than epsilon
    - a tree past MAX_NODES is refused; an invalid model is refused, also
      after an equal model with a looser tol was sampled
    - the hash round on uint64 arrays equals the masked round on ints, and
      models grown in turn each keep their own rows (tables per model object)
    - the compiled growth gives every table array byte for byte as the
      numpy loop does, refuses the same trees (a depth past int64 included),
      never draws a letter of probability 0, and refuses a tree before it
      allocates its arrays
    - a depth-only growth whose 2^(D+1) - 1 nodes a root already pass
      MAX_NODES is refused, with the walk's message, before either path
      walks; a tree of exactly that size still grows
    - on drawn models, limits and seed lists (hypothesis, derandomized) both
      paths grow the same table or refuse with the same message, and the
      preorder root ranges and per-root z equal the old walk down `first`, and
      check_bracketing's pieces are the depth-n atoms between that walk's bounds
"""
import functools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from cantorstring import (IfsModel, build_cells, leaf_cells, make_letter, middle_third_letter,
                          random_model, sample_tree, simulate_population, single_letter_model,
                          solve_recursive_exponent, third_fifth_model, tree as tree_module)
from cantorstring import _native
from cantorstring._rng import child_state, root_states, splitmix64
from cantorstring.branching import PopulationRun, simulate_populations, z_by_root
from cantorstring.ifs import model_from_dict, model_to_dict
from cantorstring.measure import CollapsedCells
from cantorstring.stieltjes import check_bracketing, depth_string
from cantorstring.tree import StopRule, node_addresses
from conftest import forest_piece_cells, tie_model

ARRAYS = ("letter", "ratio", "offset", "mass", "sigma", "rank", "first", "levels")
DTYPES = dict(zip(ARRAYS, (np.int32, *[np.float64] * 4, np.int32, np.int32, np.int64)))


def table_bytes(tree):
    """Every array of the node table, as bytes (None for a tree's absent sigma): equal
    exactly when the trees are."""
    arrays = (getattr(tree.nodes, name) for name in ARRAYS)
    return [None if array is None else array.tobytes() for array in arrays]


def generation(nodes, n):
    """The node numbers of generation n."""
    return range(*nodes.levels[n:n + 2].tolist())


class TestStopRules:
    def test_depth_zero(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(0), 5)
        assert len(tree) == 1 and node_addresses(tree.nodes) == [()]

    def test_depth_described_exactly(self):
        # the depth is kept as an int: past 2^53 a float would round it
        for n in (0, 8, 2**53 + 1, 2**63 + 5):
            stop = StopRule.depth(n)
            assert type(stop.value) is int and stop.value == n

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            StopRule.depth(-1)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            StopRule.resolution(0.0)
        with pytest.raises(ValueError):
            StopRule.resolution(-1e-3)
        with pytest.raises(ValueError):
            StopRule.resolution(math.nan)

    def test_resolution_expansion_boundary(self, third_fifth):
        eps = 0.05
        tree = sample_tree(third_fifth, StopRule.resolution(eps), 3)
        a, b = third_fifth.interval

        def length(addr):
            value = b - a
            for k in range(len(addr)):
                letter = tree.letter_at(addr[:k])
                value *= letter.maps[addr[k] - 1].ratio
            return value

        addresses = node_addresses(tree.nodes)
        parents = {addr[:-1] for addr in addresses if addr}
        for addr in addresses:
            if addr in parents:
                assert length(addr) >= eps
            else:
                assert length(addr) < eps


class TestSampling:
    def test_single_letter_complete_tree(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(2), 9)
        assert [len(a) for a in node_addresses(tree.nodes)] == [0, 1, 1, 2, 2, 2, 2]
        assert tree.nodes.levels.tolist() == [0, 1, 3, 7]
        assert all(tree.letter_at(a).id == "third" for a in tree.addresses())

    def test_replay_determinism(self, third_fifth):
        t1 = sample_tree(third_fifth, StopRule.depth(6), 123)
        t2 = sample_tree(third_fifth, StopRule.depth(6), 123)
        assert table_bytes(t1) == table_bytes(t2)

    def test_seeds_differ(self, third_fifth):
        t1 = sample_tree(third_fifth, StopRule.depth(10), 1)
        t2 = sample_tree(third_fifth, StopRule.depth(10), 2)
        assert table_bytes(t1) != table_bytes(t2)

    def test_root_label_frequency(self, third_fifth):
        n = 10_000
        hits = sum(sample_tree(third_fifth, StopRule.depth(0), s).label_index(()) == 0
                   for s in range(n))
        # binomial 3-sigma band around p = 3/5
        sigma = math.sqrt(n * 0.6 * 0.4)
        assert abs(hits - 0.6 * n) <= 3 * sigma
        chi2, p = stats.chisquare([hits, n - hits], [0.6 * n, 0.4 * n])
        assert p > 1e-3

    def test_distinct_addresses_independent(self, third_fifth):
        table = [[0, 0], [0, 0]]
        for seed in range(4000):
            tree = sample_tree(third_fifth, StopRule.depth(1), seed)
            table[tree.label_index(())][tree.label_index((1,))] += 1
        res = stats.chi2_contingency(table)
        assert res.pvalue > 1e-3

    @pytest.mark.parametrize("probs", [(0.0, 1.0), (1.0, 0.0)])
    def test_zero_probability_letter_never_drawn(self, third_fifth, probs):
        # the running sums tie at a zero-probability letter
        model = IfsModel(third_fifth.interval, third_fifth.letters, probs)
        drawn = probs.index(1.0)
        for seed in range(20):
            tree = sample_tree(model, StopRule.resolution(1e-2), seed)
            assert {tree.label_index(a) for a in tree.addresses()} == {drawn}

    def test_node_budget(self, third_fifth, monkeypatch):
        size = len(sample_tree(third_fifth, StopRule.resolution(1e-3), 4))
        monkeypatch.setattr(tree_module, "MAX_NODES", size)
        assert len(sample_tree(third_fifth, StopRule.resolution(1e-3), 4)) == size
        monkeypatch.setattr(tree_module, "MAX_NODES", size - 1)
        with pytest.raises(ValueError, match="nodes"):
            sample_tree(third_fifth, StopRule.resolution(1e-3), 4)

    def test_invalid_model_rejected(self, third_fifth):
        broken = IfsModel(third_fifth.interval, third_fifth.letters, (0.6, 0.6))
        with pytest.raises(ValueError):
            sample_tree(broken, StopRule.depth(1), 0)

    def test_validity_not_shared_across_tol(self, third_fifth):
        # equal under ==, which ignores tol; the probs sum to 1 + 1e-9
        probs = (0.6, 0.4 + 1e-9)
        loose = IfsModel(third_fifth.interval, third_fifth.letters, probs, tol=1e-6)
        strict = IfsModel(third_fifth.interval, third_fifth.letters, probs, tol=1e-12)
        assert loose == strict
        sample_tree(loose, StopRule.depth(2), 0)
        simulate_population(loose, 4.0, 0)
        for _ in range(2):  # a failed check is not cached either
            with pytest.raises(ValueError, match="invalid model"):
                sample_tree(strict, StopRule.depth(2), 0)
            with pytest.raises(ValueError, match="invalid model"):
                simulate_population(strict, 4.0, 0)


class TestGenerations:
    def test_generation_zero(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 4)
        assert [node_addresses(tree.nodes)[f] for f in generation(tree.nodes, 0)] == [()]

    def test_single_letter_counts(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(3), 0)
        addresses = node_addresses(tree.nodes)
        assert [len(addresses[f]) for f in generation(tree.nodes, 3)] == [3] * 8

    def test_growth_identity(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(5), 11)
        addresses = node_addresses(tree.nodes)
        for n in range(5):
            expected = sum(tree.letter_at(addresses[f]).n_maps for f in generation(tree.nodes, n))
            assert len(generation(tree.nodes, n + 1)) == expected

    def test_beyond_depth_is_empty(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 4)
        assert tree.nodes.levels.size == 4
        assert max(len(a) for a in tree.addresses()) == 2

    def test_lexicographic_order(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(3), 4)
        addresses = node_addresses(tree.nodes)
        assert len(addresses) == tree.nodes.letter.size
        for n in range(tree.nodes.levels.size - 1):
            level = [addresses[f] for f in generation(tree.nodes, n)]
            assert level == sorted(level) and {len(a) for a in level} == {n}


class TestForest:
    def test_roots_side_by_side(self, third_fifth):
        # each root's slice of every generation equals its own one-root growth; a sigma
        # bound that never binds stores sigma, so it is compared too
        def grow(states):
            return tree_module._grow(third_fifth, states, min_length=0.01,
                                     max_sigma=sys.float_info.max)
        states = root_states([3, 4, 5])
        forest = grow(states)
        first = forest.first
        left = 0  # the nodes of the roots before root k, which precede its own in preorder
        for k in range(states.size):
            alone, lo, hi = grow(states[k:k + 1]), k, k + 1
            for n in range(alone.levels.size - 1):
                a, b = alone.levels[n:n + 2]
                for name in ARRAYS[:-3]:
                    assert (getattr(forest, name)[lo:hi].tobytes()
                            == getattr(alone, name)[a:b].tobytes())
                assert (forest.rank[lo:hi] - left).tolist() == alone.rank[a:b].tolist()
                assert (first[lo:hi + 1] - first[lo]).tolist() == (
                    alone.first[a:b + 1] - alone.first[a]).tolist()
                lo, hi = first[lo], first[hi]
            assert lo == hi  # no generation below the root's last
            left += alone.letter.size

    def test_absent_address(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(1), 8)
        with pytest.raises(KeyError):
            tree.label_index((9, 9))


class TestNodeTable:
    @pytest.mark.parametrize("name", ["third-fifth", "middle-third", "random-6"])
    def test_invariants(self, name, both_paths):
        model = VIEW_MODELS[name]()
        for _ in both_paths():
            tree = sample_tree(model, StopRule.depth(5), 1)
            kids = child_state(root_states([1]),
                               np.arange(1, tree.nodes.first[1], dtype=np.uint64))
            grown = [tree.nodes, sample_tree(model, StopRule.resolution(2e-3), 2).nodes,
                     tree_module._grow(model, root_states(range(4)), depth=3),
                     tree_module._grow(model, kids, depth=4)]  # forest_piece_cells' forest
            for seeds in ([7], [3, 4, 5]):
                run = simulate_populations(model, 6.0, seeds)
                assert run.sigma is run.nodes.sigma and run.first is run.nodes.first
                grown.append(run.nodes)
            for nodes in grown:
                first, n, roots = nodes.first, nodes.letter.size, nodes.levels[1]
                assert first.size == n + 1 and np.all(np.diff(first) >= 0)
                assert first[0] == roots and first[-1] == n
                levels = nodes.levels.tolist()
                assert levels[0] == 0 and levels[-1] == n and np.all(np.diff(levels) > 0)
                walk = [j for root in range(roots) for j, _ in preorder(nodes, root)]
                assert nodes.rank.dtype == np.int32
                assert nodes.rank[walk].tolist() == list(range(n))
                ends = [*nodes.rank[:roots].tolist(), n]  # root r's preorder range
                for root in range(roots):
                    mine = [j for j, _ in preorder(nodes, root)]
                    assert sorted(nodes.rank[mine].tolist()) == list(range(*ends[root:root + 2]))
                for lo, hi in zip(levels, levels[1:]):  # ranks increase along a generation
                    assert np.all(np.diff(nodes.rank[lo:hi]) > 0)
                with pytest.raises(ValueError, match="read-only"):
                    nodes.rank[0] = 0

    def test_layout(self, third_fifth, both_paths):
        # int32 letter, rank and first hold every node number while the budget is below
        # 2^31; only a growth bounded by max_sigma (a population) stores sigma
        assert tree_module.MAX_NODES < 2**31
        for _ in both_paths():
            tree = sample_tree(third_fifth, StopRule.resolution(1e-4), 0)
            piece = forest_piece_cells(sample_tree(third_fifth, StopRule.depth(5), 0), 5, 0)[0]
            run = simulate_population(third_fifth, 8.0, 0)
            for nodes in (tree.nodes, piece.nodes, run.nodes):
                for name, dtype in DTYPES.items():
                    if name != "sigma":
                        assert getattr(nodes, name).dtype == dtype, name
            assert tree.nodes.sigma is None and piece.nodes.sigma is None
            assert run.nodes.sigma.dtype == np.float64
            # per node: the arrays but levels (one entry a generation) and first's closing one
            arrays = [a for a in vars(tree.nodes).values() if a is not None]
            table = sum(a.nbytes for a in arrays) - tree.nodes.levels.nbytes - 4
            assert table / len(tree) <= 36


def preorder(nodes, j=0, prefix=()):
    """(node, address) of node j and every node below it, in preorder
    (lexicographic order), by recursion over `first` alone."""
    yield j, prefix
    for i, child in enumerate(range(nodes.first[j], nodes.first[j + 1]), start=1):
        yield from preorder(nodes, child, prefix + (i,))


VIEW_MODELS = {"third-fifth": third_fifth_model,
               "middle-third": lambda: single_letter_model(middle_third_letter()),
               "random-1": lambda: random_model(1), "random-6": lambda: random_model(6)}
VIEW_STOPS = [StopRule.depth(3), StopRule.depth(5), StopRule.resolution(0.02),
              StopRule.resolution(2e-3)]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("stop", VIEW_STOPS, ids=lambda stop: f"{stop.kind}:{stop.value!r}")
@pytest.mark.parametrize("name", VIEW_MODELS)
def test_address_views_match_reference(name, stop, seed):
    """Every address view is a slice or permutation of `node_addresses`, and equals
    its reference definition over a preorder walk of the tree: a generation is the
    walk filtered by length, root child i's piece the walk filtered by length and
    first index with that index stripped, the leaves the sorted unexpanded nodes."""
    tree = sample_tree(VIEW_MODELS[name](), stop, seed)
    nodes, walk = tree.nodes, list(preorder(tree.nodes))
    everything = [a for _, a in walk]
    addresses, levels = node_addresses(nodes), nodes.levels.tolist()
    assert len(addresses) == nodes.letter.size == levels[-1]
    for n, (lo, hi) in enumerate(zip(levels, levels[1:])):
        assert addresses[lo:hi] == [a for a in everything if len(a) == n]
    assert list(tree.addresses()) == addresses
    leaf = [nodes.first[j] == nodes.first[j + 1] for j in range(len(addresses))]
    complete = [n for n in range(len(levels) - 1) if not any(leaf[:levels[n]])]
    for n in complete:
        assert [c.address for c in build_cells(tree, n).cells] == addresses[
            levels[n]:levels[n + 1]]
    for n in complete[1:]:
        pieces = forest_piece_cells(tree, n, seed)
        assert [[c.address for c in piece.cells] for piece in pieces] == [
            [a[1:] for a in everything if len(a) == n and a[0] == i]
            for i in range(1, len(pieces) + 1)]
    assert [c.address for c in leaf_cells(tree).cells] == sorted(
        a for j, a in walk if leaf[j])


@pytest.mark.parametrize("seeds", [[3, 4, 5], [0, 1, 2, 3, 4, 5, 6, 7]])
@pytest.mark.parametrize("name", ["third-fifth", "middle-third", "random-6"])
def test_forest_addresses_match_reference(name, seeds):
    """A forest's generations are its roots' generations side by side, each root (), and
    its birth events carry the walk's address of each born node."""
    run = simulate_populations(VIEW_MODELS[name](), 6.0, seeds)
    walks = [list(preorder(run.nodes, root)) for root in range(len(seeds))]
    addresses, levels = node_addresses(run.nodes), run.nodes.levels.tolist()
    for n, (lo, hi) in enumerate(zip(levels, levels[1:])):
        assert addresses[lo:hi] == [a for walk in walks for _, a in walk if len(a) == n]
    assert [e.address for e in run.events] == [addresses[f] for f in run.order.tolist()]


def masked_round(z: int) -> int:
    """splitmix64 on Python ints, masked to 64 bits after every step."""
    mask = (1 << 64) - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestHashAndTables:
    SEEDS = [0, 1, 2**63, 2**64 - 1, -1, -2, -2**63]

    def test_array_round_equals_int_round(self):
        mask = (1 << 64) - 1
        roots = [masked_round(s & mask) for s in self.SEEDS]
        assert root_states(self.SEEDS).tolist() == roots
        assert [root_states([s]).tolist() for s in self.SEEDS] == [[r] for r in roots]
        assert splitmix64(np.array([s & mask for s in self.SEEDS], np.uint64)).tolist() == roots
        for i in (1, 2, 5):
            kids = [masked_round(r ^ ((i * 0xD1B54A32D192ED03) & mask)) for r in roots]
            assert child_state(np.array(roots, np.uint64),
                               np.full(len(roots), i, np.uint64)).tolist() == kids

    def test_interleaved_models_keep_their_rows(self):
        # each model object's cached tables serve only its own trees: growing three
        # models in turn gives every tree the rows of a fresh copy grown on its own
        models = [third_fifth_model(), single_letter_model(middle_third_letter()),
                  random_model(3)]
        stop = StopRule.resolution(1e-3)
        grown = [[sample_tree(model, stop, seed) for model in models] for seed in range(4)]
        for seed, trees in enumerate(grown):
            for model, tree in zip(models, trees):
                alone = sample_tree(model_from_dict(model_to_dict(model)), stop, seed)
                assert table_bytes(tree) == table_bytes(alone)

    def test_tables_read_only(self, third_fifth):
        for array in third_fifth.tables:
            with pytest.raises(ValueError):
                array[...] = 0


GROWTH_MODELS = {"third-fifth": third_fifth_model,
                 "middle-third": lambda: single_letter_model(middle_third_letter()),
                 "ties": tie_model, **{f"random-{k}": functools.partial(random_model, k)
                                       for k in range(20)}}


def both_growths(both_paths, model, states, **limits):
    """[compiled, numpy] node tables, or the ValueError message of a refusal, per path."""
    out = []
    for _ in both_paths():
        try:
            out.append(tree_module._grow(model, states, **limits))
        except ValueError as err:
            out.append(str(err))
    return out


def assert_same_tables(compiled, reference):
    for name in ARRAYS:
        got, want = getattr(compiled, name), getattr(reference, name)
        if want is None:  # the sigma of a growth not bounded by max_sigma
            assert got is None, name
            continue
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.dtype == DTYPES[name], name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable and not want.flags.writeable


class TestCompiledGrowth:
    """The walks of _native.c against _grow_numpy, the numpy loop they replace."""

    @pytest.mark.parametrize("name", GROWTH_MODELS)
    @pytest.mark.parametrize("roots", [1, 5])
    def test_generations_and_refusals_match_numpy(self, name, roots, both_paths,
                                                  monkeypatch):
        model = GROWTH_MODELS[name]()
        t_max = math.log(300) / solve_recursive_exponent(model)
        states = root_states(range(7, 7 + roots))
        for limits in ({"depth": 5}, {"min_length": 0.01}, {"max_sigma": t_max},
                       {"depth": 4, "min_length": 0.02, "max_sigma": t_max}):
            compiled, reference = both_growths(both_paths, model, states, **limits)
            assert_same_tables(compiled, reference)
            size = compiled.letter.size
            monkeypatch.setattr(tree_module, "MAX_NODES", size)
            grown = both_growths(both_paths, model, states, **limits)
            for nodes in grown:
                assert_same_tables(nodes, reference)
            monkeypatch.setattr(tree_module, "MAX_NODES", size - 1)
            refused = both_growths(both_paths, model, states, remedy="grow less", **limits)
            assert refused == [f"tree would exceed {size - 1} nodes; grow less"] * 2
            monkeypatch.undo()

    def test_deeper_than_the_first_count_buffer(self, both_paths):
        # a map with r w near 1 makes a chain of ~100 generations (the count buffer
        # holds 64, so the walk counts again into one that fits)
        letter = make_letter("long", [(0.98, 0.0), (0.01, 0.99)], (0.99, 0.01))
        model = IfsModel((0.0, 1.0), (letter,), (1.0,))
        for limits in ({"min_length": 0.1}, {"max_sigma": 3.0}):
            compiled, reference = both_growths(both_paths, model, root_states([1, 2]), **limits)
            assert 64 < compiled.levels.size - 1 < 200
            assert_same_tables(compiled, reference)

    @pytest.mark.parametrize("probs", [(0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)])
    def test_zero_probability_letter_never_drawn(self, probs, both_paths):
        letters = (middle_third_letter(),
                   make_letter("halves", [(0.5, 0.0), (0.5, 0.5)], (0.5, 0.5)),
                   make_letter("fifths", [(0.2, 0.0), (0.2, 0.4), (0.2, 0.8)], (0.3, 0.4, 0.3)))
        model = IfsModel((0.0, 1.0), letters, probs)
        never = probs.index(0.0)
        compiled, reference = both_growths(both_paths, model, root_states(range(40)), depth=7)
        assert_same_tables(compiled, reference)
        drawn = compiled.letter
        assert drawn.size > 10_000 and never not in drawn
        assert set(drawn.tolist()) == {0, 1, 2} - {never}

    @pytest.mark.parametrize("depth", [2**63, 2**64 + 2])
    def test_depth_past_int64_refused(self, third_fifth, depth, both_paths, monkeypatch):
        # ctypes would wrap a depth past int64 mod 2^64; both paths take it as no limit
        monkeypatch.setattr(tree_module, "MAX_NODES", 200_000)
        refused = both_growths(both_paths, third_fifth, root_states([0]), depth=depth)
        assert refused == ["tree would exceed 200000 nodes; "
                           "use a larger epsilon or a smaller depth"] * 2

    @pytest.mark.parametrize("depth", [23, 2**64, sys.maxsize])
    def test_too_deep_refused_before_walking(self, third_fifth, depth, monkeypatch):
        # 2^24 - 1 > 10^7 nodes: a root grown to depth 23 alone passes MAX_NODES
        def walked(*args, **kwargs):
            raise AssertionError("a depth-only tree past the size bound was walked")

        monkeypatch.setattr(tree_module, "_grow_numpy", walked)
        for library in (mock.Mock(grow_count=walked, grow_fill=walked), None):
            monkeypatch.setattr(_native, "library", lambda: library)
            with pytest.raises(ValueError) as err:
                sample_tree(third_fifth, StopRule.depth(depth), 0)
            assert str(err.value) == ("tree would exceed 10000000 nodes; "
                                      "use a larger epsilon or a smaller depth")

    @pytest.mark.parametrize("roots", [1, 3])
    def test_size_bound_is_exact_for_two_maps(self, roots, both_paths, monkeypatch):
        # every middle-third node has 2 children: R (2^(D+1) - 1) nodes exactly
        model, states = single_letter_model(middle_third_letter()), root_states(range(roots))
        size = roots * (2 ** 7 - 1)
        monkeypatch.setattr(tree_module, "MAX_NODES", size)
        grown = both_growths(both_paths, model, states, depth=6)
        assert [nodes.letter.size for nodes in grown] == [size] * 2
        monkeypatch.setattr(tree_module, "MAX_NODES", size - 1)
        refused = both_growths(both_paths, model, states, depth=6)
        assert refused == [f"tree would exceed {size - 1} nodes; "
                           "use a larger epsilon or a smaller depth"] * 2

    def test_refusal_allocates_no_arrays(self, third_fifth, monkeypatch):
        # the count walk refuses before any generation array is allocated; the numpy
        # loop, which refuses only after a generation's arrays exist, peaks far higher
        if _native.library() is None:
            pytest.skip("no C compiler: the compiled growth cannot be built")
        monkeypatch.setattr(tree_module, "MAX_NODES", 200_000)
        peaks = []
        for library in (_native.library(), None):
            monkeypatch.setattr(_native, "library", lambda: library)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="exceed 200000 nodes"):
                    sample_tree(third_fifth, StopRule.resolution(1e-8), 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1 << 20 < peaks[1]



def root_bounds(nodes):
    """The former tree.root_bounds, the oracle of the preorder root ranges: a walk down
    `first` from the roots, where row k holds each root's nodes of generation k (root r
    owns bounds[k, r]:bounds[k, r + 1])."""
    bounds = [np.arange(nodes.first[0] + 1)]
    for _ in range(nodes.levels.size - 2):
        bounds.append(nodes.first[bounds[-1]])
    return np.array(bounds)


def z_oracle(nodes, t):
    """z_by_root as it summed hits between root_bounds: non-roots born after t to mothers
    born by t, counted below each bound of each generation."""
    first, sigma = nodes.first, nodes.sigma
    parent = np.repeat(sigma, first[1:] - first[:-1])
    hits = np.flatnonzero((parent <= t) & (sigma[first[0]:] > t)) + first[0]
    return np.diff(hits.searchsorted(root_bounds(nodes))).sum(axis=0).tolist()


@st.composite
def drawn_models(draw):
    """1-4 letters of 2-6 maps, ratios down to ~1e-12, letters of probability 0 (one at
    least drawable); the images tile [0, 1] in order with gaps, the ends pinned."""
    letters = []
    for j in range(draw(st.integers(1, 4))):
        k = draw(st.integers(2, 6))
        raw = [10.0 ** draw(st.floats(-12.0, 0.0)) for _ in range(k)]
        fill = draw(st.sampled_from([0.9, 0.99, 0.999]) | st.floats(0.05, 0.999))
        ratios = [fill * r / math.fsum(raw) for r in raw]
        gaps = [draw(st.floats(0.0, 1.0)) + 1e-9 for _ in range(k - 1)]
        spare = (1.0 - math.fsum(ratios)) / math.fsum(gaps)
        offsets = [0.0]
        for r, gap in zip(ratios, gaps[:-1]):
            offsets.append(offsets[-1] + r + gap * spare)
        offsets.append(1.0 - ratios[-1])
        weights = [draw(st.floats(0.01, 1.0)) for _ in range(k)]
        letters.append(make_letter(f"L{j}", list(zip(ratios, offsets)),
                                   [w / math.fsum(weights) for w in weights]))
    probs = [draw(st.sampled_from([0.0, 0.3, 1.0])) for _ in letters]
    probs[draw(st.integers(0, len(letters) - 1))] = 1.0
    model = IfsModel((0.0, 1.0), letters, [p / math.fsum(probs) for p in probs])
    assert model.tables  # valid: validation raises otherwise
    return model


LIMITS = {"depth": st.integers(0, 6) | st.integers(60, 90),
          "min_length": st.floats(-6.0, -0.3).map(lambda e: 10.0 ** e),
          "max_sigma": st.floats(0.0, 12.0)}
DRAWN_LIMITS = st.sets(st.sampled_from(sorted(LIMITS)), min_size=1).flatmap(  # one at least
    lambda names: st.fixed_dictionaries({name: LIMITS[name] for name in names}))
# a chain of ~110 generations (r w near 1): the walks reallocate their frames past 64
CHAIN = IfsModel((0.0, 1.0), (make_letter("long", [(0.98, 0.0), (0.01, 0.99)], (0.99, 0.01)),),
                 (1.0,))


class TestGrowthDifferential:
    """Drawn models, limits and seed lists: the compiled walks against _grow_numpy, and the
    preorder root ranges that pieces and z read against the old walk down `first`."""

    CAP = 3000  # node budget of the first growth: examples stay small

    @staticmethod
    def grown(model, states, limits):
        """[compiled, numpy] node tables, or the ValueError message of a refusal, per path."""
        out = []
        for library in (_native.library(), None):
            with mock.patch.object(_native, "library", lambda: library):
                try:
                    out.append(tree_module._grow(model, states, **limits))
                except ValueError as err:
                    out.append(str(err))
        return out

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(drawn_models(), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
           DRAWN_LIMITS, st.booleans())
    @example(CHAIN, [1, 2], {"min_length": 0.1}, False)
    @example(CHAIN, [3], {"max_sigma": 3.0, "depth": 90}, True)
    def test_paths_agree_and_root_ranges(self, model, seeds, limits, below):
        states = root_states(seeds)
        with mock.patch.object(tree_module, "MAX_NODES", self.CAP):
            compiled, reference = self.grown(model, states, limits)
        if isinstance(reference, str):
            assert compiled == reference
            return
        assert_same_tables(compiled, reference)
        size = reference.letter.size
        with mock.patch.object(tree_module, "MAX_NODES", size - below):  # below, or at
            again = self.grown(model, states, limits)
        if below:
            assert again == [f"tree would exceed {size - 1} nodes; "
                             "use a larger epsilon or a smaller depth"] * 2
        else:
            for nodes in again:
                assert_same_tables(nodes, reference)
        rank, levels, bounds = reference.rank, reference.levels.tolist(), root_bounds(reference)
        for k, (lo, hi) in enumerate(zip(levels, levels[1:])):  # per generation
            split = lo + rank[lo:hi].searchsorted(rank[:len(seeds)])
            assert [*split.tolist(), hi] == bounds[k].tolist()
        ends = [*rank[:len(seeds)].tolist(), size]  # root r's ranks: ends[r]:ends[r + 1]
        for r in range(len(seeds)):
            mine = np.concatenate([np.arange(row[r], row[r + 1]) for row in bounds])
            assert np.sort(rank[mine]).tolist() == list(range(ends[r], ends[r + 1]))
        population = reference  # z reads birth times, which only populations store
        if reference.sigma is None:  # the same nodes, grown with a bound that never binds
            population = tree_module._grow(model, states, **limits, max_sigma=sys.float_info.max)
            assert population.sigma is not None
            assert all(getattr(population, name).tobytes() == getattr(reference, name).tobytes()
                       for name in ARRAYS if name != "sigma")
        sigma = np.unique(population.sigma)
        run = PopulationRun(model, seeds, float(sigma[-1]), population)
        for t in {0.0, *sigma[::max(1, sigma.size // 4)].tolist(), float(sigma[-1])}:
            assert z_by_root(run, t) == z_oracle(population, t)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(drawn_models(), st.integers(0, 2**64 - 1), st.integers(1, 6))
    def test_pieces_split_at_root_ranges(self, model, seed, depth):
        """check_bracketing's piece i is the depth-n string's atoms between child i's
        bounds of a walk down `first` from the root's children, on child i's cell."""
        with mock.patch.object(tree_module, "MAX_NODES", self.CAP):
            try:
                tree = sample_tree(model, StopRule.depth(depth), seed)
            except ValueError:
                return
            first, levels = tree.nodes.first, tree.nodes.levels
            ends = np.arange(first[0], first[1] + 1)  # generation n's bounds, n = 1 first
            for n in range(1, depth + 1):
                try:
                    check_bracketing(tree, n, 1.0)
                except CollapsedCells:  # tiny ratios: cells at depth n collapsed
                    return
                whole, kids = depth_string(tree, n), build_cells(tree, 1)
                pieces = tree.memo["bracketing"][n]
                assert len(pieces) == kids.mass.size
                cuts = (ends - levels[n]).tolist()
                for k, (piece, lo, hi) in enumerate(zip(pieces, cuts, cuts[1:])):
                    assert piece.interval == (kids.left[k], kids.right[k])
                    assert piece.positions.tobytes() == whole.positions[lo:hi].tobytes()
                    assert piece.masses.tobytes() == whole.masses[lo:hi].tobytes()
                ends = first[ends]
