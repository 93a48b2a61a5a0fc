"""Random tree sampling: determinism, generations, subtrees, text dump.

Core claims:
    - depth(0) yields only the labelled root; single-letter models give
      complete N-ary trees
    - replay is exact: same (model, stop, seed) -> identical label maps
    - root-label frequencies match the letter distribution (3-sigma band,
      chi-square) and labels at distinct addresses are independent
    - |I_{n+1}| equals the sum of child counts over generation n
    - subtree extraction preserves labels and composes along addresses
    - resolution stop expands exactly the cells no shorter than epsilon
    - a tree past MAX_NODES is refused
    - the text dump lists every node's address and letter id
"""
import math

import pytest
from scipy import stats

from cantorstring import sample_tree, tree as tree_module
from cantorstring.tree import StopRule, dump_tree, format_address


class TestStopRules:
    def test_depth_zero(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(0), 5)
        assert len(tree) == 1 and tree.generation(0) == [()]

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

        for n in range(len(tree.generations)):
            parents = {addr[:-1] for addr in tree.generation(n + 1)}
            for addr in tree.generation(n):
                if addr in parents:
                    assert length(addr) >= eps
                else:
                    assert length(addr) < eps


class TestSampling:
    def test_single_letter_complete_tree(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(2), 9)
        assert [len(tree.generation(n)) for n in range(3)] == [1, 2, 4]
        assert all(tree.letter_at(a).id == "third" for a in tree.addresses())

    def test_replay_determinism(self, third_fifth):
        t1 = sample_tree(third_fifth, StopRule.depth(6), 123)
        t2 = sample_tree(third_fifth, StopRule.depth(6), 123)
        assert t1 == t2

    def test_seeds_differ(self, third_fifth):
        t1 = sample_tree(third_fifth, StopRule.depth(10), 1)
        t2 = sample_tree(third_fifth, StopRule.depth(10), 2)
        assert t1 != t2

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
        from cantorstring import IfsModel
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
        from cantorstring import IfsModel
        broken = IfsModel(third_fifth.interval, third_fifth.letters, (0.6, 0.6))
        with pytest.raises(ValueError):
            sample_tree(broken, StopRule.depth(1), 0)


class TestGenerations:
    def test_generation_zero(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 4)
        assert tree.generation(0) == [()]

    def test_single_letter_counts(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(3), 0)
        assert len(tree.generation(3)) == 8

    def test_growth_identity(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(5), 11)
        for n in range(5):
            expected = sum(tree.letter_at(a).n_maps for a in tree.generation(n))
            assert len(tree.generation(n + 1)) == expected

    def test_beyond_depth_is_empty(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 4)
        assert tree.generation(5) == []

    def test_lexicographic_order(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(3), 4)
        gen = tree.generation(3)
        assert gen == sorted(gen)


class TestSubtree:
    def test_identity_at_root(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(3), 21)
        assert tree.subtree(()) == tree

    def test_child_subtree_labels(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 21)
        sub = tree.subtree((1,))
        assert sub.label_index(()) == tree.label_index((1,))
        assert len(sub.generations) == 2

    def test_leaf_subtree_single_node(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(3), 21)
        for leaf in tree.generation(3):
            assert len(tree.subtree(leaf)) == 1

    def test_composition(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(4), 8)
        a, b = (1,), (2, 1)
        assert tree.subtree(a).subtree(b) == tree.subtree(a + b)

    def test_absent_address(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(1), 8)
        with pytest.raises(KeyError):
            tree.subtree((9, 9))


class TestDumpLoad:
    def test_round_trip(self, tmp_path, third_fifth):
        tree = sample_tree(third_fifth, StopRule.resolution(0.01), 77)
        path = tmp_path / "tree.txt"
        dump_tree(tree, path)
        header, *lines = path.read_text().splitlines()
        assert header.split()[2:] == ["seed=77", "version=0", "stop=resolution:0.01"]
        nodes = sorted(tree.addresses(), key=lambda a: (len(a), a))
        assert lines == [f"{format_address(a)},{tree.letter_at(a).id}" for a in nodes]
