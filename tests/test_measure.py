"""Depth-n measure approximations: cells, cdf, atomization, self-similarity.

Core claims:
    - generation 0 is the whole interval with mass one
    - a middle-third root gives cells ([0,1/3], 1/2), ([2/3,1], 1/2)
    - cell masses equal the weight product along the path (recomputed
      independently from the label map)
    - mass is conserved at every depth and for leaf measures
    - endpoints persist through later generations; supports are nested
    - the cdf is 0/1 at the ends, uniform within cells, flat across gaps
    - atomization puts the full cell mass at the midpoint
    - generation n+1 equals the root-children pushforward (self-similarity)
"""
from dataclasses import replace

import numpy as np
import pytest

from cantorstring import (
    atomize,
    build_cells,
    cdf,
    check_self_similarity,
    leaf_cells,
    sample_tree,
)
from cantorstring import measure
from cantorstring.measure import Cell
from cantorstring.tree import StopRule

SEED_ROOT_THIRD = 1  # third-fifth model: root label is "third" for this seed


class TestBuildCells:
    def test_generation_zero(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 3)
        m = build_cells(tree, 0)
        assert len(m.cells) == 1
        c = m.cells[0]
        assert (c.left, c.right, c.mass) == (0.0, 1.0, 1.0)

    def test_middle_third_first_generation(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(1), SEED_ROOT_THIRD)
        assert tree.letter_id(()) == "third"
        m = build_cells(tree, 1)
        (l1, r1, m1), (l2, r2, m2) = [(c.left, c.right, c.mass) for c in m.cells]
        assert (l1, r1, m1) == pytest.approx((0.0, 1 / 3, 0.5))
        assert (l2, r2, m2) == pytest.approx((2 / 3, 1.0, 0.5))

    def test_mass_is_weight_product(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 17)
        m = build_cells(tree, 2)
        for cell in m.cells:
            i, j = cell.address
            w_root = tree.letter_at(()).weights[i - 1]
            w_child = tree.letter_at((i,)).weights[j - 1]
            assert cell.mass == pytest.approx(w_root * w_child, abs=1e-15)

    def test_mass_conservation(self, third_fifth):
        for seed in range(5):
            tree = sample_tree(third_fifth, StopRule.depth(6), seed)
            for n in range(7):
                assert build_cells(tree, n).total_mass == pytest.approx(1.0, abs=1e-10)

    def test_depth_overflow_rejected(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 3)
        with pytest.raises(ValueError):
            build_cells(tree, 3)

    def test_cells_sorted_non_overlapping(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(5), 9)
        cells = build_cells(tree, 5).cells
        for prev, cur in zip(cells, cells[1:]):
            assert prev.right <= cur.left + 1e-12
            assert prev.left < cur.left
        leaves = leaf_cells(sample_tree(third_fifth, StopRule.resolution(1e-3), 9)).cells
        addresses = [c.address for c in leaves]
        assert addresses == sorted(addresses)


class TestLeafCells:
    def test_resolution_measure_mass(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.resolution(1e-3), 2)
        m = leaf_cells(tree)
        assert m.generation is None
        assert m.total_mass == pytest.approx(1.0, abs=1e-10)
        for cell in m.cells:
            assert cell.right - cell.left < 1e-3

    def test_depth_tree_leaves_match_generation(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(4), 2)
        assert leaf_cells(tree).cells == build_cells(tree, 4).cells


class TestPersistence:
    def test_endpoints_persist(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(6), 13)
        for n in (1, 2, 3):
            early = {e for c in build_cells(tree, n).cells for e in (c.left, c.right)}
            for m in range(n + 1, 7):
                later = sorted(e for c in build_cells(tree, m).cells
                               for e in (c.left, c.right))
                arr = np.asarray(later)
                for e in early:
                    k = np.searchsorted(arr, e)
                    near = min(abs(arr[min(k, len(arr) - 1)] - e),
                               abs(arr[max(k - 1, 0)] - e))
                    assert near <= 1e-12

    def test_monotone_support(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(5), 13)
        for n in range(5):
            parents = build_cells(tree, n).cells
            for child in build_cells(tree, n + 1).cells:
                parent = next(p for p in parents if p.address == child.address[:-1])
                assert parent.left - 1e-12 <= child.left
                assert child.right <= parent.right + 1e-12


class TestCdf:
    def test_boundary_values(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(4), 3)
        m = build_cells(tree, 4)
        assert cdf(m, 0.0) == 0.0
        assert cdf(m, 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_middle_third_symmetry(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(1), 0)
        m = build_cells(tree, 1)
        assert cdf(m, 0.5) == pytest.approx(0.5)
        # half of the left cell's mass, by uniformity
        assert cdf(m, 1 / 6) == pytest.approx(0.25)

    def test_flat_on_gap(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(1), 0)
        m = build_cells(tree, 1)
        for x in np.linspace(0.34, 0.66, 9):
            assert cdf(m, float(x)) == pytest.approx(0.5)

    def test_monotone(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(5), 6)
        m = build_cells(tree, 5)
        xs = np.linspace(0.0, 1.0, 300)
        vals = [cdf(m, float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_outside_interval_rejected(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(1), 0)
        m = build_cells(tree, 1)
        with pytest.raises(ValueError):
            cdf(m, -0.1)
        with pytest.raises(ValueError):
            cdf(m, 1.1)


class TestAtomize:
    def test_single_cell(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(0), 3)
        a = atomize(build_cells(tree, 0))
        assert a.positions.tolist() == [0.5]
        assert a.masses.tolist() == [1.0]

    def test_middle_third_midpoints(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(1), 0)
        a = atomize(build_cells(tree, 1))
        assert a.positions == pytest.approx([1 / 6, 5 / 6])
        assert a.masses == pytest.approx([0.5, 0.5])

    def test_masses_preserved(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(3), 19)
        m = build_cells(tree, 3)
        a = atomize(m)
        assert a.masses.tolist() == [c.mass for c in m.cells]
        assert np.all(np.diff(a.positions) > 0)


class TestSelfSimilarity:
    def test_trivial_depth(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(1), 5)
        assert check_self_similarity(tree, 0)

    def test_random_trees(self, third_fifth):
        for seed in range(20):
            tree = sample_tree(third_fifth, StopRule.depth(4), seed)
            assert check_self_similarity(tree, 3)

    def test_corrupted_mass_detected(self, third_fifth, monkeypatch):
        tree = sample_tree(third_fifth, StopRule.depth(2), 5)
        assert check_self_similarity(tree, 1)
        real = measure.build_cells

        def corrupted(t, n):
            # only the depth-1 subtree side is perturbed, by 1e-6 >> tol
            cells = real(t, n)
            if n == 1:
                c = cells.cells[0]
                cells = replace(cells, cells=(Cell(c.address, c.left, c.right, c.mass + 1e-6),)
                                + cells.cells[1:])
            return cells

        monkeypatch.setattr(measure, "build_cells", corrupted)
        assert not check_self_similarity(tree, 1)

