"""Depth-n measure approximations: cells, distribution, atomization, self-similarity.

Core claims:
    - generation 0 is the whole interval with mass one
    - a middle-third root gives cells ([0,1/3], 1/2), ([2/3,1], 1/2)
    - cell masses equal the weight product along the path (recomputed
      independently from the label map)
    - mass is conserved at every depth and for leaf measures
    - endpoints persist through later generations; supports are nested
    - the distribution function is 0/1 at the ends and flat across gaps
    - atomization puts the full cell mass at the midpoint
    - generation n+1 equals the root-children pushforward (self-similarity)
    - leaf and depth-8 atoms keep the bits recorded from the dict-tree code
"""
import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cantorstring import (
    atomize,
    build_cells,
    leaf_cells,
    random_model,
    sample_tree,
    third_fifth_model,
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
        assert tree.letter_at(()).id == "third"
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
                assert math.fsum(build_cells(tree, n).mass) == pytest.approx(1.0, abs=1e-10)

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
        assert math.fsum(m.mass) == pytest.approx(1.0, abs=1e-10)
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
    """F(x), the mass of the cells left of x, read off the cell arrays."""

    def test_boundary_values(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(4), 3)
        m = build_cells(tree, 4)
        assert m.left[0] >= 0.0 and m.right[-1] <= 1.0
        assert math.fsum(m.mass) == pytest.approx(1.0, abs=1e-10)

    def test_middle_third_symmetry(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(1), 0)
        m = build_cells(tree, 1)
        assert m.right[0] <= 0.5 <= m.left[1]
        assert m.mass.tolist() == pytest.approx([0.5, 0.5])

    def test_flat_on_gap(self, middle_third):
        tree = sample_tree(middle_third, StopRule.depth(1), 0)
        m = build_cells(tree, 1)
        inside = (m.right > 0.34) & (m.left < 0.66)
        assert not inside.any()

    def test_monotone(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(5), 6)
        m = build_cells(tree, 5)
        assert np.all(m.mass > 0) and np.all(m.right >= m.left)
        assert np.all(m.right[:-1] <= m.left[1:] + 1e-12)


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


def self_similar(tree, n, tol=1e-10):
    """Generation n+1 cells == root-child subtree cells pushed through the root maps."""
    whole = measure.build_cells(tree, n + 1)
    root_letter = tree.letter_at(())
    pushed = []
    for i, (s, w) in enumerate(zip(root_letter.maps, root_letter.weights), start=1):
        for c in measure.build_cells(tree.subtree((i,)), n).cells:
            pushed.append(Cell((i,) + c.address, s(c.left), s(c.right), w * c.mass))
    return len(whole.cells) == len(pushed) and all(
        ca.address == cb.address and abs(ca.left - cb.left) <= tol
        and abs(ca.right - cb.right) <= tol and abs(ca.mass - cb.mass) <= tol
        for ca, cb in zip(whole.cells, pushed))


class TestSelfSimilarity:
    def test_trivial_depth(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(1), 5)
        assert self_similar(tree, 0)

    def test_random_trees(self, third_fifth):
        for seed in range(20):
            tree = sample_tree(third_fifth, StopRule.depth(4), seed)
            assert self_similar(tree, 3)

    def test_corrupted_mass_detected(self, third_fifth, monkeypatch):
        tree = sample_tree(third_fifth, StopRule.depth(2), 5)
        assert self_similar(tree, 1)
        real = measure.build_cells

        def corrupted(t, n):
            # only the depth-1 subtree side is perturbed, by 1e-6 >> tol
            cells = real(t, n)
            if n == 1:
                c = cells.cells[0]
                cells = SimpleNamespace(cells=(Cell(c.address, c.left, c.right, c.mass + 1e-6),)
                                        + cells.cells[1:])
            return cells

        monkeypatch.setattr(measure, "build_cells", corrupted)
        assert not self_similar(tree, 1)


# sha256 of positions.tobytes() then masses.tobytes(), recorded from the
# dict-tree sampler and cell walker; every atom keeps every bit
ATOM_DIGESTS = [
    (None, 0, "leaf", 15296, "8f28651377d553093fad0aae5ad57e129431c30cea0db904da50fb8bac34dc6d"),
    (None, 0, "depth8", 1694, "49c75c89b1a8e8dee956b65dbd3564abd5d2a5c05ff00aab3d5f42e455cdc12b"),
    (None, 1, "leaf", 13650, "ade638bd01e0634fbe280ea939542cdeee957f66b04694624bde73bc9e08710a"),
    (None, 1, "depth8", 660, "61176088cddc42198e92e23a667a7b8a7a0f0191736d2154fcb222c369eeeac4"),
    (None, 2, "leaf", 13936, "3bc4ce342bbc09d56d091ee297c154fa665f1bf2a83900f0ece6113939ecd6fa"),
    (None, 2, "depth8", 831, "4c3f03b773bc45fa4574e0f257fef1f0cdec55c360820ff07c394f04aea10493"),
    (0, 0, "leaf", 883, "707167c8a8ddf32f5d7aadf765d048f10e4663df59e67c70672ecbeb9a54b052"),
    (0, 0, "depth8", 965, "0a52b3fc2353bb3c919b2ec8c8c7a7aaa72bdb51a7bd211149279e8f2d6e8929"),
    (2, 0, "leaf", 661, "f9823f231859e8f123d763aa6fccd3a8111dda4c90bb381a2ae6c2fa6546c55c"),
    (2, 0, "depth8", 256, "5a6ec2f05d2222d1a159a5140744b95e74da6a58f650f616e3e97feace413db1"),
    (4, 0, "leaf", 3015, "486af9433c98874fbeae76b20142a3d2ee2cba6b7b17df32c08313e09d922ca4"),
    (4, 0, "depth8", 6561, "2b96afe894325dff18f31586fc3a089eb4f852d33c390ebf0a3194a79d5fc0ca"),
]


@pytest.mark.parametrize("model_seed, seed, kind, size, digest", ATOM_DIGESTS)
def test_atom_bits_pinned(model_seed, seed, kind, size, digest):
    """third-fifth at eps = 1e-6 and random_model(k) at eps = 1e-4 for "leaf";
    build_cells at generation 8 of a depth-8 tree for "depth8"."""
    model = third_fifth_model() if model_seed is None else random_model(model_seed)
    if kind == "leaf":
        eps = 1e-6 if model_seed is None else 1e-4
        atoms = atomize(leaf_cells(sample_tree(model, StopRule.resolution(eps), seed)))
    else:
        atoms = atomize(build_cells(sample_tree(model, StopRule.depth(8), seed), 8))
    h = hashlib.sha256(atoms.positions.tobytes())
    h.update(atoms.masses.tobytes())
    assert (atoms.positions.size, h.hexdigest()) == (size, digest)
