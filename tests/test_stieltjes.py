"""String solver: inertia counts against the dense pencil oracle.

Core claims:
    - counts at x = 0 are (0, 1): the Dirichlet pencil is positive
      definite, the Neumann zero mode is included
    - a single atom has the closed-form Dirichlet eigenvalue (1/l0 + 1/l1)/m
    - inertia counts equal dense generalized-eigensolve counts
    - the uniform string reproduces the continuum counts at x = 100
    - Dirichlet-Neumann gap stays in {0, 1, 2}; counts are monotone and
      saturate at n
    - exact mass and geometric scaling identities of the pencil
    - the four-term bracketing chain holds on sampled trees
    - the plain-float sweep (few columns) and the chunked numpy sweep (many
      columns, both boundaries fused) give identical counts, ties and
      vanishing pivots included, whatever the chunk size
    - NaN shifts, non-finite atoms and links whose 1/l**2 overflows are
      refused; links down to 1e-150 still count exactly
    - counting_curve keeps every count of a 3672-atom string at 120 shifts
      (sha256 digest recorded from the per-boundary numpy sweep)
    - the per-tree bracketing memo changes neither verdicts nor the tree
"""
import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cantorstring import (
    StieltjesString,
    atomize,
    build_cells,
    check_bracketing,
    count_dirichlet,
    count_neumann,
    counting_curve,
    dense_count,
    dense_eigenvalues,
    eigenvalue,
    leaf_cells,
    sample_tree,
    third_fifth_model,
)
from cantorstring import stieltjes
from cantorstring.stieltjes import (
    TIE_SHIFT,
    _SCALAR_COLUMNS,
    _counts,
    export_curve_csv,
)
from cantorstring.tree import StopRule, dump_tree


CURVE_COUNTS_DIGEST = "35540df57d7afccccc9311bfbdbeea6f3676ffd128a4e178a285c27945e363cb"


def random_string(seed: int, max_atoms: int = 200) -> StieltjesString:
    rng = random.Random(seed)
    n = rng.randint(1, max_atoms)
    pos = sorted(rng.uniform(0.01, 0.99) for _ in range(n))
    mas = [10 ** rng.uniform(-3, 0) for _ in range(n)]
    return StieltjesString((0.0, 1.0), pos, mas)


class TestBasics:
    def test_counts_at_zero(self):
        s = random_string(5)
        assert count_dirichlet(s, 0.0) == 0
        assert count_neumann(s, 0.0) == 1

    def test_single_atom_closed_form(self):
        m = 0.7
        s = StieltjesString((0.0, 1.0), [0.5], [m])
        lam = (2.0 + 2.0) / m
        assert count_dirichlet(s, lam * (1 - 1e-9)) == 0
        assert count_dirichlet(s, lam * (1 + 1e-9)) == 1
        assert eigenvalue(s, 1, "dirichlet") == pytest.approx(lam, rel=1e-9)

    def test_single_atom_neumann(self):
        s = StieltjesString((0.0, 1.0), [0.3], [1.0])
        for x in (0.0, 1.0, 1e6):
            assert count_neumann(s, x) == 1

    def test_negative_shift_rejected(self):
        s = random_string(1)
        with pytest.raises(ValueError):
            count_dirichlet(s, -1.0)
        with pytest.raises(ValueError):
            count_neumann(s, -0.5)
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError):
                count_dirichlet(s, bad)
            with pytest.raises(ValueError):
                count_neumann(s, bad)
            with pytest.raises(ValueError):
                counting_curve(s, [1.0, bad, 50.0])

    def test_atoms_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            StieltjesString((0.0, 1.0), [0.0, 0.5], [1.0, 1.0])
        with pytest.raises(ValueError):
            StieltjesString((0.0, 1.0), [0.5], [-1.0])

    def test_non_finite_atoms_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                StieltjesString((0.0, 1.0), [0.2, bad], [0.5, 0.5])
            with pytest.raises(ValueError):
                StieltjesString((0.0, 1.0), [0.2, 0.5], [0.5, bad])
            with pytest.raises(ValueError):
                StieltjesString((0.0, bad), [0.2, 0.5], [0.5, 0.5])

    def test_overflowing_link_rejected(self):
        # 1/l**2 of the 1e-200 link overflows, and the pivot counts went wrong:
        # N_D(1) came out 1 where the dense spectrum gives 0
        with pytest.raises(ValueError, match="link"):
            StieltjesString((0.0, 1.0), [1e-200, 2e-200, 0.5], [1.0, 1.0, 1.0])

    def test_duplicate_atoms_merged(self):
        s = StieltjesString((0.0, 1.0), [0.5, 0.5, 0.7], [0.3, 0.2, 0.5])
        assert s.n == 2
        assert s.masses.tolist() == [0.5, 0.5]


class TestUniformString:
    def test_continuum_counts(self):
        # continuum Dirichlet (k pi)^2 <= 100 for k = 1..3; Neumann adds the zero mode
        u = StieltjesString.uniform(100)
        assert count_dirichlet(u, 100.0) == 3
        assert count_neumann(u, 100.0) == 4

    def test_against_dense(self):
        u = StieltjesString.uniform(100)
        for x in (1.0, 10.0, 100.0, 1e4):
            assert count_dirichlet(u, x) == dense_count(u, x, "dirichlet")
            assert count_neumann(u, x) == dense_count(u, x, "neumann")

    def test_first_eigenvalue_near_pi_squared(self):
        u = StieltjesString.uniform(200)
        lam = eigenvalue(u, 1, "dirichlet")
        assert lam == pytest.approx(math.pi ** 2, rel=5e-3)
        assert lam == pytest.approx(dense_eigenvalues(u, "dirichlet")[0], rel=1e-8)


class TestDenseOracle:
    def test_small_strings(self):
        rng = random.Random(99)
        for seed in range(20):
            s = random_string(seed, max_atoms=3)
            x = 10 ** rng.uniform(-1, 7)
            assert count_dirichlet(s, x) == dense_count(s, x, "dirichlet")
            assert count_neumann(s, x) == dense_count(s, x, "neumann")

    def test_medium_strings(self):
        rng = random.Random(4)
        for seed in range(40):
            s = random_string(seed)
            for _ in range(5):
                x = 10 ** rng.uniform(-2, 9)
                assert count_dirichlet(s, x) == dense_count(s, x, "dirichlet")
                assert count_neumann(s, x) == dense_count(s, x, "neumann")

    def test_short_links_still_counted(self):
        # 1/l**2 = 1e300 stays finite, so the string is kept and counted exactly
        s = StieltjesString((0.0, 4e-150), [1e-150, 2e-150, 3e-150], [1.0, 1.0, 1.0])
        for x in np.geomspace(1e148, 1e152, 40):
            assert count_dirichlet(s, x) == dense_count(s, x, "dirichlet")
            assert count_neumann(s, x) == dense_count(s, x, "neumann")

    def test_spectrum_solved_once(self):
        s = random_string(3)
        for boundary in ("dirichlet", "neumann"):
            values = dense_eigenvalues(s, boundary)
            assert dense_eigenvalues(s, boundary) is values
            assert not values.flags.writeable

    def test_single_atom_dense_path(self):
        s = StieltjesString((0.0, 1.0), [0.25], [2.0])
        evd = dense_eigenvalues(s, "dirichlet")
        assert evd == pytest.approx([(4.0 + 4.0 / 3.0) / 2.0])
        assert dense_eigenvalues(s, "neumann") == pytest.approx([0.0])


class TestEigenvalue:
    def test_neumann_zero_mode(self):
        s = random_string(12)
        assert eigenvalue(s, 0, "neumann") == 0.0

    def test_matches_dense_spectrum(self):
        s = random_string(21, max_atoms=40)
        evd = dense_eigenvalues(s, "dirichlet")
        for k in (1, s.n // 2 + 1, s.n):
            assert eigenvalue(s, k, "dirichlet") == pytest.approx(evd[k - 1], rel=1e-8)
        evn = dense_eigenvalues(s, "neumann")
        assert eigenvalue(s, s.n - 1, "neumann") == pytest.approx(evn[-1], rel=1e-8)

    def test_index_range(self):
        s = random_string(3, max_atoms=10)
        with pytest.raises(ValueError):
            eigenvalue(s, 0, "dirichlet")
        with pytest.raises(ValueError):
            eigenvalue(s, s.n + 1, "dirichlet")
        with pytest.raises(ValueError):
            eigenvalue(s, s.n, "neumann")


class TestSweepPaths:
    """Counts of a shift alone (plain-float sweep) == its count in a numpy block."""

    @staticmethod
    def assert_paths_agree(s, xs):
        xs = [float(x) for x in xs]
        assert len(xs) == _SCALAR_COLUMNS + 1  # one past the cutoff: numpy path
        fused = _counts(s, xs).tolist()  # both boundaries in one numpy block
        half = _SCALAR_COLUMNS // 2  # both boundaries at the cutoff: plain floats
        assert _counts(s, xs[:half]).tolist() == [row[:half] for row in fused]
        for boundary, row in zip(("dirichlet", "neumann"), fused):
            batch = _counts(s, xs, (boundary,))[0].tolist()
            assert batch == row
            assert _counts(s, xs[:-1], (boundary,))[0].tolist() == batch[:-1]  # at the cutoff
            assert [int(_counts(s, [x], (boundary,))[0, 0]) for x in xs] == batch

    def test_random_strings(self):
        rng = random.Random(17)
        for seed in range(30):
            s = random_string(seed, max_atoms=300)
            self.assert_paths_agree(
                s, sorted(10 ** rng.uniform(-2, 9) for _ in range(_SCALAR_COLUMNS + 1)))

    def test_exact_eigenvalue_ties(self):
        # uniform(2) has the exact Dirichlet spectrum {8, 16} and Neumann {0, 8}
        u = StieltjesString.uniform(2)
        assert count_dirichlet(u, 8.0) == 1 and count_dirichlet(u, 16.0) == 2
        assert count_neumann(u, 8.0) == 2
        ties = [8.0, 16.0] + [float(x) for x in np.geomspace(1.0, 1e3, _SCALAR_COLUMNS - 1)]
        self.assert_paths_agree(u, ties)

    def test_vanishing_pivot_safeguard(self, monkeypatch):
        # uniform(2): K_D = [[6, -2], [-2, 6]], M = I/2. At x' = 12 the first
        # pivot is exactly zero and, unguarded, the next row would divide by
        # it; at x' = 16 the last pivot is exactly zero and must be counted.
        # three = K_D [[8, -4, 0], [-4, 8, -4], [0, -4, 8]], M = I: at x' = 8
        # the first pivot is zero, at x' = 4 the second, so the redo that
        # starts at row 0 for x' = 8 must still guard row 1 for x' = 4 (or its
        # third pivot becomes -inf and counts). With one row per chunk the
        # guarded redo runs in a later chunk
        u = StieltjesString.uniform(2)
        three = StieltjesString((0.0, 1.0), [0.25, 0.5, 0.75], [1.0, 1.0, 1.0])
        cases = [(u, {12.0: 1, 16.0: 2}), (three, {8.0: 2, 4.0: 1})]
        for chunk_rows in (1, 2, 256):
            monkeypatch.setattr(stieltjes, "_CHUNK_ROWS", chunk_rows)
            for s, zeros in cases:
                xs = [x / TIE_SHIFT for x in zeros]
                assert [x * TIE_SHIFT for x in xs] == list(zeros)
                for x, count in zip(xs, zeros.values()):
                    assert count_dirichlet(s, x) == dense_count(s, x, "dirichlet") == count
                self.assert_paths_agree(s, (xs * _SCALAR_COLUMNS)[:_SCALAR_COLUMNS + 1])

    def test_curve_spanning_chunks(self):
        # 600 to 1200 atoms: three to five chunks of the numpy block
        rng = np.random.default_rng(23)
        for n in (600, 777, 1024, 1200):
            s = StieltjesString((0.0, 1.0), np.sort(rng.uniform(0.01, 0.99, n)),
                                10 ** rng.uniform(-3, 0, n))
            xs = np.sort(10 ** rng.uniform(-1, 9, 40))
            samples = counting_curve(s, xs)
            assert [c.count_dirichlet for c in samples] == _counts(s, xs, ("dirichlet",))[0].tolist()
            assert [c.count_neumann for c in samples] == _counts(s, xs, ("neumann",))[0].tolist()
            for c in samples[::8]:
                assert c.count_dirichlet == dense_count(s, c.x, "dirichlet")
                assert c.count_neumann == dense_count(s, c.x, "neumann")

    def test_eigenvalues_pinned(self):
        # exact floats of the single-shift numpy sweep this path replaced
        s = random_string(21, max_atoms=40)
        assert [eigenvalue(s, k, "dirichlet") for k in (1, 6, 11)] == [
            3.397571695037186, 521.3895064592361, 204323.2441253662]
        assert [eigenvalue(s, k, "neumann") for k in (1, 10)] == [
            3.0368057547602803, 204323.2441253662]
        u = StieltjesString.uniform(200)
        assert eigenvalue(u, 1, "dirichlet") == 9.869401467964053
        assert eigenvalue(u, 7, "neumann") == 483.12356358766556


class TestCurve:
    def test_counts_pinned(self):
        tree = sample_tree(third_fifth_model(), StopRule.resolution(1e-5), 0)
        string = StieltjesString.from_measure(atomize(leaf_cells(tree)))
        assert string.n == 3672
        samples = counting_curve(string, np.geomspace(1.0, 1e9, 120))
        text = "\n".join(f"{s.x!r},{s.count_dirichlet},{s.count_neumann}" for s in samples)
        assert hashlib.sha256(text.encode()).hexdigest() == CURVE_COUNTS_DIGEST

    def test_zero_grid(self):
        s = random_string(8)
        (sample,) = counting_curve(s, [0.0])
        assert (sample.x, sample.count_dirichlet, sample.count_neumann) == (0.0, 0, 1)

    def test_monotone_and_saturating(self):
        s = random_string(15, max_atoms=60)
        xs = np.geomspace(1e-2, 1e10, 40)
        samples = counting_curve(s, xs)
        for a, b in zip(samples, samples[1:]):
            assert b.count_dirichlet >= a.count_dirichlet
            assert b.count_neumann >= a.count_neumann
        assert samples[-1].count_dirichlet == s.n
        assert samples[-1].count_neumann == s.n

    def test_matches_single_shots(self):
        rng = random.Random(0)
        for seed in range(10):
            s = random_string(seed, max_atoms=50)
            xs = sorted(10 ** rng.uniform(-2, 8) for _ in range(10))
            samples = counting_curve(s, xs)
            for sample in samples:
                assert sample.count_dirichlet == count_dirichlet(s, sample.x)
                assert sample.count_neumann == count_neumann(s, sample.x)


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.0, 1e9))
    def test_gap_bound(self, seed, x):
        s = random_string(seed % 500, max_atoms=30)
        nd, nn = count_dirichlet(s, x), count_neumann(s, x)
        assert 0 <= nn - nd <= 2

    def test_mass_scaling_exact(self):
        # scaling masses by a power of two shifts the argument bit-exactly
        s = random_string(33, max_atoms=50)
        for factor in (2.0, 0.5, 8.0):
            scaled = StieltjesString(s.interval, s.positions, s.masses * factor)
            for x in (0.7, 13.0, 4.5e3):
                assert count_dirichlet(scaled, x) == count_dirichlet(s, factor * x)
                assert count_neumann(scaled, x) == count_neumann(s, factor * x)

    def test_geometric_scaling_exact(self):
        # halving the geometry doubles the spectrum: N_mapped(x) = N(x/2)
        s = StieltjesString((0.0, 1.0), [0.125, 0.25, 0.625], [0.25, 0.5, 0.25])
        mapped = StieltjesString((0.0, 0.5), s.positions * 0.5, s.masses)
        for x in (1.0, 64.0, 1e4):
            assert count_dirichlet(mapped, x) == count_dirichlet(s, 0.5 * x)
            assert count_neumann(mapped, x) == count_neumann(s, 0.5 * x)


class TestBracketing:
    def test_trivial_at_zero(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(3), 2)
        assert check_bracketing(tree, 3, 0.0)

    def test_random_trees(self, third_fifth):
        for seed in range(25):
            tree = sample_tree(third_fifth, StopRule.depth(5), seed)
            for x in (10.0, 1e3, 1e5):
                assert check_bracketing(tree, 5, x)

    def test_self_similar_outer_slack(self, middle_third):
        # single letter: the outer terms differ by at most 2 per child
        tree = sample_tree(middle_third, StopRule.depth(6), 0)
        whole = StieltjesString.from_measure(atomize(build_cells(tree, 6)))
        letter = middle_third.letters[0]
        for x in (10.0, 1e3, 1e5):
            assert check_bracketing(tree, 6, x)
            sum_d = sum_n = 0
            for i, (s, w) in enumerate(zip(letter.maps, letter.weights), start=1):
                piece = StieltjesString.from_measure(
                    atomize(build_cells(tree.subtree((i,)), 5)))
                sum_d += count_dirichlet(piece, s.ratio * w * x)
                sum_n += count_neumann(piece, s.ratio * w * x)
            assert sum_n - sum_d <= 2 * letter.n_maps

    def test_memo_matches_fresh_trees(self, third_fifth, tmp_path):
        tree = sample_tree(third_fifth, StopRule.depth(6), 11)
        dump_tree(tree, tmp_path / "before.txt")
        for x in (0.0, 30.0, 1e3, 1e5, 3e6):
            for n in (6, 4):
                fresh = sample_tree(third_fifth, StopRule.depth(6), 11)
                assert check_bracketing(tree, n, x) == check_bracketing(fresh, n, x)
        assert set(tree.memo["bracketing"]) == {4, 6}
        fresh = sample_tree(third_fifth, StopRule.depth(6), 11)
        assert tree == fresh
        assert tree.subtree((1,)) == fresh.subtree((1,))
        dump_tree(tree, tmp_path / "after.txt")
        dump_tree(fresh, tmp_path / "fresh.txt")
        before = (tmp_path / "before.txt").read_bytes()
        assert (tmp_path / "after.txt").read_bytes() == before
        assert (tmp_path / "fresh.txt").read_bytes() == before

    def test_requires_positive_depth(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(2), 2)
        with pytest.raises(ValueError):
            check_bracketing(tree, 0, 1.0)
        for bad in (math.nan, -1.0):
            with pytest.raises(ValueError):
                check_bracketing(tree, 2, bad)


def test_curve_csv(tmp_path):
    s = random_string(2, max_atoms=20)
    samples = counting_curve(s, np.geomspace(1, 1e4, 8))
    path = tmp_path / "curve.csv"
    export_curve_csv(samples, path, header="# h")
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# h", "x,N_D,N_N"]
    assert len(lines) == 10

