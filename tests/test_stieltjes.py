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
    - the compiled C loop and the chunked numpy reference sweep (both
      boundaries at once) give identical counts at 1, 2, 3, 8, 9, 17 and 40
      shifts and across the C loop's 256-shift tile (257 and 600), ties,
      vanishing pivots and x in {0, 5e-324, 1e300, 1.7e308, inf}
      included, whatever the chunk size, and both equal the dense oracle
    - sweeps of 32 shifts or more stop sweeping a Neumann chain once its
      pivot has the Dirichlet pivot's bits, and still give every count and
      last pivot of the plain two-chain recurrence: on long third-fifth
      strings (the numpy replay of the merge rule shows which lanes merge)
      and on crafted pencils whose diagonals differ in an interior row but
      not in the last, with a NaN lane and +0/-0 pivots, which never merge
    - on drawn strings (hypothesis, derandomized: masses 1e-300..1e300,
      equal masses, uniform strings, zero-pivot shapes) and drawn shifts
      (0, 5e-324, 1e300, inf, repeats; widths 1-300, every remainder mod 4)
      the C loop gives the numpy block's counts
    - the sweeps' baseline build, compiled from a copy of _native.c without
      the AVX2 clones, gives the loaded library's last pivots and counts
      byte for byte on every case above
    - StieltjesString.uniform names a negative or non-integer atom count
    - the constructor builds its links, squares and diagonals in place and keeps the
      bytes of the former np.diff / concatenate expressions: on epsilon = 1e-6 leaf
      strings, depth strings and pieces, unsorted input with repeats, one atom, and the
      refusals of links that are too short (same message)
    - a string copies its inputs unless they are C-contiguous float64 arrays that no
      one can write (read-only down the whole .base chain): writing to an input or to
      its writeable base afterwards leaves the string's bytes unchanged; cells and atoms
      are read-only, so a string from a measure shares the atoms' arrays
    - without a compiler, after a failed build or with an unusable cache,
      counts silently come from the numpy reference; with a compiler the
      C loop always loads, a corrupt cached library is built again, and
      concurrent first loads leave one library
    - NaN shifts, non-finite atoms, links whose 1/l overflows and interior
      links whose 1/l**2 overflows are refused; interior links down to
      1e-150 and boundary links down to 1e-300 still count exactly
    - counting_curve keeps every count of a 3672-atom string at 120 shifts
      (sha256 digest recorded from the per-boundary numpy sweep)
    - single-shift counts of depth-8 whole and child-subtree strings, exact ties,
      zero pivots and overflowing shifts keep their values (sha256 digest
      recorded from the one-boundary-per-call plain-float loop)
    - the pinned digests hold on both count paths
    - the per-tree bracketing memo changes neither verdicts nor the tree;
      filling one entry grows nothing: each piece is the whole depth-n
      string's atoms on one root child's cell, views that share the whole
      string's read-only arrays, byte for byte slices of a fresh tree's string
    - the pieces' four sums at x equal those of the child subtrees' strings
      (the reference forest) at r_i m_i x, on both count paths, and those
      strings keep their bits (sha256 digest recorded from the
      one-subtree-at-a-time builder)
    - a piece whose atoms are not strictly inside its cell (depth-8 cells of
      map ratio 0.0068) is refused as CollapsedCells naming the depth
    - a CSV export to an unknown boundary is refused
"""
import ctypes
import hashlib
import math
import os
import random
import shutil
import subprocess
import sys
import sysconfig
import warnings

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
    leaf_cells,
    middle_third_letter,
    random_model,
    sample_tree,
    single_letter_model,
    third_fifth_model,
)
from cantorstring import _native, measure, stieltjes
from cantorstring.stieltjes import (
    TIE_SHIFT,
    _SAFMIN,
    _block_sweep,
    _compiled_sweep,
    _counts,
    export_curve_csv,
)
from cantorstring.tree import StopRule
from conftest import child_bounds, forest_piece_cells, forest_pieces


CURVE_COUNTS_DIGEST = "35540df57d7afccccc9311bfbdbeea6f3676ffd128a4e178a285c27945e363cb"
SINGLE_SHIFT_DIGEST = "c08fc4f756bbab9b00677fdbe7a5d07e1fff7d6f83dfb95d5025027f41c8b2d5"
# sha256 of every child subtree string's scale, positions and masses at depths 1..8 (the
# former bracketing pieces, now `forest_pieces`), recorded from the one-subtree-at-a-time
# piece builder
PIECE_DIGESTS = [
    ("third-fifth", 1379, "275c7f282d9189eb922d2d62e4032ada82a6a00be0322f930cca4c3b55a30834"),
    ("middle-third", 510, "54ec6f5e8edb5a1691ece50b8293d6868bba6813b5592b7422d42986038ed9e6"),
    ("balanced-pair", 1668, "7a0ad73b60713cab08d58d8668689400828a222a4398ccd7a02f5740b7308373"),
    ("random-1", 87380, "58ba8c0000de650f3f7c0278d768c86034326eb43a8c6ee47a21f95b05f0f581"),
    ("random-6", 6845, "7462a1c4382ff402cc0b9b10faa5839df06b6cccf079d2c72997efbe0dde6cb4"),
    ("random-2-balanced", 9840, "24c1be88ee782946ebf7532b7761353203fc9caaab8c539cddf3e7ce71754c67"),
]


def random_string(seed: int, max_atoms: int = 200) -> StieltjesString:
    rng = random.Random(seed)
    n = rng.randint(1, max_atoms)
    pos = sorted(rng.uniform(0.01, 0.99) for _ in range(n))
    mas = [10 ** rng.uniform(-3, 0) for _ in range(n)]
    return StieltjesString((0.0, 1.0), pos, mas)


def reference_counts(s, xs):
    """_counts of the numpy block sweep: raw pivot counts, Neumann floored at the zero mode."""
    counts = _block_sweep(s, np.asarray(xs, dtype=float) * TIE_SHIFT)
    np.maximum(counts[1], 1, out=counts[1])
    return counts.tolist()


MERGE_MIN = 32  # _native.c: sweeps of fewer shifts never merge lanes
TILE = 256


def bits_equal(a, b):
    """Elementwise: the same float64 bits, and not NaN (the C loop's merge test)."""
    return (a == b) & (np.asarray(a).view(np.uint64) == np.asarray(b).view(np.uint64))


def pivot_replay(diags, masses, b2, pivmin, shifts):
    """The C loop's recurrence in numpy, every lane in float64 and in its order of operations:
    (last pivots (2, w), counts (2, w), merged (n, w): lane j sweeps row k merged).

    merged replays the C loop's merge rule tile by tile, an odd tile padded with a copy of
    its last shift: after each row the top two live lanes merge while both have the same
    pivot bits on both boundaries; a row whose two diagonals differ unmerges every lane
    before it runs. Merging changes no value, so the pivots and counts are the plain
    two-chain recurrence's."""
    width = shifts.size  # TILE is even, so only the last tile can be odd
    shifts = np.append(shifts, shifts[-1:] if width % 2 else [])
    d = np.ones((2, shifts.size))
    counts = np.zeros((2, shifts.size), dtype=np.int64)
    merged = np.zeros((masses.size, shifts.size), dtype=bool)
    tiles = [[start, min(start + TILE, shifts.size)] for start in range(0, shifts.size, TILE)]
    with np.errstate(all="ignore"):
        for k in range(masses.size):
            if not bits_equal(diags[0, k], diags[1, k]):
                for tile in tiles:
                    tile[1] = min(tile[0] + TILE, shifts.size)
            for start, live in tiles:
                merged[k, live:start + TILE] = True
            p = (diags[:, k, None] - masses[k] * shifts) - b2[k] / d
            counts += p < pivmin
            d = np.where((p < pivmin) & (p > -pivmin), -pivmin, p)
            for tile in tiles:
                while (shifts.size >= MERGE_MIN and tile[1] - tile[0] >= 2
                       and bits_equal(d[0, tile[1] - 2:tile[1]], d[1, tile[1] - 2:tile[1]]).all()):
                    tile[1] -= 2
    return d[:, :width], counts[:, :width], merged[:, :width]


def kernel_sweep(kernel, diags, masses, b2, pivmin, shifts):
    """(last pivots (2, w), counts (2, w)) of one direct sturm_counts call."""
    pivots = np.empty((2, shifts.size))
    counts = np.empty((2, shifts.size), dtype=np.int64)
    diags, masses, b2 = (np.ascontiguousarray(a, dtype=float) for a in (diags, masses, b2))
    kernel.sturm_counts(masses.size, shifts.size, pivmin, diags.ctypes.data, masses.ctypes.data,
                        b2.ctypes.data, shifts.ctypes.data, pivots.ctypes.data,
                        counts.ctypes.data)
    return pivots, counts


def lane_cases():
    """(string, shifts) of TestSweepPaths.test_lanes_and_tiles: uniform(2) and a 3-atom string
    with their ties and zero pivots, and random strings, at 3, 17, 257 and 600 shifts with the
    special and extreme shifts every 7th."""
    u = StieltjesString.uniform(2)
    three = StieltjesString((0.0, 1.0), [0.25, 0.5, 0.75], [1.0, 1.0, 1.0])
    strings = [(u, [8.0, 16.0, 12.0 / TIE_SHIFT, 16.0 / TIE_SHIFT]),
               (three, [8.0 / TIE_SHIFT, 4.0 / TIE_SHIFT])]
    strings += [(random_string(seed, max_atoms=300), []) for seed in range(6)]
    rng = random.Random(57)
    cases = []
    for s, picks in strings:
        marks = picks + EXTREME_SHIFTS
        for width in (3, 17, 257, 600):
            xs = [10 ** rng.uniform(-2, 9) for _ in range(width)]
            for i, j in enumerate(range(0, width, 7)):
                xs[j] = marks[i % len(marks)]
            cases.append((s, np.array(xs) * TIE_SHIFT))
    return cases


def merging_cases():
    """(string, shifts) of TestSweepPaths.test_merged_lanes: third-fifth strings of ~2 000 and
    ~700 atoms at 1, 3, 17, 120 and 257 sorted shifts up to 1e9."""
    rng = random.Random(59)
    cases = []
    for seed, epsilon in ((0, 1e-5), (1, 3e-5)):
        tree = sample_tree(third_fifth_model(), StopRule.resolution(epsilon), seed)
        s = StieltjesString.from_measure(atomize(leaf_cells(tree)))
        for width in (1, 3, 17, 120, 257):
            cases.append((s, np.array(sorted(10 ** rng.uniform(0, 9) for _ in range(width)))
                          * TIE_SHIFT))
    return cases


def crafted_pencils():
    """The two (diags, masses, b2, pivmin, shifts) pencils of
    TestSweepPaths.test_merge_restored_where_diagonals_differ."""
    n = 300
    rng = np.random.default_rng(61)
    masses = rng.uniform(0.5, 2.0, n)
    b2 = np.concatenate(([0.0], rng.uniform(0.5, 2.0, n - 1)))
    diags = np.tile(rng.uniform(2.0, 6.0, n), (2, 1))
    diags[1, 0] -= 1.0
    diags[1, 150] += 3.0
    shifts = np.sort(10 ** rng.uniform(-1, 9, 64)) * TIE_SHIFT
    shifts[41] = math.nan
    zeros = diags.copy()
    zeros[0, 0], zeros[1, 0] = 0.0, -0.0
    return ((diags, masses, b2, _SAFMIN * 2.0, shifts),
            (zeros, masses, b2, 0.0, np.concatenate((shifts[:41], [0.0, 0.0, 0.0]))))


def sweep_case_matrix():
    """(diags, masses, b2, pivmin, shifts) of TestSweepPaths' sweeps: random strings at 1, 2,
    8, 9 and 40 shifts with the extreme shifts among them, then lane_cases, merging_cases and
    crafted_pencils."""
    rng = random.Random(17)
    cases = []
    for seed in range(10):
        s = random_string(seed + 10, max_atoms=300)
        xs = [10 ** rng.uniform(-2, 9) for _ in range(35)] + EXTREME_SHIFTS
        rng.shuffle(xs)
        cases += [(s, np.array(xs[:width]) * TIE_SHIFT) for width in (1, 2, 8, 9, 40)]
    cases += lane_cases() + merging_cases()
    return ([(s._diags, s.masses, s._b2, s._pivmin, shifts) for s, shifts in cases]
            + list(crafted_pencils()))


def find_compiler():
    """The compiler the loader looks for, by the same rule: sysconfig's CC, else cc."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    return shutil.which(cc[0]) or shutil.which("cc")


@pytest.fixture
def kernel():
    compiled = _native.library()
    if compiled is None:
        pytest.skip("no C compiler: the compiled count loop cannot be built")
    return compiled


EXTREME_SHIFTS = [0.0, 5e-324, 1e300, 1.7e308, math.inf]


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

    def test_subnormal_boundary_link_rejected(self):
        # 1/l of a 1e-310 boundary link is inf: the Dirichlet diagonal was
        # infinite and dense_count raised on it
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="link"):
                StieltjesString((0.0, 1.0), [1e-310, 0.5], [1.0, 1.0])
            with pytest.raises(ValueError, match="link"):
                StieltjesString((-1.0, 0.0), [-0.5, -1e-310], [1.0, 1.0])
        s = StieltjesString((0.0, 1.0), [1e-300, 0.5], [1.0, 1.0])
        for x in (1.0, 1e3, 1e300):
            assert count_dirichlet(s, x) == dense_count(s, x, "dirichlet")
            assert count_neumann(s, x) == dense_count(s, x, "neumann")

    def test_duplicate_atoms_merged(self):
        s = StieltjesString((0.0, 1.0), [0.5, 0.5, 0.7], [0.3, 0.2, 0.5])
        assert s.n == 2
        assert s.masses.tolist() == [0.5, 0.5]


def former_string_arrays(interval, positions, masses):
    """positions, masses, _b2, _diags and _pivmin as the constructor once built them, from
    np.diff gaps, concatenated links and a zeroed diagonal block: the bit-for-bit reference
    of the in-place build. Raises the same ValueError for a link that is too short."""
    a, b = float(interval[0]), float(interval[1])
    pos, mas = np.array(positions, dtype=float), np.array(masses, dtype=float)
    gaps = np.diff(pos)
    if not (gaps > 0).all():
        order = np.argsort(pos, kind="stable")
        pos, mas = pos[order], mas[order]
        keep = np.concatenate(([True], np.diff(pos) > 0))
        pos, mas = pos[keep], np.add.reduceat(mas, np.flatnonzero(keep))
        gaps = np.diff(pos)
    links = np.concatenate(([pos[0] - a], gaps, [b - pos[-1]]))
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / links
        b2 = np.concatenate(([0.0], np.square(inv[1:-1])))
        if not (np.isfinite(inv).all() and np.isfinite(b2).all()):
            raise ValueError("a link is too short: its 1/l (1/l**2 if interior) overflows")
    diags = np.zeros((2, pos.size))
    diags[0] = inv[:-1] + inv[1:]
    diags[1, :-1] += inv[1:-1]
    diags[1, 1:] += inv[1:-1]
    return pos, mas, b2, diags, float(_SAFMIN * max(1.0, b2.max()))


def construction_cases():
    """(interval, positions, masses) of: epsilon = 1e-6 leaf atoms, depth-6 atoms, their
    bracketing pieces and the child subtrees' atoms (the reference forest), unsorted input
    with repeats, one atom, and links too short."""
    model = third_fifth_model()
    for seed in (0, 1):
        yield atomize(leaf_cells(sample_tree(model, StopRule.resolution(1e-6), seed)))
    for seed in (2, 3):
        tree = sample_tree(model, StopRule.depth(6), seed)
        yield atomize(build_cells(tree, 6))
        check_bracketing(tree, 6, 0.0)
        yield from ((p.interval, p.positions, p.masses) for p in tree.memo["bracketing"][6])
        yield from map(atomize, forest_piece_cells(tree, 6, seed))
    yield (0.0, 1.0), [0.7, 0.2, 0.5, 0.2, 0.9, 0.5, 0.2], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    yield (-2.0, 3.0), np.array([0.25]), np.array([1.5])
    yield (0.0, 1.0), [1e-200, 2e-200, 0.5], [1.0, 1.0, 1.0]  # interior 1/l**2 overflows
    yield (0.0, 1.0), [1e-310, 0.5], [1.0, 1.0]  # boundary 1/l overflows
    yield (-1.0, 0.0), [-0.5, -1e-310], [1.0, 1.0]


class TestConstruction:
    def test_arrays_bits_pinned(self):
        """The in-place build gives the former expressions' bytes, refusals included."""
        refused = 0
        for args in construction_cases():
            if isinstance(args, stieltjes.AtomizedMeasure):
                args = (args.interval, args.positions, args.masses)
            try:
                expected = former_string_arrays(*args)
            except ValueError as refusal:
                with pytest.raises(ValueError) as err:
                    StieltjesString(*args)
                assert str(err.value) == str(refusal)
                refused += 1
                continue
            s = StieltjesString(*args)
            for new, old in zip((s.positions, s.masses, s._b2, s._diags, s._pivmin), expected):
                new, old = np.asarray(new), np.asarray(old)
                assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape,
                                                                 old.tobytes())
        assert refused == 3


class TestOwnership:
    def test_writeable_input_copied(self):
        pos, mas = np.array([0.2, 0.5, 0.8]), np.array([0.3, 0.3, 0.4])
        s = StieltjesString((0.0, 1.0), pos, mas)
        before = [a.tobytes() for a in (s.positions, s.masses, s._b2, s._diags)]
        pos[:], mas[:] = 0.6, 9.0
        assert [a.tobytes() for a in (s.positions, s.masses, s._b2, s._diags)] == before

    def test_read_only_view_of_writeable_base_copied(self):
        base = np.array([0.1, 0.2, 0.5, 0.8, 0.3, 0.3, 0.4])
        pos, mas = base[1:4], base[4:]
        for view in (pos, mas):
            view.flags.writeable = False
        s = StieltjesString((0.0, 1.0), pos, mas)
        assert not np.shares_memory(s.positions, base) and not np.shares_memory(s.masses, base)
        before = [a.tobytes() for a in (s.positions, s.masses, s._b2, s._diags)]
        base[:] = 0.6
        assert [a.tobytes() for a in (s.positions, s.masses, s._b2, s._diags)] == before

    def test_read_only_inputs_shared(self):
        pos, mas = np.array([0.2, 0.5, 0.8]), np.array([0.3, 0.3, 0.4, 9.0])[:3]
        pos.flags.writeable = mas.base.flags.writeable = mas.flags.writeable = False
        s = StieltjesString((0.0, 1.0), pos, mas)
        assert s.positions is pos and s.masses is mas
        strided = np.array([0.2, 9.0, 0.5, 9.0, 0.8])[::2]
        single = np.array([0.3, 0.3, 0.4], dtype=np.float32)
        for array in (strided, strided.base, single):
            array.flags.writeable = False
        s = StieltjesString((0.0, 1.0), strided, single)  # not C-contiguous float64: copied
        assert s.positions.flags.c_contiguous and s.masses.dtype == np.float64
        assert not np.shares_memory(s.positions, strided)

    def test_measure_arrays_read_only_and_shared(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.resolution(1e-3), 4)
        for cells in (leaf_cells(tree), build_cells(tree, 3), *forest_piece_cells(tree, 3, 4)):
            atoms = atomize(cells)
            for array in (cells.left, cells.right, cells.mass, atoms.positions, atoms.masses):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.5
            s = StieltjesString.from_measure(atoms)
            assert np.shares_memory(s.positions, atoms.positions)
            assert np.shares_memory(s.masses, atoms.masses)
        assert np.shares_memory(build_cells(tree, 3).mass, tree.nodes.mass)  # a view

    def test_pieces_share_whole_string(self, third_fifth):
        tree = sample_tree(third_fifth, StopRule.depth(5), 6)
        check_bracketing(tree, 5, 1.0)
        whole = stieltjes.depth_string(tree, 5)
        start = 0
        for piece in tree.memo["bracketing"][5]:
            for mine, shared in ((piece.positions, whole.positions), (piece.masses, whole.masses)):
                assert mine.ctypes.data == shared.ctypes.data + 8 * start  # a view, in place
                assert np.shares_memory(mine, shared) and not mine.flags.writeable
                with pytest.raises(ValueError):
                    mine[0] = 0.5
            start += piece.n
        assert start == whole.n


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
        lam = dense_eigenvalues(u, "dirichlet")[0]
        assert lam == pytest.approx(math.pi ** 2, rel=5e-3)
        assert count_dirichlet(u, lam * (1 - 1e-8)) == 0
        assert count_dirichlet(u, lam * (1 + 1e-8)) == 1

    def test_no_atoms_refused(self):
        # the constructor's refusal, not a ZeroDivisionError from the mass total / n
        with pytest.raises(ValueError, match="string needs at least one atom"):
            StieltjesString.uniform(0)

    def test_bad_atom_count_named(self):
        # not numpy's "negative dimensions" ValueError or np.arange's TypeError
        for n in (-1, 2.5):
            with pytest.raises(ValueError, match=f"non-negative integer, got {n}"):
                StieltjesString.uniform(n)

    def test_masses_equal_total_over_n(self):
        for n, total in ((1, 1.0), (3, 1.0), (7, 0.3), (200, 7.1)):
            masses = StieltjesString.uniform(n, total_mass=total).masses
            assert masses.tolist() == [total / n] * n


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


class TestSweepPaths:
    """The C loop == the numpy reference block == the dense oracle, at every width and chunk size."""

    @staticmethod
    def assert_paths_agree(kernel, s, xs):
        xs = [float(x) for x in xs]
        assert len(xs) == 40
        for width in (1, 2, 8, 9, 40):
            shifts = np.array(xs[:width]) * TIE_SHIFT
            compiled = _compiled_sweep(kernel, s, shifts).tolist()
            assert _block_sweep(s, shifts).tolist() == compiled
        counts = _counts(s, xs).tolist()
        assert counts == reference_counts(s, xs)
        assert [_counts(s, [x])[:, 0].tolist() for x in xs] == [list(c) for c in zip(*counts)]
        for x, d, n in zip(xs, *counts):
            assert (d, n) == (dense_count(s, x, "dirichlet"), dense_count(s, x, "neumann"))

    def test_random_strings(self, kernel, monkeypatch):
        rng = random.Random(17)
        for chunk_rows in (1, 2, 256):
            monkeypatch.setattr(stieltjes, "_CHUNK_ROWS", chunk_rows)
            for seed in range(10):
                s = random_string(seed + 10 * chunk_rows, max_atoms=300)
                xs = [10 ** rng.uniform(-2, 9) for _ in range(35)] + EXTREME_SHIFTS
                rng.shuffle(xs)
                self.assert_paths_agree(kernel, s, xs)

    def test_exact_eigenvalue_ties(self, kernel, monkeypatch, both_paths):
        # uniform(2) has the exact Dirichlet spectrum {8, 16} and Neumann {0, 8}
        u = StieltjesString.uniform(2)
        ties = [8.0, 16.0] + EXTREME_SHIFTS + [float(x) for x in np.geomspace(1.0, 1e3, 33)]
        for chunk_rows in (1, 2, 256):
            monkeypatch.setattr(stieltjes, "_CHUNK_ROWS", chunk_rows)
            for path in both_paths():
                assert count_dirichlet(u, 8.0) == 1 and count_dirichlet(u, 16.0) == 2
                assert count_neumann(u, 8.0) == 2
            self.assert_paths_agree(kernel, u, ties)

    def test_vanishing_pivot_safeguard(self, kernel, monkeypatch, both_paths):
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
                for path in both_paths():
                    for x, count in zip(xs, zeros.values()):
                        assert count_dirichlet(s, x) == dense_count(s, x, "dirichlet") == count
                self.assert_paths_agree(kernel, s, (xs * 20)[:35] + EXTREME_SHIFTS)

    def test_final_pivots_bit_identical(self, kernel):
        # the C loop's last pivots equal a plain-float recurrence in the documented
        # order, bit for bit: a reassociated or fused (FMA) step would show here
        # widths 9 and 3 are odd, so the C loop pads a lane, 257 (with the
        # extreme shifts) crosses the loop's 256-shift tile
        rng = random.Random(41)
        for seed, width in zip(range(12), [9] * 10 + [3, 257]):
            s = random_string(seed, max_atoms=300)
            xs = [10 ** rng.uniform(-2, 9) for _ in range(width)]
            if width > 256:
                xs[250:260] = EXTREME_SHIFTS * 2
            shifts = np.array(xs) * TIE_SHIFT
            pivots = np.empty(2 * shifts.size)
            counts = np.empty((2, shifts.size), dtype=np.int64)
            kernel.sturm_counts(s.n, shifts.size, s._pivmin, s._diags.ctypes.data,
                                s.masses.ctypes.data, s._b2.ctypes.data, shifts.ctypes.data,
                                pivots.ctypes.data, counts.ctypes.data)
            expected = []
            for diag in s._diags.tolist():
                for x in shifts.tolist():
                    d = 1.0
                    for k, (m, b2) in enumerate(zip(s.masses.tolist(), s._b2.tolist())):
                        d = (diag[k] - m * x) - b2 / d
                        if -s._pivmin < d < s._pivmin:
                            d = -s._pivmin
                    expected.append(d)
            assert pivots.tolist() == expected
            assert counts.tolist() == _block_sweep(s, shifts).tolist()

    def test_lanes_and_tiles(self, kernel):
        # odd widths pad a lane, 257 and 600 shifts cross the C loop's 256-shift
        # tile; ties, zero pivots and the extreme shifts sit every 7th shift, so in
        # every vector lane and every tile
        for s, shifts in lane_cases():
            compiled = _compiled_sweep(kernel, s, shifts).tolist()
            assert compiled == _block_sweep(s, shifts).tolist(), (s.n, shifts.size)

    def test_merged_lanes(self, kernel):
        # long third-fifth strings at shifts up to 1e9: within the first half of the
        # string the top lanes' Dirichlet and Neumann pivots get the same bits and the C
        # loop sweeps them once; the lowest lanes never merge. The last row's diagonals differ, so
        # every merged lane is restored before it. Widths 1, 3 and 17 sweep both chains
        # throughout, 257 crosses the tile with a merging 256-lane tile and a lone lane
        # and its pad lane
        for s, shifts in merging_cases():
            width = shifts.size
            pivots, counts = kernel_sweep(kernel, s._diags, s.masses, s._b2, s._pivmin, shifts)
            expected, expected_counts, merged = pivot_replay(
                s._diags, s.masses, s._b2, s._pivmin, shifts)
            assert pivots.tobytes() == expected.tobytes(), (s.n, width)
            assert counts.tolist() == expected_counts.tolist()
            assert counts.tolist() == _block_sweep(s, shifts).tolist()
            if width >= MERGE_MIN:  # the top lane of the first tile merges, the lowest do not
                assert merged[s.n // 2, min(width, TILE) - 1], (s.n, width)
                assert not merged[:, 0].any() and not merged[-1].any()

    def test_merge_restored_where_diagonals_differ(self, kernel):
        # crafted pencils: the diagonals differ in row 0 and in interior row 150 (after
        # the high lanes have merged), not in the last row. So merged lanes are split
        # before row 150, merge again and are restored only at the end. Lane 41 has a NaN
        # shift: NaN pivots never merge, so neither it nor the lanes below it do (lanes
        # merge in pairs from the top down). Then pivmin = 0, diagonals +0 and -0 in row
        # 0 and zero shifts on top: pivots +0 and -0 are equal numbers but not equal
        # bits, and must not merge
        (diags, masses, b2, pivmin, shifts), signed_zeros = crafted_pencils()
        n = masses.size
        pivots, counts = kernel_sweep(kernel, diags, masses, b2, pivmin, shifts)
        expected, expected_counts, merged = pivot_replay(diags, masses, b2, pivmin, shifts)
        assert pivots.tobytes() == expected.tobytes()
        assert counts.tolist() == expected_counts.tolist()
        assert merged[[149, 160, n - 1], 42:].all() and not merged[150].any()
        assert not merged[:, :42].any()
        string = StieltjesString.uniform(n)  # _block_sweep reads the crafted pencil from it
        string._diags, string.masses, string._b2, string._pivmin = diags, masses, b2, pivmin
        assert counts.tolist() == _block_sweep(string, shifts).tolist()
        diags, masses, b2, pivmin, shifts = signed_zeros
        pivots, counts = kernel_sweep(kernel, diags, masses, b2, pivmin, shifts)
        expected, expected_counts, merged = pivot_replay(diags, masses, b2, pivmin, shifts)
        # row 1 divides by +0 and -0: -inf counts on one boundary, +inf not on the other
        assert not merged[1].any() and (expected_counts[0, -2:] == expected_counts[1, -2:] + 1).all()
        assert pivots.tobytes() == expected.tobytes()
        assert counts.tolist() == expected_counts.tolist()

    def test_curve_spanning_chunks(self):
        # 600 to 1200 atoms: three to five chunks of the numpy block
        rng = np.random.default_rng(23)
        for n in (600, 777, 1024, 1200):
            s = StieltjesString((0.0, 1.0), np.sort(rng.uniform(0.01, 0.99, n)),
                                10 ** rng.uniform(-3, 0, n))
            xs = np.sort(10 ** rng.uniform(-1, 9, 40))
            samples = counting_curve(s, xs)
            assert [[c.count_dirichlet for c in samples],
                    [c.count_neumann for c in samples]] == reference_counts(s, xs)
            for c in samples[::8]:
                assert c.count_dirichlet == dense_count(s, c.x, "dirichlet")
                assert c.count_neumann == dense_count(s, c.x, "neumann")

    def test_single_shift_counts_pinned(self, third_fifth, both_paths):
        # whole string and every child subtree's string (the reference forest) at
        # the shifts check_bracketing once used; then uniform(2) and a 3-atom string at
        # exact ties (8, 16), zero pivots (x' = 12, 16 and 8, 4), 0 and shifts
        # where x' m overflows to a -inf pivot; on both count paths
        for path in both_paths():
            lines = []
            for seed in range(5):
                tree = sample_tree(third_fifth, StopRule.depth(8), seed)
                parts = [(1.0, stieltjes.depth_string(tree, 8))] + forest_pieces(tree, 8, seed)
                for x in np.geomspace(1.0, 1e6, 12):
                    for scale, s in parts:
                        y = scale * float(x)
                        lines.append(f"{s.n},{y!r},{count_dirichlet(s, y)},{count_neumann(s, y)}")
            u = StieltjesString.uniform(2)
            three = StieltjesString((0.0, 1.0), [0.25, 0.5, 0.75], [1.0, 1.0, 1.0])
            for s, special in ((u, (8.0, 16.0, 12.0 / TIE_SHIFT, 16.0 / TIE_SHIFT)),
                               (three, (8.0 / TIE_SHIFT, 4.0 / TIE_SHIFT))):
                for y in special + (0.0, 1e300, 1.7e308, math.inf):
                    lines.append(f"{s.n},{y!r},{count_dirichlet(s, y)},{count_neumann(s, y)}")
            assert len(lines) == 230
            text = "\n".join(lines)
            assert hashlib.sha256(text.encode()).hexdigest() == SINGLE_SHIFT_DIGEST, path


ZERO_PIVOT_SHAPES = [  # uniform(2): eigenvalues 8, 16, zero pivots at x' = 12, 16; three: 8, 4
    (StieltjesString.uniform(2), [8.0, 16.0, 12.0]),
    (StieltjesString((0.0, 1.0), [0.25, 0.5, 0.75], [1.0, 1.0, 1.0]), [8.0, 4.0]),
]


@st.composite
def drawn_sweeps(draw):
    """(string, shifts x'): drawn strings with masses 1e-300..1e300 (equal masses included),
    uniform strings and the zero-pivot shapes; widths 1-300 with every remainder mod 4, the
    shifts spread about the string's diagonal over mass, with 0, 5e-324, 1e300, inf, the zero
    pivots of row 0 and repeats of one shift mixed in, sorted, reversed or shuffled."""
    kind = draw(st.sampled_from(["drawn", "uniform", "zero pivot"]))
    exponent = st.integers(-300, 300)
    if kind == "drawn":
        n = draw(st.integers(1, 40))
        slots = sorted(draw(st.lists(st.integers(1, 999), min_size=n, max_size=n, unique=True)))
        exponents = draw(st.one_of(st.lists(exponent, min_size=n, max_size=n),
                                   exponent.map(lambda e: [e] * n)))
        s = StieltjesString((0.0, 1.0), [k / 1000 for k in slots], [10.0 ** e for e in exponents])
        picks = []
    elif kind == "uniform":
        s = StieltjesString.uniform(draw(st.integers(1, 40)), total_mass=10.0 ** draw(exponent))
        picks = []
    else:
        s, picks = draw(st.sampled_from(ZERO_PIVOT_SHAPES))
    width = 4 * draw(st.integers(0, 74)) + draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore"):
        scale = float(np.median(s._diags[0] / s.masses))
        shifts = scale * 10 ** rng.uniform(-6, 6, width)
        pool = [0.0, 5e-324, 1e300, math.inf, shifts[0], *picks, *(s._diags[:, 0] / s.masses[0])]
    marked = rng.random(width) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    shifts[marked] = rng.choice(pool, marked.sum())
    order = draw(st.sampled_from(["sorted", "reversed", "shuffled"]))
    if order != "shuffled":
        shifts.sort()
    return s, shifts[::-1].copy() if order == "reversed" else shifts


class TestCountsDifferential:
    """Drawn strings and shifts: the C sweep, whichever build of it the CPU runs, against the
    numpy block, count for count."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(drawn_sweeps())
    def test_compiled_equals_block(self, sweep):
        kernel = _native.library()
        if kernel is None:
            pytest.skip("no C compiler: the compiled count loop cannot be built")
        s, shifts = sweep
        assert _compiled_sweep(kernel, s, shifts).tolist() == _block_sweep(s, shifts).tolist()


class TestBaselineBuild:
    """On x86-64 with glibc an AVX2 CPU runs the sweeps' AVX2 clones and never their baseline
    build. A copy of _native.c without the clones builds the baseline alone: its last pivots
    and counts equal the loaded library's byte for byte over TestSweepPaths' cases."""

    CLONES = '#define CLONES __attribute__((target_clones("avx2", "default")))'

    def test_matches_loaded_library(self, kernel, tmp_path, monkeypatch):
        text = _native._SOURCE.read_text()
        assert text.count(self.CLONES) == 1
        copy = tmp_path / "_native.c"
        copy.write_text(text.replace(self.CLONES, "#define CLONES"))
        monkeypatch.setattr(_native, "_SOURCE", copy)
        built = tmp_path / "build" / "_native-baseline.so"
        _native._build(built)
        baseline = _native._typed(ctypes.CDLL(str(built)))
        cases = sweep_case_matrix()
        assert len(cases) == 94
        for diags, masses, b2, pivmin, shifts in cases:
            pivots, counts = kernel_sweep(kernel, diags, masses, b2, pivmin, shifts)
            expected, expected_counts = kernel_sweep(baseline, diags, masses, b2, pivmin, shifts)
            assert pivots.tobytes() == expected.tobytes(), (masses.size, shifts.size)
            assert counts.tobytes() == expected_counts.tobytes()


class TestKernelLoader:
    """Building and loading the C loop into a private cache under a temporary XDG_CACHE_HOME."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        _native.library.cache_clear()
        yield tmp_path / "xdg" / "cantorstring"
        _native.library.cache_clear()

    @staticmethod
    def assert_reference_counts():
        s = random_string(5, max_atoms=300)
        xs = [float(x) for x in np.geomspace(1e-2, 1e9, 12)] + EXTREME_SHIFTS
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _counts(s, xs).tolist()
        assert counts == reference_counts(s, xs)

    def test_no_compiler(self, monkeypatch, fresh_cache):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        self.assert_reference_counts()
        assert _native.library() is None
        assert not fresh_cache.exists()

    def test_failing_compile(self, monkeypatch, tmp_path, fresh_cache):
        broken = tmp_path / "_native.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(_native, "_SOURCE", broken)
        self.assert_reference_counts()
        assert _native.library() is None
        assert list(fresh_cache.iterdir()) == []  # the temporary build directory is removed

    def test_cache_under_a_file(self, tmp_path, monkeypatch):
        # the cache directory cannot be created: XDG_CACHE_HOME names a file
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        self.assert_reference_counts()
        assert _native.library() is None

    def test_read_only_cache(self, monkeypatch, fresh_cache):
        fresh_cache.mkdir(parents=True, mode=0o500)
        def refuse(*args, **kwargs):  # root ignores the mode bits, so refuse as a user would be
            raise PermissionError("read-only cache directory")
        monkeypatch.setattr("tempfile.mkdtemp", refuse)
        self.assert_reference_counts()
        assert _native.library() is None

    def test_shared_cache_not_loaded(self, fresh_cache):
        if find_compiler() is None:
            pytest.skip("no C compiler: nothing is built to load")
        assert _native.library() is not None
        _native.library.cache_clear()
        fresh_cache.chmod(0o777)  # others could replace the library
        self.assert_reference_counts()
        assert _native.library() is None

    def test_compiler_means_kernel(self):
        # with a compiler on PATH the C loop must load, so no run measures the fallback unnoticed
        assert (_native.library() is not None) == (find_compiler() is not None)

    def test_corrupt_library_rebuilt(self, fresh_cache):
        # a cached library that does not load is built again, not left to send
        # every later process to the numpy sweep; a child builds the first one,
        # since a library this process has mapped must not be overwritten in place
        if find_compiler() is None:
            pytest.skip("no C compiler: nothing is built to load")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = "from cantorstring import _native; assert _native.library() is not None"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        (library,) = fresh_cache.glob("*.so")
        library.write_bytes(b"not a shared library\n")
        _native.library.cache_clear()
        assert _native.library() is not None
        self.assert_reference_counts()
        assert list(fresh_cache.iterdir()) == [library]
        assert library.read_bytes().startswith(b"\x7fELF") or sys.platform != "linux"

    def test_concurrent_first_loads(self, fresh_cache):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = "from cantorstring import _native; print(_native.library() is not None)"
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        outs = [proc.communicate(timeout=120)[0].strip() for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0]
        loaded = str(find_compiler() is not None)
        assert outs == [loaded, loaded]
        assert len(list(fresh_cache.glob("*"))) == (1 if loaded == "True" else 0)
        assert len(list(fresh_cache.glob("*.so"))) == (1 if loaded == "True" else 0)


class TestCurve:
    def test_counts_pinned(self, both_paths):
        tree = sample_tree(third_fifth_model(), StopRule.resolution(1e-5), 0)
        string = StieltjesString.from_measure(atomize(leaf_cells(tree)))
        assert string.n == 3672
        for path in both_paths():
            samples = counting_curve(string, np.geomspace(1.0, 1e9, 120))
            text = "\n".join(f"{s.x!r},{s.count_dirichlet},{s.count_neumann}" for s in samples)
            assert hashlib.sha256(text.encode()).hexdigest() == CURVE_COUNTS_DIGEST, path

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
        letter = middle_third.letters[0]
        for x in (10.0, 1e3, 1e5):
            assert check_bracketing(tree, 6, x)
            sum_d = sum_n = 0
            for scale, piece in forest_pieces(tree, 6, 0):
                sum_d += count_dirichlet(piece, scale * x)
                sum_n += count_neumann(piece, scale * x)
            assert sum_n - sum_d <= 2 * letter.n_maps

    def test_memo_matches_fresh_trees(self, third_fifth):
        def table_bytes(t):  # every array of the node table (a tree's sigma is None)
            return [None if a is None else a.tobytes() for a in vars(t.nodes).values()]

        tree = sample_tree(third_fifth, StopRule.depth(6), 11)
        before = table_bytes(tree)
        for x in (0.0, 30.0, 1e3, 1e5, 3e6):
            for n in (6, 4):
                fresh = sample_tree(third_fifth, StopRule.depth(6), 11)
                assert check_bracketing(tree, n, x) == check_bracketing(fresh, n, x)
        assert set(tree.memo["bracketing"]) == {4, 6}
        fresh = sample_tree(third_fifth, StopRule.depth(6), 11)
        for n in (4, 6):
            whole, bounds = stieltjes.depth_string(fresh, n), child_bounds(fresh, n)
            pieces = tree.memo["bracketing"][n]
            assert len(pieces) == len(bounds) - 1
            for piece, lo, hi in zip(pieces, bounds, bounds[1:]):
                assert piece.positions.tobytes() == whole.positions[lo:hi].tobytes()
                assert piece.masses.tobytes() == whole.masses[lo:hi].tobytes()
        assert table_bytes(tree) == before and table_bytes(fresh) == before

    def test_memo_grows_nothing(self, third_fifth, monkeypatch):
        """Filling the memo cuts the sampled tree's string: no module's _grow is called."""
        tree, calls = sample_tree(third_fifth, StopRule.depth(6), 5), []
        for name, module in list(sys.modules.items()):
            if name.startswith("cantorstring") and hasattr(module, "_grow"):
                monkeypatch.setattr(module, "_grow", lambda *args, **limits: calls.append(args))
        for x in (10.0, 1e3, 1e5):
            for n in (6, 3):
                check_bracketing(tree, n, x)
        assert calls == [] and set(tree.memo["bracketing"]) == {3, 6}

    def test_collapsed_pieces_refused(self):
        """Map ratios 0.0068: depth-8 atoms lie a few ulps apart and the first atom of a
        root child rounds onto its cell's left end, where the sums would read false."""
        model, grid = random_model(2, balanced=True), np.geomspace(1.0, 1e6, 12)
        for seed in range(3):
            tree = sample_tree(model, StopRule.depth(8), seed)
            stieltjes.depth_string(tree, 8)  # the whole string is not collapsed
            with pytest.raises(measure.CollapsedCells, match="at depth 8 collapsed"):
                check_bracketing(tree, 8, 1.0)
            assert 8 not in tree.memo["bracketing"]
            assert all(check_bracketing(tree, 7, float(x)) for x in grid)

    def test_pieces_match_forest_sums(self, balanced_pair, both_paths):
        """The four sums of the cut pieces at x equal those of the child subtrees' strings
        (the reference forest) at r_i m_i x, on both count paths."""
        extra = [0.0, 1e-3, 1e12, 1e300]
        grid = np.array([*np.geomspace(1.0, 1e6, 12), *extra])
        cases = [(third_fifth_model(), 8, seed, grid) for seed in range(50)]
        for model in (single_letter_model(middle_third_letter()), balanced_pair,
                      random_model(1), random_model(6)):
            cases += [(model, n, seed, np.array(extra)) for n in range(1, 8) for seed in range(10)]
        strings = []  # grown once: growth paths are compared elsewhere
        for model, n, seed, xs in cases:
            tree = sample_tree(model, StopRule.depth(n), seed)
            check_bracketing(tree, n, 0.0)
            strings.append((tree.memo["bracketing"][n], forest_pieces(tree, n, seed), xs))
        for path in both_paths():
            for (pieces, reference, xs), (model, n, seed, _) in zip(strings, cases):
                got = sum(_counts(piece, xs) for piece in pieces)
                want = sum(_counts(piece, scale * xs) for scale, piece in reference)
                assert got.tolist() == want.tolist(), (path, model.letters[0].id, n, seed)

    @pytest.mark.parametrize("name, atoms, digest", PIECE_DIGESTS,
                             ids=[name for name, _, _ in PIECE_DIGESTS])
    def test_piece_bits_pinned(self, name, atoms, digest, request, both_paths):
        """Depth-n tree of seed 3n + 1 for n = 1..8; every child subtree's string (the
        reference forest, the former pieces) keeps every bit, on both growth paths."""
        model = {"third-fifth": third_fifth_model,
                 "middle-third": lambda: single_letter_model(middle_third_letter()),
                 "balanced-pair": lambda: request.getfixturevalue("balanced_pair"),
                 "random-1": lambda: random_model(1), "random-6": lambda: random_model(6),
                 "random-2-balanced": lambda: random_model(2, balanced=True)}[name]()
        for path in both_paths():
            h, total = hashlib.sha256(), 0
            for n in range(1, 9):
                tree = sample_tree(model, StopRule.depth(n), 3 * n + 1)
                for scale, piece in forest_pieces(tree, n, 3 * n + 1):
                    for array in (np.float64(scale), piece.positions, piece.masses):
                        h.update(array.tobytes())
                    total += piece.n
            assert (total, h.hexdigest()) == (atoms, digest), path

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
    for boundary, columns in (("dirichlet", "x,N_D"), ("neumann", "x,N_N")):
        export_curve_csv(samples, path, boundary=boundary)
        assert path.read_text().splitlines()[0] == columns
    with pytest.raises(ValueError, match="boundary must be one of"):
        export_curve_csv(samples, tmp_path / "typo.csv", boundary="dirichet")
    assert not (tmp_path / "typo.csv").exists()

