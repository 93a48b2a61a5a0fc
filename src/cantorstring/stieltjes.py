"""Eigenvalue counting for discrete Krein/Stieltjes strings.

A string is a finite set of point masses m_1..m_n at positions
a < x_1 < ... < x_n < b. Its transverse vibration spectrum is the
generalized eigenvalue problem K u = lambda M u with M = diag(m) and K the
tridiagonal stiffness built from the inverse link lengths l_k:

    Dirichlet (ends clamped, boundary links included)

        K_D[k, k]   = 1/l_{k-1} + 1/l_k       l_0 = x_1 - a, l_n = b - x_n
        K_D[k, k+1] = -1/l_k

    Neumann (free ends, interior links only)

        K_N[1, 1] = 1/l_1,  K_N[n, n] = 1/l_{n-1},  interior rows as K_D

K_N is singular with the constant null vector, so the Neumann count
includes the zero eigenvalue and is >= 1 for every shift x >= 0.

Counting N(x) = #{lambda <= x} is one symmetric factorization of K - x M:
by Sylvester's law of inertia the number of non-positive pivots of the
d_k recurrence

    d_k = (K - x M)[k, k] - b_{k-1}^2 / d_{k-1}

equals the count. Ties are pulled inside the count by shifting to
x * (1 + 1e-15); a vanishing pivot is replaced by a tiny negative value
(the classical bisection safeguard), which only matters on a measure-zero
set of shifts.

The two pencils share M and the off-diagonal, so a count sweeps both
boundaries at once in the C loop of _native.c (built and loaded by
_native.library; its header gives the step, the branchless guard and why
every count keeps its bits), 256 shifts a tile, rows outer and shifts inner.
K_N differs from K_D only in the first and last diagonal entries, so once a
shift's two pivots have the same bits its Neumann chain is the Dirichlet one
until the last row: sweeps of 32 shifts or more stop sweeping it there. One
shift runs in registers, passing the string's pointers, taken once, and no
numpy array. With no compiler, a failed build or an unusable cache, counts
come from _block_sweep, the numpy reference:
_CHUNK_ROWS rows at a time, one column per (boundary, shift). Its safeguard
is tested once per chunk: before the first pivot below it the unguarded
recurrence is the guarded one, so the chunk is redone from that row on.

The Dirichlet-Neumann bracketing check cuts the depth-n string at the root
children's cells: each piece is a string over a slice of the whole string's
atoms, views of shared arrays. With the pieces' diagonals and b2 joined once,
one pass of the C loop counts the whole string and the piece that owns each
row, four one-shift chains in step: every sum keeps its bits.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from . import _native
from .measure import AtomizedMeasure, CollapsedCells, _require_depth, atomize, build_cells
from .tree import RandomTree, write_table

TIE_SHIFT = 1.0 + 1e-15
_SAFMIN = np.finfo(float).tiny
_CHUNK_ROWS = 256  # rows of the numpy block swept between two safeguard tests

_BOUNDARIES = ("dirichlet", "neumann")


def _boundary_index(boundary: str, choices: Tuple[str, ...] = _BOUNDARIES) -> int:
    """Place of boundary in choices; ValueError naming the choices if it is not one."""
    if boundary not in choices:
        raise ValueError(f"boundary must be one of {choices}, got {boundary!r}")
    return choices.index(boundary)


def _frozen(values: Sequence[float]) -> np.ndarray:
    """values as a C-contiguous float64 array no one can write: values itself when it is
    one, read-only down its whole .base chain to the array owning the data, else a copy."""
    owner = values
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if (owner is None and values.dtype == np.float64 and values.flags.c_contiguous
            and values.flags.aligned):
        return values
    return np.array(values, dtype=float)


class StieltjesString:
    """Point masses on an interval, with the pencils' diagonals cached.

    Atoms must lie strictly inside (a, b) at strictly increasing positions,
    as atomized measures do, so interior links are strictly positive;
    unsorted or repeated positions are refused. A link whose 1/l overflows
    is rejected, and so is an interior one whose 1/l**2 does: the pivot
    recurrence squares the off-diagonal.
    Links and diagonals are built in place. Positions and masses are kept
    as given if they are C-contiguous float64 arrays no one can write (read-
    only down the .base chain, as atoms are), else copied; all are read-only.
    """

    def __init__(self, interval: Tuple[float, float],
                 positions: Sequence[float], masses: Sequence[float]):
        a, b = float(interval[0]), float(interval[1])
        pos, mas = _frozen(positions), _frozen(masses)
        if pos.size == 0:
            raise ValueError("string needs at least one atom")
        if not (np.isfinite([a, b]).all() and np.isfinite(pos).all()
                and np.isfinite(mas).all()):
            raise ValueError("interval, positions and masses must be finite")
        if np.any(mas <= 0):
            raise ValueError("masses must be positive")
        if not (pos[1:] > pos[:-1]).all():
            raise ValueError("positions must be strictly increasing")
        if pos[0] <= a or pos[-1] >= b:
            raise ValueError("atoms must lie strictly inside the interval")
        self.interval = (a, b)
        self.positions = pos
        self.masses = mas
        n = pos.size
        inv = np.empty(n + 1)  # the links x_1 - a, gaps, b - x_n, then their inverses
        inv[0], inv[n] = pos[0] - a, b - pos[-1]
        np.subtract(pos[1:], pos[:-1], out=inv[1:n])
        self._b2 = np.empty(n)
        self._b2[0] = 0.0  # pivot row k subtracts b_{k-1}^2 / d_{k-1}; row 0 gets b^2 = 0, d = 1
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(1.0, inv, out=inv)
            np.square(inv[1:n], out=self._b2[1:])
            if not (np.isfinite(inv).all() and np.isfinite(self._b2).all()):
                raise ValueError("a link is too short: its 1/l (1/l**2 if interior) overflows")
        self._pivmin = float(_SAFMIN * max(1.0, self._b2.max()))
        self._diags = np.empty((2, n))  # K_D and K_N diagonals, in _BOUNDARIES order
        np.add(inv[:n], inv[1:], out=self._diags[0])
        inv[0] = inv[n] = 0.0  # K_N has no boundary links
        np.add(inv[:n], inv[1:], out=self._diags[1])
        for array in (self.positions, self.masses, self._b2, self._diags):
            array.flags.writeable = False
        # the C loop reads the string through these, taken once: no one can write the arrays
        self._pointers = tuple(array.ctypes.data for array in (self._diags, mas, self._b2))
        self._dense = {}  # boundary -> eigenvalues, filled by dense_eigenvalues

    @property
    def n(self) -> int:
        return self.positions.size

    @classmethod
    def from_measure(cls, measure: AtomizedMeasure) -> "StieltjesString":
        return cls(measure.interval, measure.positions, measure.masses)

    @classmethod
    def uniform(cls, n: int, interval: Tuple[float, float] = (0.0, 1.0),
                total_mass: float = 1.0) -> "StieltjesString":
        """n equal masses at the midpoints of n equal subintervals."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"atom count must be a non-negative integer, got {n!r}")
        a, b = interval
        pos = a + (b - a) * (2 * np.arange(1, n + 1) - 1) / (2 * n)
        return cls(interval, pos, np.full(n, total_mass) / n)  # n = 0: the constructor refuses


@dataclass(frozen=True)
class CountingSample:
    x: float
    count_dirichlet: int
    count_neumann: int


def _compiled_sweep(library, string: StieltjesString, shifts: np.ndarray) -> np.ndarray:
    """(2, len(shifts)) Dirichlet and Neumann pivot counts from the C loop."""
    pivots = np.empty(2 * shifts.size)
    counts = np.empty((2, shifts.size), dtype=np.int64)
    library.sturm_counts(string.n, shifts.size, string._pivmin, *string._pointers,
                         shifts.ctypes.data, pivots.ctypes.data, counts.ctypes.data)
    return counts


def _block_sweep(string: StieltjesString, shifts: np.ndarray) -> np.ndarray:
    """(2, len(shifts)) pivot counts, _CHUNK_ROWS rows at a time, all columns at once."""
    diags, b2, pivmin = string._diags, string._b2, string._pivmin
    groups, n = diags.shape
    width = groups * shifts.size
    height = min(n, _CHUNK_ROWS)
    block = np.empty((height, groups, shifts.size))  # K_g[k, k] - x' m_k, then d_k
    rows = list(block.reshape(height, width))
    b2_block = np.empty((height, width))
    b2_rows = list(b2_block)
    m_x = np.empty((height, shifts.size))
    q = np.empty(width)
    last = np.ones(width)
    counts = np.zeros(width, dtype=np.int64)
    divide, subtract = np.divide, np.subtract
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n, height):
            h = min(height, n - start)
            np.multiply(string.masses[start:start + h, None], shifts, out=m_x[:h])
            subtract(diags[:, start:start + h].T[:, :, None], m_x[:h, None, :], block[:h])
            np.copyto(b2_block[:h], b2[start:start + h, None])
            prev = last
            for row, b2_row in zip(rows[:h], b2_rows):
                divide(b2_row, prev, q)
                subtract(row, q, row)
                prev = row
            pivots = block[:h].reshape(h, width)
            tiny = np.abs(pivots) < pivmin
            if tiny.any():
                first = int(tiny.any(axis=1).argmax())
                np.copyto(rows[first], -pivmin, where=tiny[first])
                for j in range(first + 1, h):
                    subtract(diags[:, start + j, None], m_x[j], block[j])
                    divide(b2_rows[j], rows[j - 1], q)
                    subtract(rows[j], q, rows[j])
                    np.copyto(rows[j], -pivmin, where=np.abs(rows[j]) < pivmin)
            counts += (pivots <= 0).sum(axis=0)
            np.copyto(last, rows[h - 1])
    return counts.reshape(groups, shifts.size)


def _counts(string: StieltjesString, xs: Sequence[float]) -> np.ndarray:
    """(2, len(xs)) Dirichlet and Neumann counts of K - x' M, x' = x * (1 + 1e-15)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not (xs >= 0).all():
        raise ValueError("spectral parameter x must be >= 0")
    with np.errstate(over="ignore"):  # x' overflows to inf near the float maximum, as in _pair
        shifts = xs * TIE_SHIFT
    library = _native.library()
    if library is None:
        counts = _block_sweep(string, shifts)
    else:
        counts = _compiled_sweep(library, string, shifts)
    # the constant vector is an exact null vector of K_N, so the zero eigenvalue
    # belongs to the count for every x >= 0; the final pivot carries it and
    # floats may round it either way
    np.maximum(counts[1], 1, out=counts[1])
    return counts


def _pair(string: StieltjesString, x: float) -> Tuple[int, int]:
    """(N_D(x), N_N(x)) as _counts gives them, one shift through the C loop without numpy."""
    library = _native.library()
    if library is None or not x >= 0:
        return tuple(_counts(string, [x])[:, 0].tolist())
    counts = (ctypes.c_int64 * 2)()
    library.sturm_counts(string.n, 1, string._pivmin, *string._pointers,
                         ctypes.byref(ctypes.c_double(x * TIE_SHIFT)), (ctypes.c_double * 2)(),
                         counts)
    return counts[0], max(counts[1], 1)


def count_dirichlet(string: StieltjesString, x: float) -> int:
    """Number of Dirichlet eigenvalues <= x."""
    return _pair(string, x)[0]


def count_neumann(string: StieltjesString, x: float) -> int:
    """Number of Neumann eigenvalues <= x, the zero mode included."""
    return _pair(string, x)[1]


def counting_curve(string: StieltjesString, xs: Sequence[float]) -> List[CountingSample]:
    """Both counting functions on a grid, in one pivot sweep."""
    xs = sorted(float(x) for x in xs)
    nd, nn = _counts(string, xs)
    return [CountingSample(x, int(d), int(n)) for x, d, n in zip(xs, nd, nn)]


# ---------------------------------------------------------------------------
# Dense oracle (small strings)
# ---------------------------------------------------------------------------

def dense_eigenvalues(string: StieltjesString, boundary: str) -> np.ndarray:
    """All pencil eigenvalues via a dense symmetric tridiagonal solve.

    The generalized problem is reduced to standard form with
    D = diag(1/sqrt(m)): eig(D K D). Solved once per boundary, kept read-only.
    scipy is imported here, not at module level: no CLI command runs the oracle.
    """
    if boundary not in string._dense:
        from scipy.linalg import eigvalsh_tridiagonal
        diag, off = string._diags[_boundary_index(boundary)], -(1.0 / np.diff(string.positions))
        m = string.masses
        s = 1.0 / np.sqrt(m)
        values = eigvalsh_tridiagonal(diag / m, off * s[:-1] * s[1:])  # n = 1: exactly diag / m
        values.flags.writeable = False
        string._dense[boundary] = values
    return string._dense[boundary]


def dense_count(string: StieltjesString, x: float, boundary: str) -> int:
    if not x >= 0:
        raise ValueError("spectral parameter x must be >= 0")
    count = int((dense_eigenvalues(string, boundary) <= x * TIE_SHIFT).sum())
    if boundary == "neumann":
        count = max(count, 1)  # exact zero mode, same reasoning as _counts
    return count


# ---------------------------------------------------------------------------
# Bracketing check
# ---------------------------------------------------------------------------

def depth_string(tree: RandomTree, n: int) -> StieltjesString:
    """The atomized generation-n string of tree, built once and kept in ``tree.memo``."""
    strings = tree.memo.setdefault("strings", {})
    if n not in strings:
        strings[n] = StieltjesString.from_measure(atomize(build_cells(tree, n)))
    return strings[n]


def _piece_inputs(whole: StieltjesString, pieces: Sequence[StieltjesString]) -> tuple:
    """bracket_counts' arrays of the pieces that cut whole (their atoms, in turn, are whole's),
    joined, and their addresses: cuts, pivmin, diagonals, b2."""
    arrays = (np.array([0, *accumulate(p.n for p in pieces)], dtype=np.int64),
              np.array([p._pivmin for p in pieces]),
              np.concatenate([p._diags for p in pieces], axis=1),
              np.concatenate([p._b2 for p in pieces]))
    if arrays[0][-1] != whole.n:  # the C pass reads whole's rows up to the last cut
        raise ValueError(f"pieces hold {arrays[0][-1]} atoms, the whole string {whole.n}")
    return arrays, tuple(array.ctypes.data for array in arrays)


def _four_counts(whole: StieltjesString, pieces: Sequence[StieltjesString], inputs,
                 x: float) -> Tuple[int, int, int, int]:
    """(N_D(x), N_N(x)) of whole and their sums over its pieces, as _pair gives each, in one
    C call (inputs = _piece_inputs(whole, pieces)); else, or if _pair refuses x, by _pair."""
    library = _native.library()
    if library is None or not x >= 0:
        return (*_pair(whole, x), *map(sum, zip(*(_pair(piece, x) for piece in pieces))))
    counts = (ctypes.c_int64 * 4)()
    library.bracket_counts(whole.n, x * TIE_SHIFT, whole._pivmin, *whole._pointers,
                           len(pieces), *inputs[1], counts)
    return tuple(counts)


def check_bracketing(tree: RandomTree, n: int, x: float) -> bool:
    """Four-term chain between the whole string and its root-child pieces.

        sum_i N_D^(i)(x) <= N_D(x) <= N_N(x) <= sum_i N_N^(i)(x)

    The whole string is the depth-n atomization; piece i is that string cut to
    root child i's cell S_i([a, b]), its atoms views of the whole string's: the
    nodes of generation n in child i's preorder range. Rescaled, the sums are
    the self-similar sum_i N^(i)(r_i m_i x) over the child subtrees. The pieces
    are cut on the first call for (tree, n) and kept in ``tree.memo``, with the
    joined piece arrays of _piece_inputs; each call then counts all four sums in
    one pass of the C loop over the whole string's rows (_four_counts).
    Raises CollapsedCells where depth-n cells are so narrow, against the float
    spacing, that a piece's atoms do not lie strictly inside its cell.
    """
    memo = tree.memo.setdefault("bracketing", {})
    inputs = tree.memo.setdefault("bracketing_inputs", {})
    if n not in memo:
        _require_depth(tree, n, least=1)
        whole, kids, rank = depth_string(tree, n), build_cells(tree, 1), tree.nodes.rank
        lo, hi = tree.nodes.levels[n:n + 2].tolist()
        cuts = [*rank[lo:hi].searchsorted(rank[kids.index]).tolist(), hi - lo]
        pieces = []
        for a, b, i, j in zip(kids.left.tolist(), kids.right.tolist(), cuts, cuts[1:]):
            positions = whole.positions[i:j]
            if not (a < positions[0] and positions[-1] < b):
                raise CollapsedCells(f"cells at depth {n} collapsed below float spacing: a "
                                     f"root child's atoms are not strictly inside {(a, b)}")
            pieces.append(StieltjesString((a, b), positions, whole.masses[i:j]))
        inputs[n] = _piece_inputs(whole, pieces)
        memo[n] = pieces
    whole_d, whole_n, sum_d, sum_n = _four_counts(depth_string(tree, n), memo[n], inputs[n], x)
    return sum_d <= whole_d <= whole_n <= sum_n


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_curve_csv(samples: Iterable[CountingSample], path: str | Path,
                     header: str = "", boundary: str = "both") -> None:
    keep = ((0, 1, 2), (0, 1), (0, 2))[_boundary_index(boundary, ("both",) + _BOUNDARIES)]
    fields = ("x", "count_dirichlet", "count_neumann")
    write_table(path, header, [("x", "N_D", "N_N")[k] for k in keep],
                map(attrgetter(*(fields[k] for k in keep)), samples))
