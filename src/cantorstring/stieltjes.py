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

The two pencils share M and the off-diagonal, so counting_curve sweeps
both boundaries at once: a block whose columns are (boundary, shift) pairs,
each column with its own diagonal. Up to _SCALAR_COLUMNS columns the
recurrence is a plain-float loop per column. Beyond that it runs on numpy
in chunks of _CHUNK_ROWS rows: one broadcast fills the chunk with
K[k, k] - x' m_k, then each row costs one divide and one subtract over all
columns. The safeguard is tested once per chunk. Until the first pivot
below it the unguarded recurrence is the guarded one, bit for bit, so the
chunk is redone with the per-row guard from that row on and the counts
stay exact, zero pivots included. Both paths do the same IEEE operations
in the same order, so the counts agree. check_bracketing builds its
strings once per (tree, n) and keeps them in the tree's memo.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .exponent import _bisect
from .measure import AtomizedMeasure, atomize, build_cells
from .tree import RandomTree, write_table

TIE_SHIFT = 1.0 + 1e-15
_SAFMIN = np.finfo(float).tiny
_SCALAR_COLUMNS = 8  # boundaries x shifts up to which the plain-float loop is faster
_CHUNK_ROWS = 256  # rows of the numpy block swept between two safeguard tests

_BOUNDARIES = ("dirichlet", "neumann")


class StieltjesString:
    """Point masses on an interval, with cached link lengths.

    Atoms must lie strictly inside (a, b); coincident positions are merged
    at construction (masses summed), so interior links are strictly
    positive. An interior link whose 1/l**2 overflows is rejected: the
    pivot recurrence squares the off-diagonal -1/l.
    """

    def __init__(self, interval: Tuple[float, float],
                 positions: Sequence[float], masses: Sequence[float]):
        a, b = float(interval[0]), float(interval[1])
        pos = np.asarray(positions, dtype=float)
        mas = np.asarray(masses, dtype=float)
        if pos.size == 0:
            raise ValueError("string needs at least one atom")
        if not (np.isfinite([a, b]).all() and np.isfinite(pos).all()
                and np.isfinite(mas).all()):
            raise ValueError("interval, positions and masses must be finite")
        if np.any(mas <= 0):
            raise ValueError("masses must be positive")
        order = np.argsort(pos, kind="stable")
        pos, mas = pos[order], mas[order]
        keep = np.concatenate(([True], np.diff(pos) > 0))
        if not np.all(keep):
            merged = np.add.reduceat(mas, np.flatnonzero(keep))
            pos, mas = pos[keep], merged
        if pos[0] <= a or pos[-1] >= b:
            raise ValueError("atoms must lie strictly inside the interval")
        self.interval = (a, b)
        self.positions = pos
        self.masses = mas
        self.links = np.diff(np.concatenate(([a], pos, [b])))
        with np.errstate(divide="ignore", over="ignore"):
            if not np.isfinite(np.square(1.0 / self.links[1:-1])).all():
                raise ValueError("an interior link is too short: its 1/l**2 overflows")
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
        a, b = interval
        pos = a + (b - a) * (2 * np.arange(1, n + 1) - 1) / (2 * n)
        return cls(interval, pos, np.full(n, total_mass / n))

    def pencil(self, boundary: str) -> Tuple[np.ndarray, np.ndarray]:
        """(diagonal of K, off-diagonal of K) for the requested boundary."""
        if boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {boundary!r}")
        inv = 1.0 / self.links
        if boundary == "dirichlet":
            return inv[:-1] + inv[1:], -inv[1:-1]
        diag = np.zeros(self.n)
        diag[:-1] += inv[1:-1]
        diag[1:] += inv[1:-1]
        return diag, -inv[1:-1]


@dataclass(frozen=True)
class CountingSample:
    x: float
    count_dirichlet: int
    count_neumann: int


def _pivot_counts(diags: np.ndarray, off: np.ndarray, masses: np.ndarray,
                  xs: np.ndarray) -> np.ndarray:
    """Non-positive pivot counts of K_g - x' M, x' = x * (1 + 1e-15).

    ``diags`` holds one diagonal per row g; the pencils share ``off`` and
    ``masses``. Returns a (len(diags), len(xs)) block of counts, one column
    per diagonal and shift.
    """
    shifts = xs * TIE_SHIFT
    # row k subtracts b_{k-1}^2 / d_{k-1}; row 0 gets b^2 = 0 and d = 1,
    # and a - 0.0 / 1.0 == a exactly
    b2 = np.concatenate(([0.0], off * off))
    pivmin = float(_SAFMIN * max(1.0, b2.max()))
    groups = diags.shape[0]
    if groups * shifts.size > _SCALAR_COLUMNS:
        return _block_sweep(diags, b2, masses, shifts, pivmin)
    counts = []
    for diag in diags.tolist():
        rows = list(zip(diag, masses.tolist(), b2.tolist()))
        for x in shifts.tolist():
            d, count = 1.0, 0
            for dk, mk, bk in rows:
                d = dk - x * mk - bk / d
                if abs(d) < pivmin:
                    d = -pivmin
                count += d <= 0
            counts.append(count)
    return np.array(counts, dtype=np.int64).reshape(groups, shifts.size)


def _block_sweep(diags: np.ndarray, b2: np.ndarray, masses: np.ndarray,
                 shifts: np.ndarray, pivmin: float) -> np.ndarray:
    """The pivot recurrence on _CHUNK_ROWS rows at a time, all columns at once.

    A chunk is swept without the safeguard, then tested once for a pivot
    below pivmin. Every row before the first such row equals the guarded
    recurrence, so the chunk is redone with the guard from that row on.
    """
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
            np.multiply(masses[start:start + h, None], shifts, out=m_x[:h])
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


def _counts(string: StieltjesString, xs: Sequence[float],
            boundaries: Sequence[str] = _BOUNDARIES) -> np.ndarray:
    """(len(boundaries), len(xs)) counts, all boundaries in one pivot sweep."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.all(xs >= 0):
        raise ValueError("spectral parameter x must be >= 0")
    pencils = [string.pencil(boundary) for boundary in boundaries]
    counts = _pivot_counts(np.array([diag for diag, _ in pencils]), pencils[0][1],
                           string.masses, xs)
    for row, boundary in zip(counts, boundaries):
        if boundary == "neumann":
            # the constant vector is an exact null vector of K_N, so the zero
            # eigenvalue belongs to the count for every x >= 0; the final pivot
            # carries it and floats may round it either way
            np.maximum(row, 1, out=row)
    return counts


def count_dirichlet(string: StieltjesString, x: float) -> int:
    """Number of Dirichlet eigenvalues <= x."""
    return int(_counts(string, [x], ("dirichlet",))[0, 0])


def count_neumann(string: StieltjesString, x: float) -> int:
    """Number of Neumann eigenvalues <= x, the zero mode included."""
    return int(_counts(string, [x], ("neumann",))[0, 0])


def counting_curve(string: StieltjesString, xs: Sequence[float]) -> List[CountingSample]:
    """Both counting functions on a grid, in one pivot sweep."""
    xs = sorted(float(x) for x in xs)
    nd, nn = _counts(string, xs)
    return [CountingSample(x, int(d), int(n)) for x, d, n in zip(xs, nd, nn)]


def eigenvalue(string: StieltjesString, k: int, boundary: str = "dirichlet") -> float:
    """k-th eigenvalue by bisection on the counting function.

    Dirichlet eigenvalues are indexed 1..n, Neumann 0..n-1. Relative
    tolerance 1e-10.
    """
    n = string.n
    if boundary == "dirichlet":
        if not 1 <= k <= n:
            raise ValueError(f"Dirichlet index must be in 1..{n}, got {k}")
        target = k
    elif boundary == "neumann":
        if not 0 <= k <= n - 1:
            raise ValueError(f"Neumann index must be in 0..{n - 1}, got {k}")
        target = k + 1
    else:
        raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {boundary!r}")
    def missing(x: float) -> int:
        return target - int(_counts(string, [x], (boundary,))[0, 0])
    if missing(0.0) <= 0:
        return 0.0
    return _bisect(missing, rel_tol=1e-10, floor=0.0)[1]


# ---------------------------------------------------------------------------
# Dense oracle (small strings)
# ---------------------------------------------------------------------------

def dense_eigenvalues(string: StieltjesString, boundary: str) -> np.ndarray:
    """All pencil eigenvalues via a dense symmetric tridiagonal solve.

    The generalized problem is reduced to standard form with
    D = diag(1/sqrt(m)): eig(D K D). Solved once per boundary, kept read-only.
    """
    if boundary not in string._dense:
        diag, off = string.pencil(boundary)
        m = string.masses
        if string.n == 1:
            values = np.array([diag[0] / m[0]])
        else:
            s = 1.0 / np.sqrt(m)
            values = eigvalsh_tridiagonal(diag / m, off * s[:-1] * s[1:])
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


def check_bracketing(tree: RandomTree, n: int, x: float) -> bool:
    """Four-term chain between the whole string and its root-child pieces.

        sum_i N_D^(i)(r_i m_i x) <= N_D(x) <= N_N(x) <= sum_i N_N^(i)(r_i m_i x)

    The whole string is the depth-n atomization; piece i is the depth-(n-1)
    atomization of the subtree rooted at child i, evaluated at the composed
    scale r_i * m_i * x. The strings are built on the first call for
    (tree, n) and kept in ``tree.memo``.
    """
    if n < 1:
        raise ValueError(f"bracketing needs generation n >= 1, got {n}")
    if not x >= 0:
        raise ValueError("spectral parameter x must be >= 0")
    memo = tree.memo.setdefault("bracketing", {})
    if n not in memo:
        root = tree.letter_at(())
        memo[n] = [(s.ratio * w, depth_string(tree.subtree((i,)), n - 1))
                   for i, (s, w) in enumerate(zip(root.maps, root.weights), start=1)]
    whole, pieces = depth_string(tree, n), memo[n]
    sum_d = sum(count_dirichlet(piece, scale * x) for scale, piece in pieces)
    sum_n = sum(count_neumann(piece, scale * x) for scale, piece in pieces)
    return sum_d <= count_dirichlet(whole, x) <= count_neumann(whole, x) <= sum_n


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_curve_csv(samples: Iterable[CountingSample], path: str | Path,
                     header: str = "", boundary: str = "both") -> None:
    keep = {"both": (0, 1, 2), "dirichlet": (0, 1)}.get(boundary, (0, 2))
    write_table(path, header, [("x", "N_D", "N_N")[k] for k in keep],
                ([(s.x, s.count_dirichlet, s.count_neumann)[k] for k in keep]
                 for s in samples))
