"""Finite-depth approximations of a recursive Cantor measure.

Generation n of a labelled tree induces a weighted interval family: the
cell of an address is the image of the base interval under the composed
maps along the path, and its mass is the product of the weights along the
path. Within each cell the approximation is uniform (normalized Lebesgue),
which is what the cdf evaluates. Atomization collapses every cell to a
point mass at its midpoint; that discrete surrogate is what the string
solver consumes.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ._rng import Address
from .tree import RandomTree

MASS_TOL = 1e-10


@dataclass(frozen=True)
class Cell:
    address: Address
    left: float
    right: float
    mass: float


@dataclass(frozen=True)
class MeasureApprox:
    """Ordered, non-overlapping cells with masses summing to one.

    generation is None for leaf-based measures of resolution-stopped trees,
    where cells of different depths coexist.
    """

    interval: Tuple[float, float]
    generation: Optional[int]
    cells: Tuple[Cell, ...]

    @property
    def total_mass(self) -> float:
        return math.fsum(c.mass for c in self.cells)


@dataclass(frozen=True)
class AtomizedMeasure:
    interval: Tuple[float, float]
    positions: np.ndarray
    masses: np.ndarray


def _walk_cells(tree: RandomTree, emit_leaf_only: bool, max_depth: Optional[int]) -> List[Cell]:
    a, b = tree.model.interval
    out: List[Cell] = []
    # stack entries: (address, composed ratio R, composed offset C, mass)
    stack = [((), 1.0, 0.0, 1.0)]
    while stack:
        address, ratio, offset, mass = stack.pop()
        depth = len(address)
        at_cut = (max_depth is not None and depth == max_depth)
        expanded = tree.is_expanded(address)
        if at_cut or (emit_leaf_only and not expanded):
            out.append(Cell(address, ratio * a + offset, ratio * b + offset, mass))
            continue
        if not expanded:
            raise ValueError(
                f"tree not expanded below address {address}; "
                f"depth {max_depth} exceeds the sampled tree")
        letter = tree.letter_at(address)
        for i in range(letter.n_maps - 1, -1, -1):
            s = letter.maps[i]
            stack.append((address + (i + 1,),
                          ratio * s.ratio,
                          ratio * s.offset + offset,
                          mass * letter.weights[i]))
    # children pop in map order, so this preorder is lexicographic address order
    return out


def build_cells(tree: RandomTree, n: int) -> MeasureApprox:
    """Cells of generation n: geometry S_ii([a, b]), mass = weight product."""
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    cells = _walk_cells(tree, emit_leaf_only=False, max_depth=n)
    return MeasureApprox(tree.model.interval, n, tuple(cells))


def leaf_cells(tree: RandomTree) -> MeasureApprox:
    """Cells of all leaves; the natural measure of a resolution-stopped tree."""
    cells = _walk_cells(tree, emit_leaf_only=True, max_depth=None)
    return MeasureApprox(tree.model.interval, None, tuple(cells))


def cdf(measure: MeasureApprox, x: float) -> float:
    """F(x) under the cell approximation, uniform within each cell."""
    a, b = measure.interval
    if not (a <= x <= b):
        raise ValueError(f"x = {x} outside [{a}, {b}]")
    lefts = [c.left for c in measure.cells]
    idx = bisect_right(lefts, x)
    total = 0.0
    for c in measure.cells[:idx]:
        if c.right <= x:
            total += c.mass
        else:
            total += c.mass * (x - c.left) / (c.right - c.left)
    return total


def atomize(measure: MeasureApprox) -> AtomizedMeasure:
    """One atom per cell, at the cell midpoint, carrying the full cell mass."""
    positions = np.array([0.5 * (c.left + c.right) for c in measure.cells])
    masses = np.array([c.mass for c in measure.cells])
    if positions.size > 1 and not np.all(np.diff(positions) > 0):
        raise ValueError("cell midpoints are not strictly increasing")
    return AtomizedMeasure(measure.interval, positions, masses)


def check_self_similarity(tree: RandomTree, n: int, tol: float = 1e-10) -> bool:
    """Generation n+1 cells == root-child subtree cells pushed through the root maps.

    The left side is build_cells(tree, n + 1); the right side scales the
    depth-n cells of every root-child subtree by the root letter's map and
    weight. True iff every geometry/mass pair matches within tol.
    """
    whole = build_cells(tree, n + 1)
    root_letter = tree.letter_at(())
    pushed: List[Cell] = []
    for i, (s, w) in enumerate(zip(root_letter.maps, root_letter.weights), start=1):
        sub = tree.subtree((i,))
        for c in build_cells(sub, n).cells:
            pushed.append(Cell((i,) + c.address, s(c.left), s(c.right), w * c.mass))
    return len(whole.cells) == len(pushed) and all(
        ca.address == cb.address and abs(ca.left - cb.left) <= tol
        and abs(ca.right - cb.right) <= tol and abs(ca.mass - cb.mass) <= tol
        for ca, cb in zip(whole.cells, pushed))
