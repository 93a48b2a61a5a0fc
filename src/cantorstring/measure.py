"""Finite-depth approximations of a recursive Cantor measure.

The cell of an address is the image R [a, b] + C of the base interval
under the composed maps along its path, and its mass M is the product of
the path's weights. The tree's generations hold R, C and M, so a measure
is a slice of them: one generation, or every leaf in lexicographic
(preorder) address order; `Cell` tuples are built only when read.
Atomization collapses every cell to a point mass at its midpoint; that
discrete surrogate is what the string solver consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from ._rng import Address
from .tree import RandomTree


@dataclass(frozen=True)
class Cell:
    address: Address
    left: float
    right: float
    mass: float


@dataclass(frozen=True, eq=False)
class MeasureApprox:
    """Ordered, non-overlapping cells with masses summing to one.

    generation is None for leaf-based measures of resolution-stopped trees,
    where cells of different depths coexist.
    """

    interval: Tuple[float, float]
    generation: Optional[int]
    left: np.ndarray
    right: np.ndarray
    mass: np.ndarray
    addresses: Callable[[], List[Address]] = field(repr=False)

    @cached_property
    def cells(self) -> Tuple[Cell, ...]:
        return tuple(map(Cell, self.addresses(), self.left.tolist(), self.right.tolist(),
                         self.mass.tolist()))


@dataclass(frozen=True)
class AtomizedMeasure:
    interval: Tuple[float, float]
    positions: np.ndarray
    masses: np.ndarray


def _cells(tree: RandomTree, n: Optional[int], ratio: np.ndarray, offset: np.ndarray,
           mass: np.ndarray, addresses: Callable[[], List[Address]]) -> MeasureApprox:
    a, b = tree.model.interval
    return MeasureApprox(tree.model.interval, n, ratio * a + offset, ratio * b + offset, mass,
                         addresses)


def build_cells(tree: RandomTree, n: int) -> MeasureApprox:
    """Cells of generation n: geometry S_ii([a, b]), mass = weight product."""
    if n < 0:
        raise ValueError(f"generation must be >= 0, got {n}")
    gens = tree.generations
    if n >= len(gens) or not all(gen.expanded.all() for gen in gens[:n]):
        raise ValueError(f"depth {n} exceeds the sampled tree")
    return _cells(tree, n, gens[n].ratio, gens[n].offset, gens[n].mass,
                  lambda: tree.generation(n))


def leaf_cells(tree: RandomTree) -> MeasureApprox:
    """Cells of all leaves; the natural measure of a resolution-stopped tree.

    A leaf's place is its preorder rank: the number of leaves under the
    earlier siblings of it and of each of its ancestors.
    """
    gens = tree.generations
    under, befores = np.ones(0, np.intp), []  # leaves in each subtree of the generation below
    for gen in reversed(gens):
        before = np.concatenate(([0], np.cumsum(under)))  # leaves under the nodes left of each
        under = np.where(gen.expanded, before[gen.first[1:]] - before[gen.first[:-1]], 1)
        befores.insert(0, before)
    rank, ranks = np.zeros(1, np.intp), []  # preorder rank of the first leaf under each node
    for gen, before in zip(gens, befores):
        ranks.append(rank[~gen.expanded])
        rank = before[:-1] + np.repeat(rank - before[gen.first[:-1]], np.diff(gen.first))
    order = np.argsort(np.concatenate(ranks))
    ratio, offset, mass = (np.concatenate([getattr(gen, k)[~gen.expanded] for gen in gens])[order]
                           for k in ("ratio", "offset", "mass"))
    expanded = np.concatenate([gen.expanded for gen in gens]).tolist()
    return _cells(tree, None, ratio, offset, mass,
                  lambda: sorted(x for x, e in zip(tree.addresses(), expanded) if not e))


def atomize(measure: MeasureApprox) -> AtomizedMeasure:
    """One atom per cell, at the cell midpoint, carrying the full cell mass."""
    positions = 0.5 * (measure.left + measure.right)
    if positions.size > 1 and not np.all(np.diff(positions) > 0):
        raise ValueError("cell midpoints are not strictly increasing")
    return AtomizedMeasure(measure.interval, positions, measure.mass)
