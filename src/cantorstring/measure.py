"""Finite-depth approximations of a recursive Cantor measure.

The cell of an address is the image R [a, b] + C of the base interval
under the composed maps along its path, and its mass M is the product of
the path's weights. The tree's node table holds R, C and M, so a measure
is a slice of it: one generation, or every leaf in lexicographic
(preorder) address order, or the root children's pieces, grown as one
forest. Addresses and `Cell` tuples are built only when read, each view by
slicing or permuting the flat list of `tree.node_addresses`.
Atomization collapses every cell to a point mass at its midpoint; that
discrete surrogate is what the string solver consumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, List, Optional, Tuple

import numpy as np

from ._rng import Address, child_state, root_states
from .tree import RandomTree, _grow, node_addresses, root_bounds


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


def _require_depth(tree: RandomTree, n: int, least: int = 0) -> None:
    if n < least:
        raise ValueError(f"generation must be >= {least}, got {n}")
    levels = tree.nodes.levels
    if n >= levels.size - 1 or not tree.nodes.expanded[:levels[n]].all():
        raise ValueError(f"depth {n} exceeds the sampled tree")


def build_cells(tree: RandomTree, n: int) -> MeasureApprox:
    """Cells of generation n: geometry S_ii([a, b]), mass = weight product."""
    _require_depth(tree, n)
    nodes = tree.nodes
    lo, hi = nodes.levels[n:n + 2].tolist()
    return _cells(tree, n, nodes.ratio[lo:hi], nodes.offset[lo:hi], nodes.mass[lo:hi],
                  lambda: node_addresses(nodes)[lo:hi])


def piece_cells(tree: RandomTree, n: int) -> List[MeasureApprox]:
    """Per root child i, generation n - 1 of the subtree at i, addresses relative to i:
    one forest of the root children, grown n - 1 generations deep (tree generations
    1..n - 1 are complete), split at the root bounds (each slice bit for bit the child
    alone)."""
    _require_depth(tree, n, least=1)
    root = root_states([tree.seed])  # every tree is sampled from its seed
    kids = child_state(root, np.arange(1, tree.nodes.first[1], dtype=np.uint64))  # 1..n_maps
    forest = _grow(tree.model, kids, depth=n - 1)
    bounds, addresses = root_bounds(forest)[n - 1].tolist(), cache(lambda: node_addresses(forest))
    return [_cells(tree, n - 1, forest.ratio[lo:hi], forest.offset[lo:hi], forest.mass[lo:hi],
                   lambda lo=lo, hi=hi: addresses()[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def leaf_cells(tree: RandomTree) -> MeasureApprox:
    """Cells of all leaves, in preorder; the natural measure of a resolution-stopped tree."""
    nodes = tree.nodes
    leaves = np.flatnonzero(~nodes.expanded)
    leaves = leaves[np.argsort(nodes.rank[leaves], kind="stable")]  # merges generations' runs
    def addresses() -> List[Address]:
        every = node_addresses(nodes)
        return [every[f] for f in leaves.tolist()]
    return _cells(tree, None, nodes.ratio[leaves], nodes.offset[leaves], nodes.mass[leaves],
                  addresses)


class CollapsedCells(ValueError):
    """Cells narrower than the float spacing where they lie: their midpoints do not separate."""


def atomize(measure: MeasureApprox) -> AtomizedMeasure:
    """One atom per cell, at the cell midpoint, carrying the full cell mass.
    Raises CollapsedCells unless the midpoints increase strictly inside the interval."""
    positions = 0.5 * (measure.left + measure.right)
    a, b = measure.interval
    if not (a < positions[0] and positions[-1] < b and np.all(np.diff(positions) > 0)):
        depth = "" if measure.generation is None else f" at depth {measure.generation}"
        raise CollapsedCells(f"cells{depth} collapsed below float spacing: their midpoints "
                             f"are not strictly increasing inside {measure.interval}")
    return AtomizedMeasure(measure.interval, positions, measure.mass)
