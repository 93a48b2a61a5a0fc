"""Finite-depth approximations of a recursive Cantor measure.

The cell of an address is the image R [a, b] + C of the base interval
under the composed maps along its path, and its mass M is the product of
the path's weights. The tree's node table holds R, C and M, so a measure
is a slice of it: one generation, or every leaf in lexicographic
(preorder) address order, or the root children's pieces, grown as one
forest and split at the roots' preorder ranges. A measure keeps its node
table and its index into it (a slice, or the leaf array), so addresses and
`Cell` tuples are built only when read, from `tree.node_addresses`.
Atomization collapses every cell to a point mass at its midpoint; that
discrete surrogate is what the string solver consumes. Cells and atoms are
read-only, so a string built from them shares their arrays instead of copying.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ._rng import Address, child_state, root_states
from .tree import NodeTable, RandomTree, _grow, node_addresses


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
    where cells of different depths coexist. The cells are nodes[index].
    """

    interval: Tuple[float, float]
    generation: Optional[int]
    left: np.ndarray
    right: np.ndarray
    mass: np.ndarray
    nodes: NodeTable = field(repr=False)
    index: slice | np.ndarray = field(repr=False)  # a slice, or the leaf array

    @cached_property
    def cells(self) -> Tuple[Cell, ...]:
        picked = np.fromiter(node_addresses(self.nodes), object)[self.index].tolist()
        return tuple(map(Cell, picked, self.left.tolist(), self.right.tolist(), self.mass.tolist()))


@dataclass(frozen=True)
class AtomizedMeasure:
    interval: Tuple[float, float]
    positions: np.ndarray
    masses: np.ndarray


def _cells(tree: RandomTree, n: Optional[int], nodes: NodeTable,
           index: slice | np.ndarray) -> MeasureApprox:
    a, b = tree.model.interval
    ratio, offset, mass = nodes.ratio[index], nodes.offset[index], nodes.mass[index]
    left = np.multiply(ratio, a)
    left += offset
    # a slice views the read-only table; a gather by the leaf array is a fresh copy
    right = np.multiply(ratio, b, out=None if isinstance(index, slice) else ratio)
    right += offset
    for array in (left, right, mass):
        array.flags.writeable = False
    return MeasureApprox(tree.model.interval, n, left, right, mass, nodes, index)


def _require_depth(tree: RandomTree, n: int, least: int = 0) -> None:
    if n < least:
        raise ValueError(f"generation must be >= {least}, got {n}")
    levels = tree.nodes.levels
    if n >= levels.size - 1 or not np.diff(tree.nodes.first[:levels[n] + 1]).all():
        raise ValueError(f"depth {n} exceeds the sampled tree")  # a leaf above generation n


def build_cells(tree: RandomTree, n: int) -> MeasureApprox:
    """Cells of generation n: geometry S_ii([a, b]), mass = weight product."""
    _require_depth(tree, n)
    return _cells(tree, n, tree.nodes, slice(*tree.nodes.levels[n:n + 2].tolist()))


def piece_cells(tree: RandomTree, n: int) -> List[MeasureApprox]:
    """Per root child i, generation n - 1 of the subtree at i, addresses relative to i:
    one forest of the root children, grown n - 1 generations deep (tree generations
    1..n - 1 are complete), split where its ranks pass each root's (ranks increase along
    a generation; each slice bit for bit the child alone)."""
    _require_depth(tree, n, least=1)
    root = root_states([tree.seed])  # every tree is sampled from its seed
    kids = child_state(root, np.arange(1, tree.nodes.first[1], dtype=np.uint64))  # 1..n_maps
    forest = _grow(tree.model, kids, depth=n - 1)
    lo, hi = forest.levels[n - 1:n + 1].tolist()
    bounds = [*(lo + forest.rank[lo:hi].searchsorted(forest.rank[:kids.size])).tolist(), hi]
    return [_cells(tree, n - 1, forest, slice(*ends)) for ends in zip(bounds, bounds[1:])]


def leaf_cells(tree: RandomTree) -> MeasureApprox:
    """Cells of all leaves, in preorder; the natural measure of a resolution-stopped tree."""
    nodes = tree.nodes
    leaves = np.flatnonzero(nodes.first[1:] == nodes.first[:-1])  # no children
    leaves = leaves[np.argsort(nodes.rank[leaves], kind="stable")]  # merges generations' runs
    return _cells(tree, None, nodes, leaves)


class CollapsedCells(ValueError):
    """Cells narrower than the float spacing where they lie: their midpoints do not separate."""


def atomize(measure: MeasureApprox) -> AtomizedMeasure:
    """One atom per cell, at the cell midpoint, carrying the full cell mass.
    Raises CollapsedCells unless the midpoints increase strictly inside the interval."""
    positions = measure.left + measure.right
    positions *= 0.5
    positions.flags.writeable = False
    a, b = measure.interval
    if not (a < positions[0] and positions[-1] < b and (positions[1:] > positions[:-1]).all()):
        depth = "" if measure.generation is None else f" at depth {measure.generation}"
        raise CollapsedCells(f"cells{depth} collapsed below float spacing: their midpoints "
                             f"are not strictly increasing inside {measure.interval}")
    return AtomizedMeasure(measure.interval, positions, measure.mass)
