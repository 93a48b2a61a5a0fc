"""Finite-depth approximations of a recursive Cantor measure.

The cell of an address is the image R [a, b] + C of the base interval
under the composed maps along its path, and its mass M is the product of
the path's weights. The tree's node table holds R, C and M, so a measure
is a slice of it: one generation, or every leaf in lexicographic
(preorder) address order. A measure keeps its node table and its index
into it (a slice, or the leaf array), so addresses and `Cell` tuples are
built only when read, from `tree.node_addresses`. The bracketing pieces are
no measure of their own: `stieltjes.check_bracketing` cuts them from a
generation's string at the root children's preorder ranges.
Atomization collapses every cell to a point mass at its midpoint; that
discrete surrogate is what the string solver consumes. Cells and atoms are
read-only, so a string built from them shares their arrays instead of copying.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ._rng import Address
from .tree import NodeTable, RandomTree, node_addresses


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
