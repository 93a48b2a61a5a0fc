"""Sampling of the random labelled tree behind a recursive Cantor measure.

Every node carries an i.i.d. letter label; the label decides how many
children the node has and how its cell subdivides. Trees are materialized
eagerly up to a stop rule (fixed depth, or geometric cell resolution) and
are immutable afterwards. A tree is one `NodeTable`, one flat array per field:
generation after generation, each in lexicographic address order, roots first, node f's
children at first[f]:first[f + 1] (empty for a leaf) and its preorder rank at rank[f], so
root r's nodes have the ranks rank[r]:rank[r + 1], n closing the last. Child i gets hash
state child_state(state, i), the letter that state draws, the composed map R' = R r_i,
C' = R c_i + C, mass M' = M w_i and birth time sigma' = sigma - log(r_i w_i), all read
from model.tables. Letter, rank and first are int32 (MAX_NODES < 2^31), levels int64, and
sigma is stored only where growth is bounded by a finite max_sigma (populations): a tree's
node takes 36 B. `_grow` also grows forests of roots side by side, each root's rows bit
for bit those of growing it alone: the compiled walks of _native.c count the generations
depth first, refusing a tree past MAX_NODES before any array is allocated, then fill
exact-size arrays; `_grow_numpy`, a generation at a time, is the no-compiler path and the
test oracle. The uint64 states live only while a tree grows.
"""
from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import _native
from ._rng import Address, child_state, letter_draw, root_states
from .ifs import IfsModel, Letter

MAX_NODES = 10_000_000  # larger trees are refused before their arrays are allocated; < 2^31


@dataclass(frozen=True)
class StopRule:
    kind: str  # "depth" | "resolution"
    value: int | float  # the depth, an int (exact past 2^53), or the epsilon

    @staticmethod
    def depth(n: int) -> "StopRule":
        if n < 0:
            raise ValueError(f"depth must be >= 0, got {n}")
        return StopRule("depth", int(n))

    @staticmethod
    def resolution(epsilon: float) -> "StopRule":
        if not epsilon > 0.0:
            raise ValueError(f"resolution epsilon must be > 0, got {epsilon}")
        return StopRule("resolution", float(epsilon))


@dataclass(frozen=True, eq=False)
class NodeTable:
    """A forest's nodes, one read-only array per field: generation k is nodes
    levels[k]:levels[k + 1], in lexicographic address order, the roots are nodes 0..R-1,
    and rank numbers the nodes in preorder, root after root (leaf order, birth ties)."""

    letter: np.ndarray    # int32 letter index
    ratio: np.ndarray     # composed ratio R of the path's maps
    offset: np.ndarray    # composed offset C: the cell is R [a, b] + C
    mass: np.ndarray      # product M of the path's weights
    sigma: Optional[np.ndarray]  # birth time, sum of -log(r_i w_i); None unless max_sigma set
    rank: np.ndarray      # int32 preorder rank: the place among all addresses, roots in turn
    first: np.ndarray     # int32, n + 1 entries: node f's children are first[f]:first[f + 1]
    levels: np.ndarray    # int64: generation k is nodes levels[k]:levels[k + 1]

    def __post_init__(self) -> None:
        for array in vars(self).values():
            if array is not None:
                array.flags.writeable = False


def _grow(model: IfsModel, states: np.ndarray, depth: int = sys.maxsize,
          min_length: float = -math.inf, max_sigma: float = math.inf,
          remedy: str = "use a larger epsilon or a smaller depth") -> NodeTable:
    """The nodes below roots with these uint64 hash states, each root's nodes contiguous
    per generation; a node of generation k with cell length L and birth time sigma has
    children iff k < depth, L >= min_length and sigma <= max_sigma. Raises ValueError on
    an invalid model (model.tables validates it) and, ending in `remedy`, past MAX_NODES.
    The compiled walks of _native.c count the generations, refusing before anything is
    allocated, then fill the table; without the library the numpy loop grows it."""
    tables, library = model.tables, _native.library()
    # every letter has >= 2 maps, so R roots grown to depth D alone have at least
    # R (2^(D+1) - 1) nodes: a depth too deep for MAX_NODES is refused without a walk
    if min_length == -math.inf and max_sigma == math.inf and (
            states.size * (2 ** (int(min(depth, 64)) + 1) - 1) > MAX_NODES):
        _refuse(-1, remedy)
    if library is None:
        return _grow_numpy(model, states, depth, min_length, max_sigma, remedy)
    a, b = model.interval
    states = np.ascontiguousarray(states, np.uint64)  # the walks read states.size of them
    head = (*model.table_addresses, tables[-1].size, min(depth, sys.maxsize), min_length,
            max_sigma, states.size, states.ctypes.data, b - a, MAX_NODES)
    sizes = (ctypes.c_int64 * 64)()
    gens = library.grow_count(*head, len(sizes), sizes)
    if gens > len(sizes):  # deeper than the buffer: count again into one that fits
        sizes = (ctypes.c_int64 * gens)()
        gens = library.grow_count(*head, gens, sizes)
    _refuse(gens, remedy)
    levels = np.cumsum([0, *sizes[:gens]])
    n = int(levels[-1])
    # one array per field, as the numpy loop has: one block of them all fragments the heap
    ratio, offset, mass = (np.empty(n) for _ in range(3))
    sigma = np.empty(n) if max_sigma < math.inf else None  # only populations read it
    letter, rank, first = (np.empty(size, np.int32) for size in (n, n, n + 1))
    arrays = (letter, ratio, offset, mass, sigma, rank, first)  # in NodeTable's order
    _refuse(library.grow_fill(*head, gens, sizes, *(None if array is None else array.ctypes.data
                                                    for array in arrays)), remedy)
    return NodeTable(*arrays, levels)


def _refuse(code: int, remedy: str) -> None:
    """Raise for a negative return code of the compiled walks."""
    if code == -1:
        raise ValueError(f"tree would exceed {MAX_NODES} nodes; {remedy}")
    if code == -2:
        raise MemoryError("no memory for the tree walk")
    if code < 0:
        raise RuntimeError("the compiled tree walk disagrees with its own count")


def _grow_numpy(model: IfsModel, states: np.ndarray, depth: int, min_length: float,
                max_sigma: float, remedy: str) -> NodeTable:
    """_grow one generation at a time in numpy: the no-compiler path and the test oracle."""
    n_maps, start, r_i, c_i, w_i, tau, cum = model.tables
    n = nodes = states.size
    ratio, offset, mass, sigma = np.ones(n), np.zeros(n), np.ones(n), np.zeros(n)
    length = np.full(n, model.interval[1] - model.interval[0])
    rows: List[tuple] = []  # per generation: letter, ratio, offset, mass, sigma, counts
    while True:
        letters = letter_draw(cum, states)
        expanded = (len(rows) < depth) & (length >= min_length) & (sigma <= max_sigma)
        counts = np.where(expanded, n_maps[letters], 0)
        first = np.zeros(counts.size + 1, counts.dtype)
        counts.cumsum(out=first[1:])
        if (nodes := nodes + first[-1]) > MAX_NODES:
            raise ValueError(f"tree would exceed {MAX_NODES} nodes; {remedy}")
        rows.append((letters, ratio, offset, mass, sigma, counts))
        if first[-1] == 0:
            break
        parent = np.arange(letters.size).repeat(counts)
        slot = np.arange(first[-1]) - first[parent]
        row, up = start[letters[parent]] + slot, ratio[parent]
        states = child_state(states[parent], (slot + 1).astype(np.uint64))
        ratio, offset = up * r_i[row], up * c_i[row] + offset[parent]
        mass, length = mass[parent] * w_i[row], length[parent] * r_i[row]
        sigma = sigma[parent] + tau[row]
    letter, ratio, offset, mass, sigma, counts = map(np.concatenate, zip(*rows))
    first = np.concatenate(([n], counts)).cumsum()  # the children follow the roots
    levels = np.cumsum([0, *(gen[0].size for gen in rows)])
    rank = _node_ranks(first, levels.tolist())
    return NodeTable(letter.astype(np.int32), ratio, offset, mass,
                     sigma if max_sigma < math.inf else None, rank.astype(np.int32),
                     first.astype(np.int32), levels)


def _node_ranks(first: np.ndarray, levels: List[int]) -> np.ndarray:
    """_grow_numpy's preorder ranks: each node's place among all addresses in
    lexicographic order, forest roots in turn, from the sizes of the subtrees to its left."""
    size = np.ones(first.size - 1, np.int64)  # subtree sizes
    before = np.zeros(first.size, np.int64)  # before[j]: sizes of the nodes left of j
    for k in range(len(levels) - 3, -1, -1):  # bottom up, within generation k + 1
        lo, mid, hi = levels[k:k + 3]  # before[mid] is 0 until generation k is summed
        np.cumsum(size[mid:hi], out=before[mid + 1:hi + 1])
        size[lo:mid] += before[first[lo + 1:mid + 1]] - before[first[lo:mid]]
    np.cumsum(size, out=before[1:])  # across all nodes: each sibling group is contiguous
    rank = size  # written over top down, a generation at a time (no new array to fault in)
    rank[:levels[1]] = before[:levels[1]]
    for k in range(len(levels) - 2):  # a child follows its parent and its older siblings'
        lo, mid, hi = levels[k:k + 3]  # subtrees
        starts = first[lo:mid + 1]
        np.add((rank[lo:mid] + 1 - before[starts[:-1]]).repeat(starts[1:] - starts[:-1]),
               before[mid:hi], out=rank[mid:hi])
    return rank


def node_addresses(nodes: NodeTable) -> List[Address]:
    """Every node's address, in node order; every root is ()."""
    levels, counts = nodes.levels.tolist(), np.diff(nodes.first).tolist()
    addresses: List[Address] = [()] * levels[1]
    for lo, hi in zip(levels[:-2], levels[1:-1]):  # each generation's children, in turn
        addresses += [a + (i,) for a, c in zip(addresses[lo:hi], counts[lo:hi])
                      for i in range(1, c + 1)]
    return addresses


@dataclass(eq=False, repr=False)
class RandomTree:
    """A sampled finite labelled tree: one `NodeTable` of its nodes.

    Complete generations: a node's children are either all present or all
    absent. Instances are immutable and safe to share across threads; the
    only mutable part, ``memo``, caches values derived from the labels.
    """

    model: IfsModel
    nodes: NodeTable
    memo: Dict[str, dict] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.nodes.letter.size

    def addresses(self) -> Iterator[Address]:
        return iter(node_addresses(self.nodes))

    def label_index(self, address: Address) -> int:
        first, j = self.nodes.first, 0
        for i in address:
            if not 1 <= i <= first[j + 1] - first[j]:
                raise KeyError(f"address {tuple(address)} not in tree")
            j = int(first[j]) + i - 1
        return int(self.nodes.letter[j])

    def letter_at(self, address: Address) -> Letter:
        return self.model.letters[self.label_index(address)]


def sample_tree(model: IfsModel, stop: StopRule, seed: int) -> RandomTree:
    """Sample the labelled tree for (model, stop, seed); fully deterministic.
    Raises ValueError when the tree would have more than MAX_NODES nodes."""
    limit = {"depth": stop.value} if stop.kind == "depth" else {"min_length": stop.value}
    return RandomTree(model, _grow(model, root_states([seed]), **limit))


def format_address(address: Address) -> str:
    return ".".join(str(i) for i in address)


def write_table(path: str | Path, header: str, columns: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    """Write a table file: the header line and the column line, each only if
    non-empty, then one comma-joined line per row (str of a float is its
    shortest round-trip repr)."""
    lines = [header] if header else []
    if columns:
        lines.append(",".join(columns))
    lines.extend(",".join(map(str, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")
