"""Sampling of the random labelled tree behind a recursive Cantor measure.

Every node carries an i.i.d. letter label; the label decides how many
children the node has and how its cell subdivides. Trees are materialized
eagerly up to a stop rule (fixed depth, or geometric cell resolution) and
are immutable afterwards. A tree is one `Generation` of arrays per depth,
in lexicographic address order, each drawn from the one above: child i
gets hash state child_state(state, i), the letter that state draws, the
composed map R' = R r_i, C' = R c_i + C, mass M' = M w_i and birth time
sigma' = sigma - log(r_i w_i), all read from model.tables. `_grow` also grows forests of
roots side by side, each root's rows bit for bit those of growing it alone: the compiled
walks of _native.c count the generations depth first, refusing a tree past MAX_NODES
before any array is allocated, then fill exact-size arrays; `_grow_numpy`, a generation
at a time, is the no-compiler path and the test oracle. The uint64 states live only while
a tree grows. `root_bounds` gives each root's nodes per generation, `node_ranks` preorder
ranks, and `node_addresses` the addresses every view reads.
"""
from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from . import _native
from ._rng import Address, child_state, letter_draw, root_states
from .ifs import IfsModel, Letter, model_digest

MAX_NODES = 10_000_000  # larger trees are refused before their arrays are allocated


@dataclass(frozen=True)
class StopRule:
    kind: str  # "depth" | "resolution"
    value: float

    @staticmethod
    def depth(n: int) -> "StopRule":
        if n < 0:
            raise ValueError(f"depth must be >= 0, got {n}")
        return StopRule("depth", float(n))

    @staticmethod
    def resolution(epsilon: float) -> "StopRule":
        if not epsilon > 0.0:
            raise ValueError(f"resolution epsilon must be > 0, got {epsilon}")
        return StopRule("resolution", float(epsilon))

    def describe(self) -> str:
        if self.kind == "depth":
            return f"depth:{int(self.value)}"
        return f"resolution:{self.value!r}"


@dataclass(frozen=True, eq=False)
class Generation:
    """The nodes of one depth, in lexicographic address order (arrays made read-only by
    the growth that builds them)."""

    letter: np.ndarray    # letter index
    ratio: np.ndarray     # composed ratio R of the path's maps
    offset: np.ndarray    # composed offset C: the cell is R [a, b] + C
    mass: np.ndarray      # product M of the path's weights
    sigma: np.ndarray     # birth time: sum of -log(r_i w_i) along the path
    expanded: np.ndarray  # bool: the node has children
    first: np.ndarray     # children of node j: next generation's first[j]:first[j + 1]


def _grow(model: IfsModel, states: np.ndarray, depth: int = sys.maxsize,
          min_length: float = -math.inf, max_sigma: float = math.inf,
          remedy: str = "use a larger epsilon or a smaller depth") -> List[Generation]:
    """Generations below roots with these uint64 hash states, each root's nodes contiguous;
    a node of generation k with cell length L and birth time sigma has children iff
    k < depth, L >= min_length and sigma <= max_sigma. Raises ValueError on an invalid
    model (model.tables validates it) and, ending in `remedy`, past MAX_NODES. The
    compiled walks of _native.c count the generations, refusing before anything is
    allocated, then fill them; without the library the numpy loop grows them."""
    tables, library = model.tables, _native.library()
    if library is None:
        return _grow_numpy(model, states, depth, min_length, max_sigma, remedy)
    a, b = model.interval
    states = np.ascontiguousarray(states, np.uint64)  # the walks read states.size of them
    head = (*model.table_addresses, tables[-1].size, depth, min_length, max_sigma,
            states.size, states.ctypes.data, b - a, MAX_NODES)
    sizes = (ctypes.c_int64 * 64)()
    gens = library.grow_count(*head, len(sizes), sizes)
    if gens > len(sizes):  # deeper than the buffer: count again into one that fits
        sizes = (ctypes.c_int64 * gens)()
        gens = library.grow_count(*head, gens, sizes)
    _refuse(gens, remedy)
    n = sum(sizes[:gens])
    # one array per field, as the numpy loop has: one block of them all fragments the heap
    ratio, offset, mass, sigma = (np.empty(n) for _ in range(4))
    letter, first, expanded = np.empty(n, np.int64), np.empty(n + gens, np.int64), np.empty(n, bool)
    arrays = (ratio, offset, mass, sigma, letter, first, expanded)
    _refuse(library.grow_fill(*head, gens, sizes, *(array.ctypes.data for array in arrays)),
            remedy)
    for array in arrays:
        array.flags.writeable = False
    generations, lo = [], 0
    for k, size in enumerate(sizes[:gens]):
        hi = lo + size
        generations.append(Generation(letter[lo:hi], ratio[lo:hi], offset[lo:hi], mass[lo:hi],
                                      sigma[lo:hi], expanded[lo:hi], first[lo + k:hi + k + 1]))
        lo = hi
    return generations


def _refuse(code: int, remedy: str) -> None:
    """Raise for a negative return code of the compiled walks."""
    if code == -1:
        raise ValueError(f"tree would exceed {MAX_NODES} nodes; {remedy}")
    if code == -2:
        raise MemoryError("no memory for the tree walk")
    if code < 0:
        raise RuntimeError("the compiled tree walk disagrees with its own count")


def _grow_numpy(model: IfsModel, states: np.ndarray, depth: int, min_length: float,
                max_sigma: float, remedy: str) -> List[Generation]:
    """_grow one generation at a time in numpy: the no-compiler path and the test oracle."""
    n_maps, start, r_i, c_i, w_i, tau, cum = model.tables
    n = nodes = states.size
    ratio, offset, mass, sigma = np.ones(n), np.zeros(n), np.ones(n), np.zeros(n)
    length = np.full(n, model.interval[1] - model.interval[0])
    out: List[Generation] = []
    while True:
        letters = letter_draw(cum, states)
        expanded = (len(out) < depth) & (length >= min_length) & (sigma <= max_sigma)
        counts = np.where(expanded, n_maps[letters], 0)
        first = np.zeros(counts.size + 1, counts.dtype)
        counts.cumsum(out=first[1:])
        if (nodes := nodes + first[-1]) > MAX_NODES:
            raise ValueError(f"tree would exceed {MAX_NODES} nodes; {remedy}")
        out.append(Generation(letters, ratio, offset, mass, sigma, expanded, first))
        for array in vars(out[-1]).values():
            array.flags.writeable = False
        if first[-1] == 0:
            return out
        parent = np.arange(letters.size).repeat(counts)
        slot = np.arange(first[-1]) - first[parent]
        row, up = start[letters[parent]] + slot, ratio[parent]
        states = child_state(states[parent], (slot + 1).astype(np.uint64))
        ratio, offset = up * r_i[row], up * c_i[row] + offset[parent]
        mass, length = mass[parent] * w_i[row], length[parent] * r_i[row]
        sigma = sigma[parent] + tau[row]


def root_bounds(generations: Sequence[Generation]) -> np.ndarray:
    """Row k: forest root r owns nodes bounds[k, r]:bounds[k, r + 1] of generation k."""
    bounds = [np.arange(generations[0].letter.size + 1)]
    for gen in generations[:-1]:
        bounds.append(gen.first[bounds[-1]])
    return np.array(bounds)


def node_ranks(generations: Sequence[Generation]) -> List[np.ndarray]:
    """Per generation, each node's preorder rank: its place among all addresses in
    lexicographic order, forest roots in turn, from the sizes of the subtrees to its left."""
    size, befores = np.ones(0, np.intp), []  # subtree sizes of the generation below
    for gen in reversed(generations):
        before = np.zeros(size.size + 1, np.intp)  # nodes under the subtrees left of each
        size.cumsum(out=before[1:])
        size = 1 + before[gen.first[1:]] - before[gen.first[:-1]]
        befores.insert(0, before)
    rank, ranks = size.cumsum() - size, []
    for gen, before in zip(generations, befores):
        ranks.append(rank)
        lo = gen.first[:-1]
        rank = before[:-1] + (rank + 1 - before[lo]).repeat(gen.first[1:] - lo)
    return ranks


def node_addresses(generations: Sequence[Generation]) -> List[List[Address]]:
    """Each generation's addresses, in lexicographic order per root; every root is ()."""
    levels: List[List[Address]] = [[()] * generations[0].letter.size]
    for gen in generations[:-1]:
        counts = np.diff(gen.first).tolist()
        levels.append([a + (i,) for a, c in zip(levels[-1], counts) for i in range(1, c + 1)])
    return levels


@dataclass(eq=False, repr=False)
class RandomTree:
    """A sampled finite labelled tree: one `Generation` per depth.

    Complete generations: a node's children are either all present or all
    absent. Instances are immutable and safe to share across threads; the
    only mutable part, ``memo``, caches values derived from the labels.
    """

    model: IfsModel
    seed: int
    stop: StopRule
    generations: List[Generation]
    memo: Dict[str, dict] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(gen.letter.size for gen in self.generations)

    def addresses(self) -> Iterator[Address]:
        return chain.from_iterable(node_addresses(self.generations))

    def label_index(self, address: Address) -> int:
        j = 0
        for k, i in enumerate(address):
            first = self.generations[k].first
            if not 1 <= i <= first[j + 1] - first[j]:
                raise KeyError(f"address {tuple(address)} not in tree")
            j = int(first[j]) + i - 1
        return int(self.generations[len(address)].letter[j])

    def letter_at(self, address: Address) -> Letter:
        return self.model.letters[self.label_index(address)]


def sample_tree(model: IfsModel, stop: StopRule, seed: int) -> RandomTree:
    """Sample the labelled tree for (model, stop, seed); fully deterministic.
    Raises ValueError when the tree would have more than MAX_NODES nodes."""
    limit = {"depth": int(stop.value)} if stop.kind == "depth" else {"min_length": stop.value}
    return RandomTree(model, seed, stop, _grow(model, root_states([seed]), **limit))


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


def dump_tree(tree: RandomTree, path: str | Path, version: str = "0") -> None:
    """One "address,letter id" line per node, generation by generation."""
    header = (f"# model={model_digest(tree.model)} seed={tree.seed} "
              f"version={version} stop={tree.stop.describe()}")
    letters = np.concatenate([gen.letter for gen in tree.generations]).tolist()
    write_table(path, header, (), ((format_address(a), tree.model.letters[j].id)
                                   for a, j in zip(tree.addresses(), letters)))
