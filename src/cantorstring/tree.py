"""Sampling of the random labelled tree behind a recursive Cantor measure.

Every node carries an i.i.d. letter label; the label decides how many
children the node has and how its cell subdivides. Trees are materialized
eagerly up to a stop rule (fixed depth, or geometric cell resolution) and
are immutable afterwards. A tree is one `Generation` of arrays per depth,
in lexicographic address order, each drawn from the one above: child i
gets hash state child_state(state, i), the letter that state draws, the
composed map R' = R r_i, C' = R c_i + C, mass M' = M w_i and birth time
sigma' = sigma - log(r_i w_i), all read from model.tables; the uint64 states live
only while `_grow` runs, which also grows forests of roots side by side, each root's
rows bit for bit those of growing it alone. `root_bounds` gives each root's nodes per
generation, `node_ranks` preorder ranks, and `node_addresses` the addresses every view reads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence

import numpy as np

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
    """The nodes of one depth, in lexicographic address order (read-only arrays)."""

    letter: np.ndarray    # letter index
    ratio: np.ndarray     # composed ratio R of the path's maps
    offset: np.ndarray    # composed offset C: the cell is R [a, b] + C
    mass: np.ndarray      # product M of the path's weights
    sigma: np.ndarray     # birth time: sum of -log(r_i w_i) along the path
    expanded: np.ndarray  # bool: the node has children
    first: np.ndarray     # children of node j: next generation's first[j]:first[j + 1]

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False


def _grow(model: IfsModel, states: np.ndarray, expand: Callable[..., np.ndarray],
          remedy: str = "use a larger epsilon or a smaller depth") -> List[Generation]:
    """Generations below roots with these uint64 hash states, each root's nodes contiguous;
    expand(k, length, sigma) marks which nodes of generation k, with these cell lengths
    and birth times, have children. Raises ValueError on an invalid model (model.tables
    validates it) and, ending in `remedy`, past MAX_NODES."""
    n_maps, start, r_i, c_i, w_i, tau, cum = model.tables
    n = nodes = states.size
    ratio, offset, mass, sigma = np.ones(n), np.zeros(n), np.ones(n), np.zeros(n)
    length = np.full(n, model.interval[1] - model.interval[0])
    out: List[Generation] = []
    while True:
        letters = letter_draw(cum, states)
        expanded = expand(len(out), length, sigma)
        counts = np.where(expanded, n_maps[letters], 0)
        first = np.zeros(counts.size + 1, counts.dtype)
        counts.cumsum(out=first[1:])
        if (nodes := nodes + first[-1]) > MAX_NODES:
            raise ValueError(f"tree would exceed {MAX_NODES} nodes at generation {len(out) + 1}; "
                             f"{remedy}")
        out.append(Generation(letters, ratio, offset, mass, sigma, expanded, first))
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
    def expand(k: int, length: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        if stop.kind == "depth":
            return np.full(length.size, k < stop.value)
        return length >= stop.value

    return RandomTree(model, seed, stop, _grow(model, root_states([seed]), expand))


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
