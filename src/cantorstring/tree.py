"""Sampling of the random labelled tree behind a recursive Cantor measure.

Every node carries an i.i.d. letter label; the label decides how many
children the node has and how its cell subdivides. Trees are materialized
eagerly up to a stop rule (fixed depth, or geometric cell resolution) and
are immutable afterwards. A tree is one `Generation` of arrays per depth,
in lexicographic address order, each drawn from the one above: child i
gets hash state child_state(state, i), the letter that state draws, and
the composed map R' = R r_i, C' = R c_i + C with mass M' = M w_i.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ._rng import Address, child_state, letter_draw, root_state
from .ifs import IfsModel, Letter, model_digest, require_valid

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
    state: np.ndarray     # uint64 splitmix64 hash state
    ratio: np.ndarray     # composed ratio R of the path's maps
    offset: np.ndarray    # composed offset C: the cell is R [a, b] + C
    mass: np.ndarray      # product M of the path's weights
    expanded: np.ndarray  # bool: the node has children
    first: np.ndarray     # children of node j: next generation's first[j]:first[j + 1]

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False


def _grow(model: IfsModel, state: int, expand: Callable[[int, np.ndarray], np.ndarray]
          ) -> List[Generation]:
    """Generations below a root with hash `state`; expand(k, length) marks which
    nodes of generation k, with these cell lengths, have children. Raises
    ValueError when the tree would have more than MAX_NODES nodes."""
    draw = letter_draw(model.probs)
    n_maps = np.array([letter.n_maps for letter in model.letters])
    start = np.cumsum(n_maps) - n_maps  # letter j's maps are rows start[j]:start[j] + n_maps[j]
    r_i, c_i, w_i = np.array([(s.ratio, s.offset, w) for letter in model.letters
                              for s, w in zip(letter.maps, letter.weights)]).T
    states = np.array([state], dtype=np.uint64)
    ratio, offset, mass = np.ones(1), np.zeros(1), np.ones(1)
    length = np.array([model.interval[1] - model.interval[0]])
    letters = draw(states)
    out: List[Generation] = []
    nodes = 1
    while True:
        expanded = expand(len(out), length)
        counts = np.where(expanded, n_maps[letters], 0)
        first = np.concatenate(([0], np.cumsum(counts)))
        if (nodes := nodes + first[-1]) > MAX_NODES:
            raise ValueError(f"tree would exceed {MAX_NODES} nodes at generation {len(out) + 1}; "
                             f"use a larger epsilon or a smaller depth")
        out.append(Generation(letters, states, ratio, offset, mass, expanded, first))
        if first[-1] == 0:
            return out
        parent = np.repeat(np.arange(letters.size), counts)
        slot = np.arange(first[-1]) - first[parent]
        row, up = start[letters[parent]] + slot, ratio[parent]
        states = child_state(states[parent], (slot + 1).astype(np.uint64))
        letters = draw(states)
        ratio, offset = up * r_i[row], up * c_i[row] + offset[parent]
        mass, length = mass[parent] * w_i[row], length[parent] * r_i[row]


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
        """Every address, generation by generation, each in lexicographic order."""
        level: List[Address] = [()]
        for gen in self.generations:
            yield from level
            counts = np.diff(gen.first).tolist()
            level = [a + (i,) for a, c in zip(level, counts) for i in range(1, c + 1)]

    def generation(self, n: int) -> List[Address]:
        """All addresses of length n, lexicographically sorted."""
        if n < 0:
            raise ValueError(f"generation index must be >= 0, got {n}")
        return [a for a in self.addresses() if len(a) == n]

    def _locate(self, address: Address) -> Tuple[int, int]:
        """(generation, index) of an address, through the first-child offsets."""
        j = 0
        for k, i in enumerate(address):
            first = self.generations[k].first
            if not 1 <= i <= first[j + 1] - first[j]:
                raise KeyError(f"address {tuple(address)} not in tree")
            j = int(first[j]) + i - 1
        return len(address), j

    def label_index(self, address: Address) -> int:
        k, j = self._locate(address)
        return int(self.generations[k].letter[j])

    def letter_at(self, address: Address) -> Letter:
        return self.model.letters[self.label_index(address)]

    def subtree(self, at: Address) -> "RandomTree":
        """The tree rooted at `at`, with addresses relabelled relative to it."""
        k0, j = self._locate(at)
        bounds = [j, j + 1]  # the subtree's slice of generation k0 + k

        def expand(k: int, length: np.ndarray) -> np.ndarray:
            lo, hi = bounds
            first = self.generations[k0 + k].first
            bounds[:] = first[lo], first[hi]
            return self.generations[k0 + k].expanded[lo:hi]

        state = int(self.generations[k0].state[j])
        return RandomTree(self.model, self.seed, self.stop, _grow(self.model, state, expand))

    def __eq__(self, other) -> bool:
        def labels(tree):
            return tree.model, [(g.letter.tolist(), g.first.tolist()) for g in tree.generations]
        return isinstance(other, RandomTree) and labels(self) == labels(other)


def sample_tree(model: IfsModel, stop: StopRule, seed: int) -> RandomTree:
    """Sample the labelled tree for (model, stop, seed); fully deterministic.
    Raises ValueError when the tree would have more than MAX_NODES nodes."""
    require_valid(model)

    def expand(k: int, length: np.ndarray) -> np.ndarray:
        if stop.kind == "depth":
            return np.full(length.size, k < stop.value)
        return length >= stop.value

    return RandomTree(model, seed, stop, _grow(model, root_state(seed), expand))


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
