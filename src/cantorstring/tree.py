"""Sampling of the random labelled tree behind a recursive Cantor measure.

Every node carries an i.i.d. letter label; the label decides how many
children the node has and how its cell subdivides. Trees are materialized
eagerly up to a stop rule (fixed depth, or geometric cell resolution) and
are immutable afterwards. Each node's hash state rides on the sampler's
stack and gives its children's in O(1); labels stay a pure function of
(seed, address), so replay is bit-identical in any traversal order.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from ._rng import Address, child_state, letter_draw, root_state
from .ifs import IfsModel, Letter, model_digest, require_valid


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


class RandomTree:
    """A sampled finite labelled tree: address -> letter index.

    Complete generations: a node's children are either all present or all
    absent. Instances are immutable and safe to share across threads; the
    only mutable part, ``memo``, caches values derived from the labels.
    """

    def __init__(self, model: IfsModel, seed: int, stop: StopRule,
                 labels: Dict[Address, int]):
        self.model = model
        self.seed = seed
        self.stop = stop
        self._labels = labels
        self.memo: Dict[str, dict] = {}

    # -- node access ---------------------------------------------------------

    def __contains__(self, address: Address) -> bool:
        return tuple(address) in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def addresses(self) -> Iterator[Address]:
        return iter(self._labels)

    def label_index(self, address: Address) -> int:
        return self._labels[tuple(address)]

    def letter_at(self, address: Address) -> Letter:
        return self.model.letters[self.label_index(address)]

    def letter_id(self, address: Address) -> str:
        return self.letter_at(address).id

    def is_expanded(self, address: Address) -> bool:
        return tuple(address) + (1,) in self._labels

    @property
    def depth(self) -> int:
        return max(len(a) for a in self._labels)

    def generation(self, n: int) -> List[Address]:
        """All addresses of length n, lexicographically sorted."""
        if n < 0:
            raise ValueError(f"generation index must be >= 0, got {n}")
        return sorted(a for a in self._labels if len(a) == n)

    def subtree(self, at: Address) -> "RandomTree":
        """The tree rooted at `at`, with addresses relabelled relative to it."""
        at = tuple(at)
        if at not in self._labels:
            raise KeyError(f"address {at} not in tree")
        k = len(at)
        shifted = {addr[k:]: lab for addr, lab in self._labels.items() if addr[:k] == at}
        return RandomTree(self.model, self.seed, self.stop, shifted)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RandomTree) and self.model == other.model
                and self._labels == other._labels)


def sample_tree(model: IfsModel, stop: StopRule, seed: int) -> RandomTree:
    """Sample the labelled tree for (model, stop, seed); fully deterministic."""
    require_valid(model)
    draw = letter_draw(model.probs)
    a, b = model.interval
    state = root_state(seed)
    labels: Dict[Address, int] = {(): draw(state)}
    stack: List[Tuple[Address, float, int]] = [((), b - a, state)]
    while stack:
        address, length, state = stack.pop()
        if stop.kind == "depth":
            expand = len(address) < int(stop.value)
        else:
            expand = length >= stop.value
        if not expand:
            continue
        letter = model.letters[labels[address]]
        for i, s in enumerate(letter.maps, start=1):
            child, child_hash = address + (i,), child_state(state, i)
            labels[child] = draw(child_hash)
            stack.append((child, length * s.ratio, child_hash))
    return RandomTree(model, seed, stop, labels)


# ---------------------------------------------------------------------------
# Text dump / load
# ---------------------------------------------------------------------------

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


def parse_address(text: str) -> Address:
    if not text:
        return ()
    return tuple(int(part) for part in text.split("."))


def dump_tree(tree: RandomTree, path: str | Path, version: str = "0") -> None:
    header = (f"# model={model_digest(tree.model)} seed={tree.seed} "
              f"version={version} stop={tree.stop.describe()}")
    addresses = sorted(tree._labels, key=lambda a: (len(a), a))
    # no column line: load_tree reads every line not starting with '#' as a node
    write_table(path, header, (), ((format_address(a), tree.letter_id(a)) for a in addresses))


def load_tree(path: str | Path, model: IfsModel) -> RandomTree:
    labels: Dict[Address, int] = {}
    seed = 0
    stop = StopRule.depth(0)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                if key == "seed":
                    seed = int(value)
                elif key == "stop":
                    kind, _, payload = value.partition(":")
                    stop = (StopRule.depth(int(payload)) if kind == "depth"
                            else StopRule.resolution(float(payload)))
            continue
        text, _, letter_id = line.partition(",")
        labels[parse_address(text)] = model.letter_index(letter_id)
    if () not in labels:
        raise ValueError("tree dump has no root node")
    return RandomTree(model, seed, stop, labels)
