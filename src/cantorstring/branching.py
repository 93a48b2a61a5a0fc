"""Branching-population view of a model: birth times, martingale, z process.

Every tree node is an individual. An individual with letter j gives birth
to child i at its own birth time plus the offset tau_i = -log(r_i m_i);
the ancestor is born at time 0. The fundamental martingale

    R_0 = 1,
    R_n = 1 + sum_{first n individuals} sum_children e^(-alpha sigma_child)
            - sum_{first n individuals} e^(-alpha sigma),

evaluated at the Malthusian tilt alpha = gamma_r, has mean one for every n
and converges to the random limit W; the martingale functions take alpha
from the caller (`exponent.solve_recursive_exponent` solves it). The z
process counts individuals born after time t to mothers born at or before t.

The population up to t_max is the labelled tree of its (model, seed), grown with each node
born by t_max expanded; its `tree.NodeTable` numbers the nodes generation by generation,
roots first, and ranks them in preorder, root r's nodes at ranks rank[r]:rank[r + 1].
`forests` grows many seeds as forests of about FOREST_BIRTHS births, read per root by
`martingale_R_by_root`, `martingale_traces` and `z_by_root`, which sums hits over those
ranges; `martingale_trace` and `z_process` are their one-root cases and refuse forests, and
`z_counts` gives one root's z at many times from one sort. Births are ordered by (sigma,
preorder rank), so lattice ties fall in address order, and `events` is built when read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ._rng import Address, root_states
from .ifs import IfsModel
from .tree import NodeTable, _grow, format_address, node_addresses, write_table

FOREST_BIRTHS = 16_384  # seeds grow as forests of about this many expected births


@dataclass(frozen=True)
class BirthEvent:
    address: Address
    sigma: float
    letter_id: str


class PopulationRun:
    """The trees, one per seed, of all individuals born up to t_max and their children.

    `nodes` is their node table: `sigma` holds the birth times, node f's children are
    first[f]:first[f + 1], and `order`, sorted when first read, lists the born nodes root
    by root from `starts`, each root's in birth order.
    """

    def __init__(self, model: IfsModel, seeds: Sequence[int], t_max: float, nodes: NodeTable):
        self.model, self.seeds, self.t_max, self.nodes = model, seeds, t_max, nodes
        self.sigma, self.first = nodes.sigma, nodes.first

    def __len__(self) -> int:
        return int(np.count_nonzero(self.sigma <= self.t_max))

    @cached_property
    def order(self) -> np.ndarray:
        born = np.flatnonzero(self.sigma <= self.t_max)
        rank, roots = self.nodes.rank[born], self.nodes.rank[:len(self.seeds)]  # roots: 0, 1, ...
        root = roots.searchsorted(rank, "right") - 1  # each root's nodes follow it in preorder
        return born[np.lexsort((rank, self.sigma[born], root))]

    @cached_property
    def starts(self) -> np.ndarray:  # a root is born first, at sigma 0
        return np.flatnonzero(self.order < len(self.seeds))

    @cached_property
    def events(self) -> List[BirthEvent]:
        addresses, letters = node_addresses(self.nodes), self.nodes.letter.tolist()
        sigma, ids = self.sigma.tolist(), [letter.id for letter in self.model.letters]
        return [BirthEvent(addresses[f], sigma[f], ids[letters[f]]) for f in self.order.tolist()]


def simulate_populations(model: IfsModel, t_max: float, seeds: Sequence[int]) -> PopulationRun:
    """The seeds' populations as one forest, each root's nodes bit for bit its seed's alone."""
    if not t_max >= 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if len(seeds) == 0:
        raise ValueError("needs at least one seed")
    nodes = _grow(model, root_states(seeds), max_sigma=t_max, remedy="use a smaller --tmax")
    return PopulationRun(model, seeds, t_max, nodes)


def simulate_population(model: IfsModel, t_max: float, seed: int) -> PopulationRun:
    """Materialize every individual with birth time <= t_max; deterministic in seed.
    Raises ValueError when the tree would have more than tree.MAX_NODES nodes."""
    return simulate_populations(model, t_max, [seed])


def forests(model: IfsModel, t_max: float, seeds: Sequence[int],
            alpha: float) -> Iterator[PopulationRun]:
    """The seeds' populations, in seed order, as forests of about FOREST_BIRTHS births
    (a seed expects ~e^(alpha t_max)). A refused lone seed raises ValueError; a forest
    past tree.MAX_NODES is regrown seed by seed once its arrays are freed."""
    batch = max(1, int(FOREST_BIRTHS * math.exp(-alpha * t_max)))
    for k in range(0, len(seeds), batch):
        group = seeds[k:k + batch]
        try:
            runs = [simulate_populations(model, t_max, group)]
        except ValueError:
            if len(group) == 1:
                raise
            runs = []  # regrown below, once the refused forest is out of the traceback
        yield from runs or (simulate_population(model, t_max, seed) for seed in group)


def _increments(run: PopulationRun, alpha: float, mothers: np.ndarray) -> List[float]:
    """R_(k+1) - R_k for each mother row."""
    first = run.first.tolist()
    # first[] increases, so the mothers and their children lie below first[max(mothers) + 1]
    e = list(map(math.exp, (-alpha * run.sigma[:first[mothers.max(initial=0) + 1]]).tolist()))
    return [math.fsum(e[first[f]:first[f + 1]]) - e[f] for f in mothers.tolist()]


def martingale_R_by_root(run: PopulationRun, n: int, alpha: float) -> List[Optional[float]]:
    """R_n of each root, in seed order, None where n is outside 0..(its births)."""
    inside = (n >= 0) & (np.diff(run.starts, append=run.order.size) >= n)
    rows = run.starts[inside, None] + np.arange(n if inside.any() else 0)  # n <= some births
    steps = iter(_increments(run, alpha, run.order[rows].ravel()))
    return [1.0 + math.fsum(islice(steps, n)) if ok else None for ok in inside.tolist()]


def martingale_traces(run: PopulationRun, alpha: float) -> List[List[float]]:
    """[R_0, R_1, ..., R_N] of each root, in seed order, accumulated in birth order."""
    steps = _increments(run, alpha, run.order)
    bounds = run.starts.tolist() + [len(steps)]
    return [list(accumulate(steps[b:e], initial=1.0)) for b, e in zip(bounds, bounds[1:])]


def _require_one_seed(run: PopulationRun) -> None:
    if len(run.seeds) != 1:
        raise ValueError(f"needs a one-seed run, got {len(run.seeds)} seeds")


def martingale_trace(run: PopulationRun, alpha: float) -> List[float]:
    """[R_0, R_1, ..., R_N] for the whole materialized one-seed population."""
    _require_one_seed(run)
    return martingale_traces(run, alpha)[0]


def z_by_root(run: PopulationRun, t: float) -> List[int]:
    """Individuals born after t to mothers born at or before t, per root in seed order."""
    if not 0 <= t <= run.t_max:
        raise ValueError(f"t must be in [0, {run.t_max}], got {t}")
    roots, rank = run.first[0], run.nodes.rank
    parent = np.repeat(run.sigma, run.first[1:] - run.first[:-1])  # of the non-roots
    hits = rank[roots:][(parent <= t) & (run.sigma[roots:] > t)]
    root = rank[:roots].searchsorted(hits, "right")  # 1 + the root whose rank range holds it
    return np.bincount(root, minlength=roots + 1)[1:].tolist()


def z_process(run: PopulationRun, t: float) -> int:
    """Individuals born after t to mothers born at or before t, in a one-seed run."""
    _require_one_seed(run)
    return z_by_root(run, t)[0]


def z_counts(run: PopulationRun, ts: Sequence[float]) -> List[int]:
    """z_process at every t of ts in a one-seed run, from one sort: a birth time is never
    below its mother's, so z(t) = #(non-roots' mothers born by t) - #(non-roots born by t)."""
    _require_one_seed(run)
    ts = np.asarray(ts, dtype=float)
    inside = (0 <= ts) & (ts <= run.t_max)
    if not inside.all():
        raise ValueError(f"t must be in [0, {run.t_max}], got {ts[~inside][0]}")
    mothers = np.sort(np.repeat(run.sigma, run.first[1:] - run.first[:-1]))
    born = np.sort(run.sigma[run.first[0]:])
    return (mothers.searchsorted(ts, "right") - born.searchsorted(ts, "right")).tolist()


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_events_csv(run: PopulationRun, path: str | Path, header: str = "") -> None:
    write_table(path, header, ("order_index", "address", "sigma", "letter"),
                ((k, format_address(e.address), e.sigma, e.letter_id)
                 for k, e in enumerate(run.events)))


def export_martingale_csv(run: PopulationRun, path: str | Path, alpha: float,
                          header: str = "") -> None:
    write_table(path, header, ("n", "R_n"), enumerate(martingale_trace(run, alpha)))


def export_z_csv(run: PopulationRun, ts: Sequence[float], gamma: float,
                 path: str | Path, header: str = "") -> None:
    zs = z_counts(run, ts)
    write_table(path, header, ("t", "z_t", "scaled"),
                ((t, z, math.exp(-gamma * t) * z) for t, z in zip(ts, zs)))
