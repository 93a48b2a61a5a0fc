"""Branching-population view of a model: birth times, martingale, z process.

Every tree node is an individual. An individual with letter j gives birth
to child i at its own birth time plus the offset tau_i = -log(r_i m_i);
the ancestor is born at time 0. The fundamental martingale

    R_0 = 1,
    R_n = 1 + sum_{first n individuals} sum_children e^(-alpha sigma_child)
            - sum_{first n individuals} e^(-alpha sigma),

evaluated at the Malthusian tilt alpha = gamma_r, has mean one for every n
and converges to the random limit W. The z process counts individuals
born after time t to mothers born at or before t.

The population up to t_max is the labelled tree of the same (model, seed),
grown by the tree sampler with each node born by t_max expanded. Births are
ordered by (sigma, preorder rank): lattice models have exact ties, which
the lexicographic address order breaks. `events` is built only when read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._rng import Address, root_state
from .ifs import IfsModel
from .exponent import solve_recursive_exponent
from .tree import _grow, format_address, node_addresses, node_ranks, write_table


@dataclass(frozen=True)
class BirthEvent:
    address: Address
    sigma: float
    letter_id: str
    child_offsets: Tuple[float, ...]


class PopulationRun:
    """The tree of all individuals born up to t_max and their children.

    Nodes are numbered generation by generation: `sigma` holds their birth
    times, node f's children are first[f]:first[f + 1], and `order`, sorted
    when first read, lists the born nodes in birth order.
    """

    def __init__(self, model: IfsModel, seed: int, t_max: float, generations: list):
        self.model, self.seed, self.t_max, self.generations = model, seed, t_max, generations
        self.sigma = np.concatenate([gen.sigma for gen in generations])
        kids = [gen.first[1:] - gen.first[:-1] for gen in generations]
        self.first = np.concatenate([[1]] + kids).cumsum()  # children follow from node 1 on

    def __len__(self) -> int:
        return int(np.count_nonzero(self.sigma <= self.t_max))

    @cached_property
    def order(self) -> np.ndarray:
        born = np.flatnonzero(self.sigma <= self.t_max)
        rank = np.concatenate(node_ranks(self.generations))[born]
        return born[np.lexsort((rank, self.sigma[born]))]

    @cached_property
    def events(self) -> List[BirthEvent]:
        addresses = list(node_addresses(self.generations))
        letters = np.concatenate([gen.letter for gen in self.generations]).tolist()
        _, start, *_, tau, _ = self.model.tables
        sigma, offsets = self.sigma.tolist(), [tuple(t.tolist()) for t in np.split(tau, start[1:])]
        return [BirthEvent(addresses[f], sigma[f], self.model.letters[letters[f]].id,
                           offsets[letters[f]]) for f in self.order.tolist()]


def simulate_population(model: IfsModel, t_max: float, seed: int) -> PopulationRun:
    """Materialize every individual with birth time <= t_max; deterministic in seed.
    Raises ValueError when the tree would have more than tree.MAX_NODES nodes."""
    if not t_max >= 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    generations = _grow(model, [root_state(seed)], lambda k, length, sigma: sigma <= t_max,
                        "use a smaller --tmax")
    return PopulationRun(model, seed, t_max, generations)


def _increments(run: PopulationRun, alpha: Optional[float], n: int) -> List[float]:
    """R_1 - R_0, ..., R_n - R_(n-1); alpha defaults to gamma_r of the model."""
    if alpha is None:
        alpha = solve_recursive_exponent(run.model)
    mothers, first = run.order[:n], run.first.tolist()
    # first[] increases, so the mothers and their children lie below first[max(mothers) + 1]
    e = list(map(math.exp, (-alpha * run.sigma[:first[mothers.max(initial=0) + 1]]).tolist()))
    return [math.fsum(e[first[f]:first[f + 1]]) - e[f] for f in mothers.tolist()]


def martingale_R(run: PopulationRun, n: int, alpha: Optional[float] = None) -> float:
    """R_n over the first n individuals; alpha defaults to gamma_r of the model."""
    if n < 0 or n > len(run):
        raise ValueError(f"n must be in 0..{len(run)}, got {n}")
    return 1.0 + math.fsum(_increments(run, alpha, n))


def martingale_trace(run: PopulationRun, alpha: Optional[float] = None) -> List[float]:
    """[R_0, R_1, ..., R_N] for the whole materialized population."""
    return list(accumulate(_increments(run, alpha, len(run)), initial=1.0))


def z_process(run: PopulationRun, t: float) -> int:
    """Individuals born after t to mothers born at or before t."""
    if not 0 <= t <= run.t_max:
        raise ValueError(f"t must be in [0, {run.t_max}], got {t}")
    parent = np.repeat(run.sigma, run.first[1:] - run.first[:-1])  # of nodes 1, 2, ...
    return int(np.count_nonzero((parent <= t) & (run.sigma[1:] > t)))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_events_csv(run: PopulationRun, path: str | Path, header: str = "") -> None:
    write_table(path, header, ("order_index", "address", "sigma", "letter"),
                ((k, format_address(e.address), e.sigma, e.letter_id)
                 for k, e in enumerate(run.events)))


def export_martingale_csv(run: PopulationRun, path: str | Path,
                          alpha: Optional[float] = None, header: str = "") -> None:
    write_table(path, header, ("n", "R_n"), enumerate(martingale_trace(run, alpha)))


def export_z_csv(run: PopulationRun, ts: Sequence[float], gamma: float,
                 path: str | Path, header: str = "") -> None:
    ts = [float(t) for t in ts]
    zs = [z_process(run, t) for t in ts]
    write_table(path, header, ("t", "z_t", "scaled"),
                ((t, z, math.exp(-gamma * t) * z) for t, z in zip(ts, zs)))
