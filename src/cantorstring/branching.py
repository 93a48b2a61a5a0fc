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

Heap entries carry each individual's hash state, and the same
root_state / child_state / letter_draw rule as the tree sampler draws the
letters, so a population and a tree with the same (model, seed) carry
identical letters at identical addresses.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ._rng import Address, child_state, letter_draw, root_state
from .ifs import IfsModel, contraction_products, require_valid
from .exponent import solve_recursive_exponent
from .tree import format_address, write_table


@dataclass(frozen=True)
class BirthEvent:
    address: Address
    sigma: float
    letter_id: str
    child_offsets: Tuple[float, ...]


class PopulationRun:
    """All individuals born up to the horizon, in birth order.

    Simultaneous births (generic in lattice models) are ordered
    lexicographically by address so traces replay identically. Children
    born beyond the horizon are represented through their mother's
    child_offsets, which is enough to evaluate both R_n and z_t.
    """

    def __init__(self, model: IfsModel, seed: int, t_max: float,
                 events: List[BirthEvent]):
        self.model = model
        self.seed = seed
        self.t_max = t_max
        self.events = events

    def __len__(self) -> int:
        return len(self.events)


def simulate_population(model: IfsModel, t_max: float, seed: int) -> PopulationRun:
    """Materialize every individual with birth time <= t_max; deterministic in seed."""
    if not t_max >= 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    require_valid(model)
    offsets_per_letter = [tuple(-math.log(q) for q in contraction_products(letter))
                          for letter in model.letters]
    draw = letter_draw(model.probs)
    # (sigma, address, hash state): addresses are unique, so states never compare
    heap: List[Tuple[float, Address, int]] = [(0.0, (), root_state(seed))]
    events: List[BirthEvent] = []
    while heap:
        sigma, address, state = heapq.heappop(heap)
        letter_index = draw(state)
        offsets = offsets_per_letter[letter_index]
        events.append(BirthEvent(address, sigma, model.letters[letter_index].id, offsets))
        for i, tau in enumerate(offsets, start=1):
            birth = sigma + tau
            if birth <= t_max:
                heapq.heappush(heap, (birth, address + (i,), child_state(state, i)))
    return PopulationRun(model, seed, t_max, events)


def martingale_increments(run: PopulationRun, alpha: float) -> List[float]:
    """Per-individual increments of R_n, in birth order."""
    out = []
    for event in run.events:
        children = math.fsum(math.exp(-alpha * (event.sigma + tau))
                             for tau in event.child_offsets)
        out.append(children - math.exp(-alpha * event.sigma))
    return out


def martingale_R(run: PopulationRun, n: int, alpha: Optional[float] = None) -> float:
    """R_n over the first n individuals; alpha defaults to gamma_r of the model."""
    if n < 0 or n > len(run.events):
        raise ValueError(f"n must be in 0..{len(run.events)}, got {n}")
    if alpha is None:
        alpha = solve_recursive_exponent(run.model)
    increments = martingale_increments(run, alpha)
    return 1.0 + math.fsum(increments[:n])


def martingale_trace(run: PopulationRun, alpha: Optional[float] = None) -> List[float]:
    """[R_0, R_1, ..., R_N] for the whole materialized population."""
    if alpha is None:
        alpha = solve_recursive_exponent(run.model)
    trace = [1.0]
    acc = 1.0
    for inc in martingale_increments(run, alpha):
        acc += inc
        trace.append(acc)
    return trace


def z_process(run: PopulationRun, t: float) -> int:
    """Individuals born after t to mothers born at or before t."""
    if t < 0 or t > run.t_max:
        raise ValueError(f"t must be in [0, {run.t_max}], got {t}")
    count = 0
    for event in run.events:
        if event.sigma > t:
            break
        for tau in event.child_offsets:
            if event.sigma + tau > t:
                count += 1
    return count


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
