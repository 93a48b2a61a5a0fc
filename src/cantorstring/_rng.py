"""Deterministic per-address random draws.

Tree labels must be reproducible from a single 64-bit seed, identical no
matter in which order nodes are visited, and portable across platforms.
Every address owns a splitmix64 state (Steele, Lea, Flood 2014): the
root's is one round of the seed, child i's one round of its parent's state
xor i * SALT, so callers derive it in O(1) from the parent's they carry.
One more round gives the uniform in [0, 1) that draws the node's letter.
States are uint64 arrays only: a round runs on one copy, in place, with uint64
constants and no masks (uint64 arithmetic wraps mod 2**64), so every root of a
seed list is derived in one round.
"""
from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

Address = Tuple[int, ...]

_MASK64 = (1 << 64) - 1
_GOLDEN, _MIX1, _MIX2, _CHILD_SALT = map(np.uint64, (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xD1B54A32D192ED03))
_S11, _S27, _S30, _S31 = map(np.uint64, (11, 27, 30, 31))  # a Python int would be converted per op


def splitmix64(z: np.ndarray) -> np.ndarray:
    """One splitmix64 round per element: advance by the golden gamma and finalize."""
    z = z + _GOLDEN
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def root_states(seeds: Iterable[int]) -> np.ndarray:
    """Hash states of the root address () for each seed, in one round."""
    return splitmix64(np.array([seed & _MASK64 for seed in seeds], np.uint64))


def child_state(state: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Hash states of children i of the nodes whose states are `state`, elementwise."""
    return splitmix64(state ^ i * _CHILD_SALT)


def letter_draw(cum: np.ndarray, states: np.ndarray) -> np.ndarray:
    """uint64 states -> letter indices: the first letter whose running float sum of
    probs (`cum`, without the last) exceeds u (top 53 bits of one more round), or
    else the last letter."""
    u = (splitmix64(states) >> _S11) * (1.0 / (1 << 53))
    return cum.searchsorted(u, side="right")
