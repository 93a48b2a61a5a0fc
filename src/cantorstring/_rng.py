"""Deterministic per-address random draws.

Tree labels must be reproducible from a single 64-bit seed, identical no
matter in which order nodes are visited, and portable across platforms.
Every address owns a splitmix64 state (Steele, Lea, Flood 2014): the
root's is one round of the seed, child i's one round of its parent's state
xor i * SALT, so callers derive it in O(1) from the parent's they carry.
One more round gives the uniform in [0, 1) that draws the node's letter.
Each function also maps a uint64 array of states, elementwise (mod 2**64);
letter_draw takes only such arrays, one whole tree generation at a time.
"""
from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence, Tuple

import numpy as np

Address = Tuple[int, ...]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_CHILD_SALT = 0xD1B54A32D192ED03


def splitmix64(z: int) -> int:
    """One splitmix64 round: advance by the golden gamma and finalize."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def root_state(seed: int) -> int:
    """Hash state of the root address () for a seed."""
    return splitmix64(seed & _MASK64)


def child_state(state: int, i: int) -> int:
    """Hash state of child i of the node whose state is `state`."""
    return splitmix64(state ^ ((i * _CHILD_SALT) & _MASK64))


def letter_draw(probs: Sequence[float]) -> Callable[[np.ndarray], np.ndarray]:
    """uint64 states -> letter indices: the first letter whose running float sum of
    probs exceeds u (top 53 bits of one more round), or else the last letter."""
    cum = list(accumulate(probs))[:-1]

    def draw(state):
        u = (splitmix64(state) >> 11) * (1.0 / (1 << 53))
        return np.searchsorted(cum, u, side="right")

    return draw
