"""Deterministic per-address random draws.

Tree labels must be reproducible from a single 64-bit seed, identical no
matter in which order nodes are visited, and portable across platforms.
Every address owns a splitmix64 state (Steele, Lea, Flood 2014): the
root's is one round of the seed, child i's one round of its parent's state
xor i * SALT, so callers derive it in O(1) from the parent's they carry.
One more round gives the uniform in [0, 1) that draws the node's letter.
A round runs on a uint64 array, in place on one copy, with uint64 constants and
no masks (uint64 arithmetic wraps mod 2**64); ints go through it as 1-element arrays.
"""
from __future__ import annotations

from typing import Tuple

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


def root_state(seed: int) -> int:
    """Hash state of the root address () for a seed."""
    return int(splitmix64(np.array([seed & _MASK64], np.uint64))[0])


def child_state(state, i):
    """Hash state of child i of the node whose state is `state`: ints, or uint64
    arrays elementwise."""
    if isinstance(state, int):
        return int(child_state(np.array([state], np.uint64), np.array([i], np.uint64))[0])
    return splitmix64(state ^ i * _CHILD_SALT)


def letter_draw(cum: np.ndarray, states: np.ndarray) -> np.ndarray:
    """uint64 states -> letter indices: the first letter whose running float sum of
    probs (`cum`, without the last) exceeds u (top 53 bits of one more round), or
    else the last letter."""
    u = (splitmix64(states) >> _S11) * (1.0 / (1 << 53))
    return cum.searchsorted(u, side="right")
