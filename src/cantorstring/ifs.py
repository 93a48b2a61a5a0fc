"""Alphabets of iterated function systems with weights and letter probabilities.

A `Letter` is one IFS on the base interval: ordered affine contractions
S_i(x) = r_i x + c_i together with a weight vector summing to one. An
`IfsModel` is a finite family of letters plus the probability of drawing
each letter. Admissibility means: the first map is pinned to the left
endpoint, the last to the right, consecutive images may touch but never
overlap, weights and probabilities are proper distributions.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

DEFAULT_TOL, MAX_TOL = 1e-12, 1e-3  # a model's default and loosest tolerance
RANDOM_MAX_LETTERS, RANDOM_MAX_MAPS = 3, 4  # random_model's letter and map counts


@dataclass(frozen=True)
class ContractionMap:
    """Affine contraction x -> ratio * x + offset."""

    ratio: float
    offset: float

    def __call__(self, x: float) -> float:
        return self.ratio * x + self.offset


@dataclass(frozen=True)
class Letter:
    """One IFS: ordered contraction maps and the matching weight vector."""

    id: str
    maps: Tuple[ContractionMap, ...]
    weights: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    @property
    def n_maps(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class IfsModel:
    """Finite letter family with selection probabilities on a base interval."""

    interval: Tuple[float, float]
    letters: Tuple[Letter, ...]
    probs: Tuple[float, ...]
    tol: float = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        a, b = self.interval  # exactly two entries
        object.__setattr__(self, "interval", (float(a), float(b)))
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))

    @cached_property
    def support(self) -> Tuple[Tuple[float, Tuple[float, ...]], ...]:
        """(p_j, contraction_products) of every letter with p_j > 0, once per model object.
        Raises ValueError listing all violations if the model is inadmissible; a failed
        check is not cached, so an invalid model raises on every access."""
        violations = validate_model(self)
        if violations:
            raise ValueError("invalid model: " + "; ".join(violations))
        return tuple((p, tuple(contraction_products(letter)))
                     for letter, p in zip(self.letters, self.probs) if p > 0.0)

    @cached_property
    def tables(self) -> Tuple[np.ndarray, ...]:
        """(n_maps, start, r, c, w, tau = -log(r w), cum) for tree growth, once per model
        object after `support` has checked it: map arrays with letter j's rows at
        start[j]:start[j] + n_maps[j], and the running sums of probs without the last."""
        self.support  # raises on an invalid model
        n_maps = np.array([letter.n_maps for letter in self.letters], np.int64)
        columns = np.array([(s.ratio, s.offset, w, -math.log(q))
                            for letter in self.letters for s, w, q in
                            zip(letter.maps, letter.weights, contraction_products(letter))]).T
        out = (n_maps, np.cumsum(n_maps) - n_maps, *columns.copy(), np.cumsum(self.probs)[:-1])
        for array in out:  # shared by every tree grown from this object
            array.flags.writeable = False
        return out

    @cached_property
    def table_addresses(self) -> Tuple[int, ...]:
        """Addresses of the contiguous `tables` arrays, taken once, for the compiled growth."""
        return tuple(array.ctypes.data for array in self.tables)

    @cached_property
    def extreme_steps(self) -> Tuple[Tuple[float, float], ...]:
        """(cell length, birth time) after k < 64 steps of the least ratio and the largest
        tau of `tables` from the root, by the walks' float steps, taken once for `_grow`."""
        r_min, tau_max = float(self.tables[2].min()), float(self.tables[5].max())
        steps = [(self.interval[1] - self.interval[0], 0.0)]
        while len(steps) < 64:
            steps.append((steps[-1][0] * r_min, steps[-1][1] + tau_max))
        return tuple(steps)


def make_letter(letter_id: str, maps: Sequence[Tuple[float, float]], weights: Sequence[float]) -> Letter:
    """Build a Letter from (ratio, offset) pairs."""
    return Letter(letter_id, tuple(ContractionMap(r, c) for r, c in maps), tuple(weights))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_letter(letter: Letter, interval: Tuple[float, float], tol: float = DEFAULT_TOL) -> List[str]:
    """All invariant violations of one letter against the base interval."""
    a, b = interval
    out: List[str] = []
    lid = letter.id
    if letter.n_maps < 2:
        out.append(f"letter {lid!r}: needs at least 2 maps, has {letter.n_maps}")
        if not letter.maps:
            return out
    if len(letter.weights) != letter.n_maps:
        out.append(f"letter {lid!r}: {len(letter.weights)} weights for {letter.n_maps} maps")
        return out
    for i, w in enumerate(letter.weights):
        if not (0.0 < w < 1.0):
            out.append(f"letter {lid!r} weight {i + 1}: {w} not in (0, 1)")
    wsum = math.fsum(letter.weights)
    if abs(wsum - 1.0) > tol:
        out.append(f"letter {lid!r}: weights sum to {wsum!r}, not 1")
    for i, (s, w) in enumerate(zip(letter.maps, letter.weights)):
        if not (0.0 < s.ratio < 1.0):
            out.append(f"letter {lid!r} map {i + 1}: ratio {s.ratio} not in (0, 1)")
        elif 0.0 < w and s.ratio * w == 0.0:
            out.append(f"letter {lid!r} map {i + 1}: product {s.ratio!r} * {w!r} underflows to 0")
        if not math.isfinite(s.offset):  # a NaN offset would pass every comparison below
            out.append(f"letter {lid!r} map {i + 1}: offset {s.offset!r} is not finite")
        if s(a) < a - tol or s(b) > b + tol:
            out.append(f"letter {lid!r} map {i + 1}: image [{s(a)!r}, {s(b)!r}] leaves the interval")
    first, last = letter.maps[0], letter.maps[-1]
    if abs(first(a) - a) > tol:
        out.append(f"letter {lid!r} map 1: left endpoint {first(a)!r} != a = {a!r}")
    if abs(last(b) - b) > tol:
        out.append(f"letter {lid!r} map {letter.n_maps}: right endpoint {last(b)!r} != b = {b!r}")
    for i in range(letter.n_maps - 1):
        right_i = letter.maps[i](b)
        left_next = letter.maps[i + 1](a)
        if right_i > left_next + tol:
            out.append(
                f"letter {lid!r} maps {i + 1},{i + 2}: overlap "
                f"S_{i + 1}(b) = {right_i!r} > S_{i + 2}(a) = {left_next!r}"
            )
    return out


def validate_model(model: IfsModel) -> List[str]:
    """Every violated condition, to within model.tol; empty list iff the model is valid.

    Violations are data, not failures: callers decide whether to raise.
    """
    if not 0.0 <= model.tol < math.inf:  # NaN or inf would pass every check below
        return [f"tolerance: {model.tol!r} must be finite and >= 0"]
    if model.tol > MAX_TOL:
        return [f"tolerance: {model.tol!r} must be <= {MAX_TOL!r}"]
    a, b = model.interval
    if not a < b:
        return [f"interval: a = {a!r} must be < b = {b!r}"]
    if not (math.isfinite(a) and math.isfinite(b)):
        return [f"interval: endpoints {a!r}, {b!r} must be finite"]
    if not (math.isfinite(b - a) and math.isfinite(a + b)):  # lengths and midpoints overflow
        return [f"interval: b - a and a + b must be finite, got [{a!r}, {b!r}]"]
    if not model.letters:
        return ["letters: model has no letters"]
    if len(model.probs) != len(model.letters):
        return [f"probs: {len(model.probs)} probabilities for {len(model.letters)} letters"]
    out: List[str] = []
    ids = [letter.id for letter in model.letters]
    if len(set(ids)) != len(ids):
        out.append("letters: ids are not unique")
    for j, p in enumerate(model.probs):
        if not (0.0 <= p <= 1.0):
            out.append(f"prob of letter {j + 1}: {p} not in [0, 1]")
    psum = math.fsum(model.probs)
    if abs(psum - 1.0) > model.tol:
        out.append(f"probs: sum to {psum!r}, not 1")
    if not any(p > 0.0 for p in model.probs):
        out.append("probs: all zero, at least one letter must be selectable")
    for letter in model.letters:
        out.extend(validate_letter(letter, model.interval, model.tol))
    return out


def contraction_products(letter: Letter) -> List[float]:
    """Per-child products r_i * m_i, in map order.

    Their negative logs are the birth-time offsets of the branching clock.
    """
    return [s.ratio * w for s, w in zip(letter.maps, letter.weights)]


# ---------------------------------------------------------------------------
# Canonical models
# ---------------------------------------------------------------------------

def middle_third_letter(letter_id: str = "third", weights: Sequence[float] = (0.5, 0.5)) -> Letter:
    return make_letter(letter_id, [(1.0 / 3.0, 0.0), (1.0 / 3.0, 2.0 / 3.0)], weights)


def five_interval_letter(letter_id: str = "fifth",
                         weights: Sequence[float] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)) -> Letter:
    return make_letter(letter_id, [(0.2, 0.0), (0.2, 0.4), (0.2, 0.8)], weights)


def third_fifth_model(p_third: float = 0.6) -> IfsModel:
    """Two-letter model: middle-third with probability p, three kept fifths else."""
    return IfsModel((0.0, 1.0), (middle_third_letter(), five_interval_letter()),
                    (p_third, 1.0 - p_third))


def single_letter_model(letter: Letter) -> IfsModel:
    return IfsModel((0.0, 1.0), (letter,), (1.0,))


def lebesgue_model() -> IfsModel:
    """Two touching halves with equal weights: the measure stays Lebesgue."""
    return single_letter_model(make_letter("halves", [(0.5, 0.0), (0.5, 0.5)], (0.5, 0.5)))


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def model_to_dict(model: IfsModel) -> dict:
    return {
        "interval": [model.interval[0], model.interval[1]],
        "letters": [
            {
                "id": letter.id,
                "prob": p,
                "maps": [{"r": s.ratio, "c": s.offset} for s in letter.maps],
                "weights": list(letter.weights),
            }
            for letter, p in zip(model.letters, model.probs)
        ],
        "tolerance": model.tol,
    }


def model_from_dict(data: dict) -> IfsModel:
    letters = tuple(
        make_letter(entry["id"], [(m["r"], m["c"]) for m in entry["maps"]], entry["weights"])
        for entry in data["letters"]
    )
    probs = tuple(entry["prob"] for entry in data["letters"])
    tol = float(data.get("tolerance", DEFAULT_TOL))
    return IfsModel(tuple(data["interval"]), letters, probs, tol=tol)


def save_model(model: IfsModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> IfsModel:
    return model_from_dict(json.loads(Path(path).read_text()))


def model_digest(model: IfsModel) -> str:
    """sha256 over the canonical JSON serialization (first 12 hex chars)."""
    blob = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Random model generation (sweeps and comparison batches)
# ---------------------------------------------------------------------------

def random_model(seed: int, *, balanced: bool = False) -> IfsModel:
    """A random admissible model on [0, 1], deterministic in the seed.

    With balanced=True every letter shares a common per-letter exponent
    alpha (all child products equal to N^(-1/alpha)), which forces the
    homogeneous and recursive exponents to coincide.
    """
    rng = random.Random(seed)
    n_letters = rng.randint(1, RANDOM_MAX_LETTERS)
    if balanced:
        alpha = rng.uniform(0.15, 0.48)
    letters = []
    for j in range(n_letters):
        n = rng.randint(2, RANDOM_MAX_MAPS)
        if balanced:
            ratio = n ** (1.0 - 1.0 / alpha)
            lengths = [ratio] * n
            weights = [1.0 / n] * n
            slack = 1.0 - n * ratio
            raw_gaps = [rng.uniform(0.2, 1.0) for _ in range(n - 1)]
            gsum = sum(raw_gaps)
            gaps = [slack * g / gsum for g in raw_gaps]
        else:
            raw_len = [rng.uniform(1.0, 2.0) for _ in range(n)]
            raw_gaps = [rng.uniform(0.2, 1.5) for _ in range(n - 1)]
            total = sum(raw_len) + sum(raw_gaps)
            lengths = [v / total for v in raw_len]
            gaps = [v / total for v in raw_gaps]
            raw_w = [rng.uniform(0.5, 2.0) for _ in range(n)]
            wsum = sum(raw_w)
            weights = [v / wsum for v in raw_w]
        # a map starts after the lengths and gaps before it, summed in turn; the last ends at 1
        starts = list(accumulate(chain.from_iterable(zip(lengths, gaps)), initial=0.0))[::2]
        maps = list(zip(lengths, starts[:-1])) + [(lengths[-1], 1.0 - lengths[-1])]
        letters.append(make_letter(f"L{j + 1}", maps, weights))
    raw_p = [rng.uniform(0.3, 1.0) for _ in range(n_letters)]
    psum = sum(raw_p)
    probs = tuple(v / psum for v in raw_p)
    return IfsModel((0.0, 1.0), tuple(letters), probs)
