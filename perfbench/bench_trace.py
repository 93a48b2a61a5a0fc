"""Spans around the benchmark's calls into the cantorstring modules.

The benchmark measures every layer from outside: each call it makes into a
module's public function goes through ``Tracer.call``, which records one
span (unit id, layer, function, start, end, ok). Spans stay in memory and
are aggregated once, when the run ends. ``NullTracer`` has the same
interface and records nothing; the untraced end-to-end run uses it.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    unit: Optional[int]  # the unit (request) that caused the span; None for set-up
    layer: str
    name: str
    start: float
    end: float
    ok: bool


class NullTracer:
    enabled = False
    unit: Optional[int] = None

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key: str, n: float) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.spans.append(Span(self.unit, layer, name, start, perf_counter(), ok))

    def add(self, key: str, n: float) -> None:
        self.counts[key] += n


class SpanTotals:
    """Busy time, calls and errors per (layer, function); span time per unit and per layer."""

    def __init__(self, spans: List[Span]) -> None:
        self.busy_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.unit_covered_s: Dict[Optional[int], float] = defaultdict(float)
        self.layer_in_units_s: Dict[str, float] = defaultdict(float)
        for s in spans:
            took = s.end - s.start
            self.busy_s[s.layer, s.name] += took
            self.calls[s.layer, s.name] += 1
            self.errors[s.layer] += not s.ok
            if s.unit is not None:
                # the benchmark's spans never nest, so their sum is the covered time
                self.unit_covered_s[s.unit] += took
                self.layer_in_units_s[s.layer] += took
