"""cantorstring benchmark: four CLI-shaped workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``
and the model files are read from its ``models/``. Workloads (see
``bench_workloads.py``): ``spectrum-fine``, ``bracket-deep``,
``branching-mc``, ``exponent-sweep``. Each is a closed loop: one caller,
one thread, the next unit starts when the previous one is done, and the
BLAS thread pools are pinned to 1.

A run does, in order:

1. set-up, timed in fresh interpreters (``setup_probe.py``), median of
   ``SETUP_REPEATS``: import ``cantorstring.cli``, load and validate the
   model files, solve gamma_r;
2. in-process set-up and warm-up units (untimed), each checked, then the
   CLI parity check (``cli.main`` must print the same bytes as the
   warm-up units) and, where defined, the dense-eigensolver oracle;
3. ``--trace 0``: the timed phase, units back to back for ``--seconds``,
   every unit's output checked outside its timing;
   ``--trace 1``: for ``--seconds``, each unit runs untraced and then
   traced, the two outputs must have equal fingerprints, and the spans of
   the traced copies give the per-layer metrics.

End-to-end metrics (``--trace 0``): ``setup_s``, ``peak_rss_mb`` and the
unit times ``cal_units_per_s`` and ``cal_unit_ms.p50``. Times are scaled
to a fixed CPU speed (``bench_calibrate.py``): every ``CAL_EVERY_S`` a
fixed calibration loop is timed, and a unit's wall time is multiplied by
``CAL_REFERENCE_S`` over the median of the calibrations taken within
``CAL_WINDOW_S`` of it; each set-up probe is scaled by the calibration it
times right after itself. On a shared 2-core machine the CPU speed drifts
by up to 2x over tens of seconds, which moves raw wall-clock medians of
whole runs by 10-30 %; the calibration cancels most of that drift, and a
change to cantorstring cannot move the calibration loop. The raw
wall-clock ``units_per_s``, ``unit_ms.p50`` and ``unit_ms.tail``, the
calibrated ``cal_unit_ms.tail`` and the ``failed_ratio`` are printed above
the result line but not gated. ``unit_ms.tail`` is the highest whole
percentile with at least ten units beyond it.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
unit passed its checks, 1 when one failed, 2 when the checkout holds no
cantorstring sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from bench_calibrate import CAL_REFERENCE_S, calibration_s
from bench_trace import NullTracer, SpanTotals, Tracer

BLAS_PINS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                  "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PINS)  # before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
PROBE_TIMEOUT_S = 60
CAL_EVERY_S = 0.2        # re-measure the CPU speed at least this often while timing
CAL_WINDOW_S = 0.25      # a unit's calibration: median of the samples this close to it

# ROADMAP "Open items" baseline (2-core machine, Python 3.10, numpy 2.4.6) as
# per-unit costs: (workload, metric, the ROADMAP row it comes from, value)
ROADMAP_BASELINE = [
    ("spectrum-fine", "tree.ns_per_node", "sample_tree eps=1e-6: 356 ms / 26167 nodes",
     356e6 / 26167),
    ("spectrum-fine", "measure.ns_per_cell", "leaf_cells eps=1e-6: 68 ms / 15296 leaves",
     68e6 / 15296),
    ("spectrum-fine", "stieltjes.ns_per_atom_shift",
     "counting_curve: 247 ms / (15296 atoms x 120 shifts x 2)", 247e6 / (15296 * 120 * 2)),
    ("bracket-deep", "tree.ns_per_node", "sample_tree depth 8: 25 ms / 2888 nodes", 25e6 / 2888),
    ("bracket-deep", "stieltjes.ms_per_bracket_shift", "check_bracketing depth 8: 95 ms", 95.0),
    ("branching-mc", "branching.us_per_birth", "simulate_population t=14: 2.7 ms / 283 births",
     2700 / 283),
    ("exponent-sweep", "exponent.us_per_model", "build_report alone: 0.9 ms", 900.0),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def fail_setup(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import the benchmark's workloads, which import cantorstring from ROOT/src."""
    if not (SRC / "cantorstring" / "__init__.py").is_file():
        fail_setup(f"no cantorstring sources under {SRC}; run from a cantorstring checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bench_workloads
    import cantorstring
    if Path(cantorstring.__file__).resolve().parent != SRC / "cantorstring":
        fail_setup(f"cantorstring imported from {cantorstring.__file__}, not {SRC}")
    return bench_workloads


# ---------------------------------------------------------------------------
# Set-up in fresh interpreters
# ---------------------------------------------------------------------------

def probe_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_PINS)


def run_probe(model_paths: List[str], importtime: bool) -> Tuple[dict, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(HERE / "setup_probe.py")] + model_paths
    done = subprocess.run(cmd, cwd=ROOT, env=probe_env(), capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a -X importtime log.

    Lines are printed child before parent, indented by nesting depth; an
    entry is outermost when the next less-indented line is not scipy.
    """
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total_us = 0
    for i, (depth, cumulative, name) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[2].split(".")[0] != "scipy":
            total_us += cumulative
    return total_us / 1e6


# ---------------------------------------------------------------------------
# CPU-speed calibration
# ---------------------------------------------------------------------------

def calibrations_at(spans: List[Tuple[float, float]],
                    samples: List[Tuple[float, float]]) -> List[float]:
    """The calibration in force during each (begin, end) span: the median of
    the samples taken from CAL_WINDOW_S before it to CAL_WINDOW_S after it.

    A sample is taken at most CAL_EVERY_S before any unit begins, so the
    window is never empty. One sample can catch a burst of speed that the
    units around it do not get; the median over half a second follows the
    drift and damps such bursts.
    """
    at = [t for t, _ in samples]
    return [statistics.median(c for _, c in samples[bisect_left(at, begin - CAL_WINDOW_S):
                                                     bisect_right(at, end + CAL_WINDOW_S)])
            for begin, end in spans]


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def record(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for line in problems[: max(0, 20 - self.reported)]:
                print(f"FAILED {line}", file=sys.stderr)
            self.reported += len(problems)


def run_unit(wl, ctx, k: int, tr, corrupt=None) -> Tuple[float, Optional[dict], List[str]]:
    """One unit: (wall seconds, output or None, problems). The check is not timed."""
    tr.unit = k
    start = perf_counter()
    try:
        out = wl.unit(ctx, k, tr)
    except Exception:
        return perf_counter() - start, None, [f"unit {k} raised:\n{traceback.format_exc()}"]
    wall = perf_counter() - start
    try:
        problems = wl.check(ctx, k, corrupt(out) if corrupt else out)
    except Exception:
        problems = [f"unit {k} check raised:\n{traceback.format_exc()}"]
    return wall, out, problems


def nearest_rank(sorted_values: List[float], pct: float) -> float:
    rank = max(1, -(-len(sorted_values) * pct // 100))  # ceil
    return sorted_values[int(rank) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten units beyond it (100 if n <= 10)."""
    return 100 if n <= 10 else (100 * (n - 10)) // n


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def unit_times(prefix: str, walls: List[float]) -> Dict[str, Tuple[float, str]]:
    ordered = sorted(walls)
    return {
        f"{prefix}units_per_s": (len(walls) / sum(walls), "1/s"),
        f"{prefix}unit_ms.p50": (1e3 * statistics.median(ordered), "ms"),
        f"{prefix}unit_ms.tail": (1e3 * nearest_rank(ordered, tail_percentile(len(walls))), "ms"),
    }


def calibrated(walls: List[float], cals: List[float]) -> List[float]:
    return [w * CAL_REFERENCE_S / c for w, c in zip(walls, cals)]


def end_to_end(walls: List[float], cals: List[float],
               setup: List[dict]) -> Dict[str, Tuple[float, str]]:
    """The gated metrics: set-up, calibrated throughput and median, peak RSS.

    The tail is printed but not gated: on exponent-sweep's ~1 ms units it
    follows how often the machine interrupts the process, and over ten
    seeds its IQR/median reached 0.24 where the median's stayed below 0.04.
    """
    times = unit_times("cal_", calibrated(walls, cals))
    del times["cal_unit_ms.tail"]
    return {
        "setup_s": (statistics.median(p["setup_s"] * CAL_REFERENCE_S / p["calibration_s"]
                                      for p in setup), "s"),
        **times,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(t, c, traced: List[Tuple[int, float]], untraced_s: float, cals: List[float],
              setup: List[dict], scipy_s: List[float]) -> Dict[str, Tuple[float, str]]:
    """The traced run's metrics, from span totals ``t`` and the counts ``c`` units added."""

    def busy(layer, name):
        return t.busy_s[layer, name]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    traced_s = sum(w for _, w in traced)
    covered_s = sum(t.unit_covered_s[k] for k, _ in traced)
    exponent_busy = sum(busy("exponent", f) for f in (
        "solve_recursive_exponent", "solve_homogeneous_exponent",
        "check_equality_condition", "build_report"))
    cell_busy = sum(busy("measure", f) for f in ("leaf_cells", "build_cells", "atomize"))
    m = {
        "tree.sample_tree.calls": (t.calls["tree", "sample_tree"], "count"),
        "tree.sample_tree.busy_s": (busy("tree", "sample_tree"), "s"),
        "tree.nodes": (c["tree.nodes"], "count"),
        "tree.ns_per_node": (ratio(busy("tree", "sample_tree"), c["tree.nodes"], 1e9), "ns"),
        "measure.leaf_cells.busy_s": (busy("measure", "leaf_cells"), "s"),
        "measure.build_cells.busy_s": (busy("measure", "build_cells"), "s"),
        "measure.atomize.busy_s": (busy("measure", "atomize"), "s"),
        "measure.cells": (c["measure.cells"], "count"),
        "measure.ns_per_cell": (ratio(cell_busy, c["measure.cells"], 1e9), "ns"),
        "stieltjes.string.busy_s": (busy("stieltjes", "string"), "s"),
        "stieltjes.atoms": (c["stieltjes.atoms"], "count"),
        "stieltjes.atoms_per_cell": (ratio(c["stieltjes.atoms"], c["measure.cells"]), "ratio"),
        "stieltjes.counting_curve.busy_s": (busy("stieltjes", "counting_curve"), "s"),
        "stieltjes.atom_shifts": (c["stieltjes.atom_shifts"], "count"),
        "stieltjes.ns_per_atom_shift": (ratio(busy("stieltjes", "counting_curve"),
                                              c["stieltjes.atom_shifts"], 1e9), "ns"),
        "stieltjes.check_bracketing.calls": (t.calls["stieltjes", "check_bracketing"], "count"),
        "stieltjes.check_bracketing.busy_s": (busy("stieltjes", "check_bracketing"), "s"),
        "stieltjes.ms_per_bracket_shift": (ratio(busy("stieltjes", "check_bracketing"),
                                                 t.calls["stieltjes", "check_bracketing"],
                                                 1e3), "ms"),
        "stieltjes.bracket_strings_built": (c["stieltjes.bracket_strings_built"], "count"),
        "stieltjes.bracket_reuse_ratio": (ratio(c["stieltjes.bracket_strings_distinct"],
                                                c["stieltjes.bracket_strings_built"]), "ratio"),
        "stieltjes.export_curve_csv.busy_s": (busy("stieltjes", "export_curve_csv"), "s"),
        "stieltjes.csv_bytes": (c["stieltjes.csv_bytes"], "bytes"),
        "estimator.fit_exponent.busy_s": (busy("estimator", "fit_exponent"), "s"),
        "estimator.tail_statistics.busy_s": (busy("estimator", "tail_statistics"), "s"),
        "branching.simulate_population.busy_s": (busy("branching", "simulate_population"), "s"),
        "branching.births": (c["branching.births"], "count"),
        "branching.us_per_birth": (ratio(busy("branching", "simulate_population"),
                                         c["branching.births"], 1e6), "us"),
        "branching.tie_births": (c["branching.tie_births"], "count"),
        "branching.martingale_trace.busy_s": (busy("branching", "martingale_trace"), "s"),
        "branching.z_process.busy_s": (busy("branching", "z_process"), "s"),
        "exponent.solve_recursive_exponent.busy_s":
            (busy("exponent", "solve_recursive_exponent"), "s"),
        "exponent.solve_homogeneous_exponent.busy_s":
            (busy("exponent", "solve_homogeneous_exponent"), "s"),
        "exponent.check_equality_condition.busy_s":
            (busy("exponent", "check_equality_condition"), "s"),
        "exponent.build_report.busy_s": (busy("exponent", "build_report"), "s"),
        "exponent.us_per_model": (ratio(exponent_busy, c["exponent.models"], 1e6), "us"),
        "ifs.random_model.busy_s": (busy("ifs", "random_model"), "s"),
        "ifs.load_model.busy_s": (busy("ifs", "load_model"), "s"),
        "ifs.validate_model.busy_s": (busy("ifs", "validate_model"), "s"),
        "cli.import_s": (statistics.median(p["import_s"] for p in setup), "s"),
        "cli.import_scipy_s": (statistics.median(scipy_s), "s"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s) - 1.0, "ratio"),
        "bench.glue_share": (ratio(traced_s - covered_s, traced_s), "ratio"),
        "bench.calibration_ms": (1e3 * statistics.median(cals), "ms"),
    }
    for layer in ("ifs", "tree", "measure", "stieltjes", "exponent", "branching",
                  "estimator", "cli"):
        m[f"{layer}.errors"] = (t.errors[layer], "count")
    return m


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def run_record(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    source = hashlib.sha256()
    for path in sorted((SRC / "cantorstring").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_PINS, "git_commit": commit,
            "source_sha256": source.hexdigest()[:16]}


def print_table(metrics: Dict[str, Tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")


def print_baseline(workload: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print("per-unit costs of this traced run next to the ROADMAP baseline table:")
    for w, name, row, base in ROADMAP_BASELINE:
        if w == workload:
            value, unit = metrics[name]
            print(f"  {name:<32} {value:12.4g} {unit:<3} baseline {base:10.4g} ({row})")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        corrupt=None) -> Tuple[dict, dict]:
    """Run one workload; returns (result JSON object, extras for the self-test).

    ``size`` "tiny" and ``corrupt`` (a function applied to every unit output
    before its check) exist for ``selftest.py``.
    """
    bw = import_program()

    wl = bw.WORKLOADS[workload]
    golden = bw.load_golden().get(workload, {}) if (seed == 0 and size == "full") else {}
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    try:
        ctx = bw.Context(root=ROOT, work=WORK, base=seed * bw.SEED_STRIDE,
                         params=wl.sizes[size], golden=golden)
        model_paths = [ctx.model_path(f) for f in wl.model_files]
        setup = [run_probe(model_paths, importtime=False)[0] for _ in range(SETUP_REPEATS)]
        scipy_s = ([scipy_import_s(run_probe(model_paths, importtime=True)[1])
                    for _ in range(IMPORTTIME_REPEATS)] if trace else [])

        tracer = Tracer() if trace else None
        null = NullTracer()
        wl.prepare(ctx, tracer or null)
        tally = Tally()

        warm = []
        for k in range(wl.warmup_units):
            _, out, problems = run_unit(wl, ctx, k, null, corrupt)
            warm.append(out)
            tally.record(problems)
        if all(out is not None for out in warm):
            # parity and oracle count as one more attempted check
            try:
                tally.record(wl.parity(ctx, warm, tracer or null) + wl.oracle(ctx, warm))
            except Exception:
                tally.record([f"parity check raised:\n{traceback.format_exc()}"])

        walls: List[float] = []
        spans: List[Tuple[float, float]] = []  # (begin, end) of each timed unit
        samples: List[Tuple[float, float]] = []  # (time, calibration)
        traced: List[Tuple[int, float]] = []
        untraced_s = 0.0
        fingerprints: List[Tuple[dict, dict]] = []
        k = wl.warmup_units
        start = perf_counter()
        while perf_counter() - start < seconds:
            if not samples or perf_counter() - samples[-1][0] >= CAL_EVERY_S:
                samples.append((perf_counter(), calibration_s()))
            began = perf_counter()
            wall, out, problems = run_unit(wl, ctx, k, null, corrupt)
            if trace:
                twall, tout, tproblems = run_unit(wl, ctx, k, tracer, corrupt)
                if out is not None and tout is not None:
                    pair = (wl.fingerprint(out), wl.fingerprint(tout))
                    fingerprints.append(pair)
                    if pair[0] != pair[1]:
                        tproblems = tproblems + [f"unit {k}: traced output differs"]
                tally.record(tproblems)
                untraced_s += wall
                traced.append((k, twall))
            walls.append(wall)
            spans.append((began, began + wall))
            tally.record(problems)
            k += 1
        samples.append((perf_counter(), calibration_s()))
        cals = calibrations_at(spans, samples)
        if trace:
            totals = SpanTotals(tracer.spans)
            metrics = per_layer(totals, tracer.counts, traced, untraced_s, cals, setup, scipy_s)
            traced_s = sum(w for _, w in traced)
            shares = {layer: busy / traced_s for layer, busy in totals.layer_in_units_s.items()}
        else:
            metrics = end_to_end(walls, cals, setup)
            shares = {}
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    return result, {"walls": walls, "cals": cals, "fingerprints": fingerprints,
                    "metrics": metrics, "shares": shares}


def main(argv=None) -> int:
    args = parse_args(argv)
    bw = import_program()
    if args.workload not in bw.WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; choose from {', '.join(bw.WORKLOADS)}")
    print("run-record " + json.dumps(run_record(args), sort_keys=True))
    result, extras = run(args.workload, args.seed, args.seconds, bool(args.trace))
    n = len(extras["walls"])
    print(f"{args.workload}: {n} timed units, {result['attempted']} attempted, "
          f"{result['failed']} failed, failed_ratio "
          f"{result['failed'] / result['attempted']:.6g}")
    if not args.trace:
        print(f"  unit_ms.tail is p{tail_percentile(n)} over {n} units; wall-clock times, "
              f"calibration loop median {1e3 * statistics.median(extras['cals']):.4g} ms:")
        print_table(unit_times("", extras["walls"]))
        tail = unit_times("cal_", calibrated(extras["walls"], extras["cals"]))["cal_unit_ms.tail"]
        print_table({"cal_unit_ms.tail (not gated)": tail})
        print(f"  gated metrics (cal_ = wall time x {1e3 * CAL_REFERENCE_S:g} ms / calibration):")
    print_table(extras["metrics"])
    if args.trace:
        print("share of traced unit time per layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(extras["shares"].items(), key=lambda item: -item[1])))
        print_baseline(args.workload, extras["metrics"])
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
