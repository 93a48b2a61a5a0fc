"""Self-test of the benchmark itself (not of cantorstring).

    python3 perfbench/selftest.py

Runs every workload at a tiny size for about a second and checks that

1. every metric BENCHMARK.json names is emitted with its declared unit, in
   the untraced (end-to-end) and the traced (per-layer) run, with no
   failed unit;
2. a deliberately corrupted output counts as failed, through an invariant
   at tiny size and, for branching-mc at seed 0, through a recorded digest
   alone;
3. traced and untraced runs of the same units give identical fingerprints;
4. in a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import run

SECONDS = 1.0

# one corruption per workload that an invariant check must catch
CORRUPT = {
    "spectrum-fine": lambda out: dict(out, slope=out["slope"] + 1.0),
    "bracket-deep": lambda out: dict(out, verdicts=[False] + out["verdicts"][1:]),
    "branching-mc": lambda out: dict(out, runs={name: dict(r, trace=r["trace"] + [-1.0])
                                                for name, r in out["runs"].items()}),
    "exponent-sweep": lambda out: dict(out, gamma_h=out["gamma_r"] + 1.0),
}


def quiet_run(name, seed, **kwargs):
    """run.run for a run expected to fail, without its FAILED lines on stderr."""
    with contextlib.redirect_stderr(io.StringIO()):
        return run.run(name, seed, SECONDS, False, **kwargs)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, extras = run.run(name, 1, SECONDS, trace, size="tiny")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared[kind], f"{name} trace={int(trace)}: {kind} metrics "
                   "and units match BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)}: no unit failed")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                        for v in result["metrics"].values()),
                   f"{name} trace={int(trace)}: every value is a finite number")
            if trace:
                pairs = extras["fingerprints"]
                expect(bool(pairs) and all(a == b for a, b in pairs),
                       f"{name}: traced and untraced fingerprints identical ({len(pairs)} units)")
        result, _ = quiet_run(name, 1, size="tiny", corrupt=CORRUPT[name])
        expect(not result["correct"] and result["failed"] >= 1,
               f"{name}: corrupted output counted as failed ({result['failed']} of "
               f"{result['attempted']})")

    # z + 1 keeps every invariant, so only the recorded seed-0 digest can catch it
    result, _ = quiet_run("branching-mc", 0, corrupt=lambda out: dict(out, runs={
        name: dict(r, z=r["z"] + 1) for name, r in out["runs"].items()}))
    expect(not result["correct"], "branching-mc seed 0: an output off by one fails the digest")

    bare = run.ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                                 "--seed", "1", "--seconds", "1",
                                                 "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(done.returncode != 0 and '"metrics"' not in done.stdout,
               f"bare directory: exit {done.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
