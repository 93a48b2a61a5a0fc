"""Record the output fingerprints that ``run.py --seed 0`` compares against.

    python3 perfbench/record_golden.py

Runs units 0..golden_units-1 of every workload at seed 0 and full size and
writes their fingerprints (tree labels, integer counts, CSV bytes, R_50/z
and gamma_r/gamma_h reprs) to ``perfbench/golden.json``. Re-record only
when a change is meant to alter the program's numerical output.
"""
import json
import shutil
import sys

import run
from bench_trace import NullTracer


def main() -> int:
    bw = run.import_program()

    golden = {}
    run.WORK.mkdir(exist_ok=True)
    try:
        for name, wl in bw.WORKLOADS.items():
            ctx = bw.Context(root=run.ROOT, work=run.WORK, base=0, params=wl.sizes["full"],
                             golden={})
            wl.prepare(ctx, NullTracer())
            golden[name] = {}
            for k in range(wl.golden_units):
                out = wl.unit(ctx, k, NullTracer())
                problems = wl.check(ctx, k, out)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                golden[name][str(k)] = wl.fingerprint(out)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    bw.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
