"""Set-up cost of one cantorstring command, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py MODEL.json [MODEL.json ...]

Imports ``cantorstring.cli``, then loads and validates each model file and
solves gamma_r, which every command does before its real work. Prints one
JSON line: ``{"import_s": ..., "setup_s": ..., "calibration_s": ...}``; the
first two are measured from before the import, the last is the CPU-speed
calibration (``bench_calibrate.py``) timed right after them. ``run.py``
starts this with ``PYTHONPATH`` set to the checkout's ``src``; with
``-X importtime`` the same run also yields the import tree.
"""
import json
import sys
import time

start = time.perf_counter()
import cantorstring.cli  # noqa: E402,F401  (the import is what is being timed)

imported = time.perf_counter()
from cantorstring.exponent import solve_recursive_exponent  # noqa: E402
from cantorstring.ifs import load_model, validate_model  # noqa: E402

for path in sys.argv[1:]:
    model = load_model(path)
    if validate_model(model):
        sys.exit(f"invalid model file {path}")
    solve_recursive_exponent(model)
done = time.perf_counter()

from bench_calibrate import calibration_s  # noqa: E402  (after the timed part)

print(json.dumps({"import_s": imported - start, "setup_s": done - start,
                  "calibration_s": calibration_s()}))
