"""CPU-speed calibration shared by the timed loop and the set-up probe.

On a shared machine the CPU speed a process gets drifts by tens of percent
over seconds. ``calibration_s`` times a fixed loop that shares no code with
cantorstring; a wall time multiplied by ``CAL_REFERENCE_S`` over the
calibration measured around it reads as if the loop had taken exactly
``CAL_REFERENCE_S``, which cancels most of that drift. A change to
cantorstring cannot move the loop.
"""
import math
from time import perf_counter

CAL_REFERENCE_S = 1e-3   # calibrated times read as if the calibration loop took this long
_MASK64 = (1 << 64) - 1


def calibration_s() -> float:
    """Best of three timings of the calibration loop.

    The loop mixes the four kinds of work the program's hot paths do:
    64-bit integer hashing (label draws), tuple and dict churn (trees and
    cells), float powers, logs and fsums (exponent solves, martingales) and
    small numpy array updates (Sturm sweeps), so its time follows the CPU
    speed the program gets.
    """
    import numpy as np  # not at module level: callers pin BLAS threads first

    best = math.inf
    for _ in range(3):
        start = perf_counter()
        z = 0
        for _ in range(1700):
            z = (z + 0x9E3779B97F4A7C15) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        table = {}
        for i in range(600):
            key = (i, i + 1, i + 2)
            table[key] = [key, i]
        for entry in table.values():
            entry[1] += 1
        powers = (0.1, 0.2, 0.3, 0.15)
        for i in range(300):
            math.log(math.fsum(q ** (0.3 + i * 1e-4) for q in powers))
        d = np.full(120, 2.0)
        for _ in range(170):
            d = 2.0 - 0.25 / d
        best = min(best, perf_counter() - start)
    return best
