"""Command-line front end: models -> trees -> measures -> curves -> reports.

Commands: validate, exponent, curve, branching, compare. Every command is
a pure function of (config, files, seed): seeds only come from flags,
output files carry a model-digest/seed/version header, and re-running a
command reproduces its outputs byte for byte.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from . import branching as br
from . import exponent as ex
from .ifs import IfsModel, load_model, model_digest, random_model, validate_model
from .measure import CollapsedCells, atomize, leaf_cells
from .stieltjes import (StieltjesString, check_bracketing, counting_curve, depth_string,
                        export_curve_csv)
from .tree import StopRule, sample_tree

MAX_SEEDS = 1_000_000  # longest --seeds range (its list is built before any work) or --random
MAX_POINTS = 10_000  # most --grid / --z-points points; a numpy sweep block is 256 rows x all


def _header(model: IfsModel, seed) -> str:
    return f"# model={model_digest(model)} seed={seed} version={__version__}"


def _meta(model: Optional[IfsModel], seed) -> dict:
    return {"model_digest": model_digest(model) if model is not None else None,
            "seed": seed, "version": __version__}


def _fail(message: str) -> NoReturn:
    """Reject bad input: the message on stderr, exit status 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _load_model_or_exit(path: str) -> IfsModel:
    try:  # a malformed file (wrong shape or types) fails in parsing or in the checks
        model = load_model(path)
        violations = validate_model(model)
    except (OSError, ValueError, LookupError, TypeError, ArithmeticError) as err:
        _fail(f"cannot read model file {path}: {err}")
    if violations:
        _fail(f"invalid model file {path}:\n" + "\n".join(violations))
    return model


def _parse_grid(spec: str) -> np.ndarray:
    try:
        xmin_s, xmax_s, pts_s = spec.split(":")
        xmin, xmax, points = float(xmin_s), float(xmax_s), int(pts_s)
    except ValueError:
        _fail(f"grid must be XMIN:XMAX:POINTS, got {spec!r}")
    if not (0.0 < xmin < xmax < math.inf) or points < 2:
        _fail(f"grid needs 0 < XMIN < XMAX < inf and POINTS >= 2, got {spec!r}")
    if points > MAX_POINTS:
        _fail(f"--grid {spec!r} has more than {MAX_POINTS} points")
    return np.geomspace(xmin, xmax, points)


def _parse_seeds(text: str) -> List[int]:
    a, dots, b = text.partition("..")
    try:
        lo = int(a)
        hi = int(b) if dots else lo
    except ValueError:
        _fail(f"--seeds must be N or A..B, got {text!r}")
    if hi < lo:
        _fail(f"empty seed range {text!r}")
    if hi - lo >= MAX_SEEDS:
        _fail(f"seed range {text!r} has more than {MAX_SEEDS} seeds")
    return list(range(lo, hi + 1))


def _stop_rule(args) -> StopRule:
    if (args.depth is None) == (args.epsilon is None):
        _fail("exactly one of --depth / --epsilon is required")
    try:
        if args.depth is not None:
            return StopRule.depth(args.depth)
        return StopRule.resolution(args.epsilon)
    except ValueError as err:
        _fail(str(err))


def _write_json(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_all(outputs: Sequence[Tuple[Optional[str], Callable[[str], None]]]) -> None:
    """write(temporary) for each (path, write) with a path, then every temporary moved onto
    its path: an output that cannot be written leaves none of them behind."""
    staged = []
    try:
        for path, write in outputs:
            if path:
                if os.path.isdir(path):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                staged.append((f"{path}.{os.getpid()}.tmp", path))
                try:
                    write(staged[-1][0])
                except OSError as err:
                    raise OSError(err.errno, err.strerror, path) from err
        for temporary, path in staged:
            os.replace(temporary, path)
    finally:
        for temporary, _ in staged:
            if os.path.exists(temporary):
                os.remove(temporary)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    _load_model_or_exit(args.model)
    print("ok")
    return 0


def cmd_exponent(args) -> int:
    model = _load_model_or_exit(args.model)
    report = ex.build_report(model).to_dict()
    report["meta"] = _meta(model, None)
    _write_json(report, args.out)
    return 0


def cmd_curve(args) -> int:
    model = _load_model_or_exit(args.model)
    stop = _stop_rule(args)
    if args.check_bracketing and (stop.kind != "depth" or stop.value < 1):
        _fail("--check-bracketing requires --depth >= 1")
    grid = _parse_grid(args.grid)
    try:  # a tree past MAX_NODES, collapsed cells, or a link too short to count on
        tree = sample_tree(model, stop, args.seed)
        if stop.kind == "depth":
            string = depth_string(tree, stop.value)
        else:
            string = StieltjesString.from_measure(atomize(leaf_cells(tree)))
        verdicts = [check_bracketing(tree, stop.value, float(x))
                    for x in (grid if args.check_bracketing else ())]
    except CollapsedCells as err:
        _fail(f"{err}; lower --depth" if stop.kind == "depth" else f"{err}; raise --epsilon")
    except ValueError as err:
        _fail(str(err))
    samples = counting_curve(string, grid)
    export_curve_csv(samples, args.out, header=_header(model, args.seed),
                     boundary=args.boundary)
    for x, ok in zip(grid, verdicts):
        print(f"x={float(x)!r} bracketing={'true' if ok else 'false'}")
    return 0


def cmd_branching(args) -> int:
    model = _load_model_or_exit(args.model)
    if not 0.0 <= args.tmax < math.inf:
        _fail(f"--tmax must be finite and >= 0, got {args.tmax}")
    if not 1 <= args.z_points <= MAX_POINTS:
        _fail(f"--z-points must be in 1..{MAX_POINTS}, got {args.z_points}")
    seeds = [args.seed] if args.seed is not None else _parse_seeds(args.seeds)
    if args.stat != "mean-R" and len(seeds) != 1:
        _fail("event/martingale/z output needs a single --seed")
    alpha = ex.solve_recursive_exponent(model)
    try:  # a population past tree.MAX_NODES
        if args.stat == "mean-R":
            values = [v for run in br.forests(model, args.tmax, seeds, alpha)
                      for v in br.martingale_R_by_root(run, args.at_n, alpha)]
        else:
            run = br.simulate_population(model, args.tmax, seeds[0])
    except ValueError as err:
        _fail(str(err))
    if args.stat == "mean-R":
        if None in values:
            _fail(f"--at-n {args.at_n} is outside the population of seed "
                  f"{seeds[values.index(None)]} by --tmax {args.tmax}")
        arr = np.asarray(values)
        se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        _write_json({"stat": "mean-R", "n": args.at_n, "seeds": len(seeds),
                     "mean": float(arr.mean()), "stderr": se,
                     "meta": _meta(model, args.seeds if args.seed is None else str(args.seed))},
                    args.out)
        return 0
    header = _header(model, seeds[0])
    ts = np.linspace(0.0, args.tmax, args.z_points).tolist()
    _write_all([(args.out, lambda path: br.export_events_csv(run, path, header=header)),
                (args.martingale_out,
                 lambda path: br.export_martingale_csv(run, path, alpha, header=header)),
                (args.z_out, lambda path: br.export_z_csv(run, ts, alpha, path, header=header))])
    return 0


def cmd_compare(args) -> int:
    if args.random is not None and not 1 <= args.random <= MAX_SEEDS:  # a seed range too
        _fail(f"--random must be in 1..{MAX_SEEDS}, got {args.random}")
    if args.random:
        violations, worst_gap = 0, -math.inf
        tallies = {ex.EQUAL: 0, ex.STRICTLY_LESS: 0}
        for k in range(args.random):
            model = random_model(args.seed + k, balanced=(k % 4 == 0))
            gr = ex.solve_recursive_exponent(model)
            gh = ex.solve_homogeneous_exponent(model)
            verdict = ex.check_equality_condition(model)
            tallies[verdict] += 1
            worst_gap = max(worst_gap, gh - gr)
            violations += gh > gr + 1e-12
        _write_json({"models": args.random, "violations": violations,
                     "worst_gap": worst_gap, "equal": tallies[ex.EQUAL],
                     "strictly_less": tallies[ex.STRICTLY_LESS],
                     "meta": _meta(None, args.seed)},
                    args.out)
        return 0
    if not args.model:
        _fail("compare needs --model or --random N")
    model = _load_model_or_exit(args.model)
    gr = ex.solve_recursive_exponent(model)
    gh = ex.solve_homogeneous_exponent(model)
    _write_json({"gamma_r": gr, "gamma_h": gh, "difference": gr - gh,
                 "verdict": ex.check_equality_condition(model),
                 "meta": _meta(model, None)},
                args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorstring",
        description="Random recursive Cantor measures and their string spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file, exit 2 on violations")
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("exponent", help="spectral exponent report (JSON)")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_exponent)

    p = sub.add_parser("curve", help="counting curve of a sampled measure (CSV)")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--grid", default="1:1e6:60", help="XMIN:XMAX:POINTS geometric grid")
    p.add_argument("--boundary", choices=["dirichlet", "neumann", "both"], default="both")
    p.add_argument("--out", required=True)
    p.add_argument("--check-bracketing", action="store_true",
                   help="also verify the four-term chain at every grid point")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("branching", help="population event logs and martingale stats")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, help="single seed (overrides --seeds)")
    p.add_argument("--seeds", default="0", help="single seed N or range A..B")
    p.add_argument("--tmax", type=float, required=True)
    p.add_argument("--out", help="events CSV (single seed) or stat JSON")
    p.add_argument("--martingale-out")
    p.add_argument("--z-out")
    p.add_argument("--z-points", type=int, default=50)
    p.add_argument("--stat", choices=["mean-R"])
    p.add_argument("--at-n", type=int, default=50)
    p.set_defaults(fn=cmd_branching)

    p = sub.add_parser("compare", help="recursive vs homogeneous exponent")
    p.add_argument("--model")
    p.add_argument("--random", type=int, help="compare over N random models instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as err:  # the model file is read in _load_model_or_exit: an output failed
        _fail(f"cannot write {err.filename or 'output'}: {err.strerror or err}")


if __name__ == "__main__":
    sys.exit(main())
