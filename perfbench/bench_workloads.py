"""The four benchmark workloads, one per computational shape of cantorstring.

Each workload runs, per unit, the same library call sequence as one
cantorstring CLI command, through the tracer so every call into a module
is a span. ``check`` validates one unit's output against invariants that
hold for any seed and, for seed 0 at full size, against digests recorded
in ``golden.json``. ``parity`` runs the real command through ``cli.main``
once, outside the timed phase, and byte-compares it with the warm-up
units' output, so the benchmark provably measures what users run.

Unit k of a run with workload seed s uses program seed ``s * SEED_STRIDE + k``
(for exponent-sweep: ``random_model(s * SEED_STRIDE + k)``, as
``compare --random N --seed s * SEED_STRIDE`` does).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from cantorstring import __version__, cli
from cantorstring.branching import martingale_trace, simulate_population, z_process
from cantorstring.estimator import fit_exponent, tail_statistics
from cantorstring.exponent import (EQUAL, build_report, check_equality_condition,
                                   solve_homogeneous_exponent, solve_recursive_exponent)
from cantorstring.ifs import load_model, model_digest, random_model, save_model, validate_model
from cantorstring.measure import atomize, build_cells, leaf_cells
from cantorstring.stieltjes import (StieltjesString, check_bracketing, count_dirichlet,
                                    counting_curve, dense_count, export_curve_csv)
from cantorstring.tree import StopRule, sample_tree

SEED_STRIDE = 1_000_000
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def tree_digest(tree) -> str:
    return sha(*(f"{a}:{tree.label_index(a)}" for a in sorted(tree.addresses())))


def curve_header(ctx: "Context", model_file: str, seed: int) -> str:
    return f"# model={ctx.digests[model_file]} seed={seed} version={__version__}"


def grid_spec(grid: Sequence[float]) -> str:
    """The --grid argument that makes the CLI rebuild exactly this geomspace."""
    return f"{float(grid[0])!r}:{float(grid[-1])!r}:{len(grid)}"


@dataclass
class Context:
    root: Path          # checkout root: holds src/ and models/
    work: Path          # scratch directory for CSV/JSON outputs, inside the checkout
    base: int           # program seed of unit 0
    params: dict        # size parameters of the workload
    golden: dict        # recorded fingerprints by unit index (seed 0, full size only)
    models: Dict[str, object] = field(default_factory=dict)
    digests: Dict[str, str] = field(default_factory=dict)
    gamma: Dict[str, float] = field(default_factory=dict)

    @property
    def grid(self) -> np.ndarray:
        lo, hi, n = self.params["grid"]
        return np.geomspace(lo, hi, n)

    def model_path(self, model_file: str) -> str:
        return str(self.root / "models" / model_file)


def _cli_main(argv: List[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code:
        raise RuntimeError(f"cli {argv[0]} exited {code}")
    return out.getvalue()


def run_cli(tr, *argv) -> str:
    """``cantorstring ARGV...`` through cli.main in-process; returns what it printed."""
    return tr.call("cli", "main", _cli_main, [str(a) for a in argv])


class Workload:
    name = ""
    model_files: Sequence[str] = ()
    warmup_units = 1   # untimed units at the start; parity compares their output
    golden_units = 0   # units 0..golden_units-1 have recorded fingerprints
    sizes: Dict[str, dict] = {}

    def prepare(self, ctx: Context, tr) -> None:
        """Load and validate the model files and solve gamma_r, as every command does."""
        for name in self.model_files:
            model = tr.call("ifs", "load_model", load_model, ctx.model_path(name))
            violations = tr.call("ifs", "validate_model", validate_model, model)
            if violations:
                raise ValueError(f"{name}: {violations}")
            ctx.models[name] = model
            ctx.digests[name] = model_digest(model)
            ctx.gamma[name] = tr.call("exponent", "solve_recursive_exponent",
                                      solve_recursive_exponent, model)
            tr.add("exponent.models", 1)

    def unit(self, ctx: Context, k: int, tr) -> dict:
        raise NotImplementedError

    def fingerprint(self, out: dict) -> Dict[str, str]:
        raise NotImplementedError

    def invariants(self, ctx: Context, k: int, out: dict) -> List[str]:
        raise NotImplementedError

    def check(self, ctx: Context, k: int, out: dict) -> List[str]:
        problems = self.invariants(ctx, k, out)
        want = ctx.golden.get(str(k))
        if want is not None:
            got = self.fingerprint(out)
            problems += [f"unit {k}: {key} digest {got.get(key)} != recorded {value}"
                         for key, value in want.items() if got.get(key) != value]
        return problems

    def parity(self, ctx: Context, warm: List[dict], tr) -> List[str]:
        raise NotImplementedError

    def oracle(self, ctx: Context, warm: List[dict]) -> List[str]:
        return []


def _curve_counts_problems(k: int, samples, grid) -> List[str]:
    problems = []
    if [s.x for s in samples] != [float(x) for x in grid]:
        problems.append(f"unit {k}: curve shifts differ from the grid")
    nd = np.array([s.count_dirichlet for s in samples])
    nn = np.array([s.count_neumann for s in samples])
    gap = nn - nd
    if gap.min() < 0 or gap.max() > 2:
        problems.append(f"unit {k}: N_N - N_D outside {{0,1,2}}: {sorted(set(gap.tolist()))}")
    if np.any(np.diff(nd) < 0) or np.any(np.diff(nn) < 0):
        problems.append(f"unit {k}: counting curve decreases")
    return problems


def _csv_problems(k: int, csv: bytes, header: str, rows: int) -> List[str]:
    lines = csv.decode().splitlines()
    if lines[:2] != [header, "x,N_D,N_N"] or len(lines) != rows + 2:
        return [f"unit {k}: curve CSV has a wrong header or {len(lines) - 2} rows"]
    return []


class SpectrumFine(Workload):
    """C7 shape, `curve --epsilon`: one long string swept over many shifts."""

    name = "spectrum-fine"
    model_files = ("third-fifth.json",)
    golden_units = 3
    sizes = {"full": {"epsilon": 1e-6, "grid": (1.0, 1e9, 120)},
             "tiny": {"epsilon": 1e-4, "grid": (1.0, 1e7, 60)}}
    model = "third-fifth.json"

    def unit(self, ctx, k, tr):
        seed = ctx.base + k
        model = ctx.models[self.model]
        grid = ctx.grid
        tree = tr.call("tree", "sample_tree", sample_tree, model,
                       StopRule.resolution(ctx.params["epsilon"]), seed)
        cells = tr.call("measure", "leaf_cells", leaf_cells, tree)
        atoms = tr.call("measure", "atomize", atomize, cells)
        string = tr.call("stieltjes", "string", StieltjesString.from_measure, atoms)
        samples = tr.call("stieltjes", "counting_curve", counting_curve, string, grid)
        path = ctx.work / f"{self.name}.csv"
        tr.call("stieltjes", "export_curve_csv", export_curve_csv, samples, path,
                header=curve_header(ctx, self.model, seed), boundary="both")
        csv = path.read_bytes()
        curve = [(s.x, s.count_dirichlet) for s in samples]
        slope, stderr = tr.call("estimator", "fit_exponent", fit_exponent, curve)
        tail = tr.call("estimator", "tail_statistics", tail_statistics, curve,
                       ctx.gamma[self.model])
        if tr.enabled:
            tr.add("tree.nodes", len(tree))
            tr.add("measure.cells", len(cells.cells))
            tr.add("stieltjes.atoms", string.n)
            tr.add("stieltjes.atom_shifts", string.n * len(grid) * 2)
            tr.add("stieltjes.csv_bytes", len(csv))
        return {"seed": seed, "tree": tree, "samples": samples, "csv": csv,
                "slope": slope, "stderr": stderr, "tail": tail}

    def fingerprint(self, out):
        return {"tree": tree_digest(out["tree"]),
                "counts": sha(*((s.count_dirichlet, s.count_neumann) for s in out["samples"])),
                "csv": sha(out["csv"]),
                "fit": sha(out["slope"], out["stderr"], out["tail"])}

    def invariants(self, ctx, k, out):
        problems = _curve_counts_problems(k, out["samples"], ctx.grid)
        problems += _csv_problems(k, out["csv"], curve_header(ctx, self.model, out["seed"]),
                                  len(ctx.grid))
        gamma = ctx.gamma[self.model]
        if not abs(out["slope"] - gamma) <= 0.05:
            problems.append(f"unit {k}: slope {out['slope']!r} not within 0.05 of {gamma!r}")
        return problems

    def parity(self, ctx, warm, tr):
        out = warm[0]
        path = ctx.work / "cli-curve.csv"
        run_cli(tr, "curve", "--model", ctx.model_path(self.model), "--seed", out["seed"],
                "--epsilon", repr(ctx.params["epsilon"]), "--grid", grid_spec(ctx.grid),
                "--boundary", "both", "--out", path)
        if path.read_bytes() != out["csv"]:
            return ["parity: `cantorstring curve --epsilon` CSV differs from unit 0"]
        return []


class BracketDeep(Workload):
    """C6 shape, `curve --depth 8 --check-bracketing`: many short strings, one shift each."""

    name = "bracket-deep"
    model_files = ("third-fifth.json",)
    golden_units = 3
    sizes = {"full": {"depth": 8, "grid": (1.0, 1e6, 12)},
             "tiny": {"depth": 4, "grid": (1.0, 1e4, 12)}}
    model = "third-fifth.json"

    def unit(self, ctx, k, tr):
        seed = ctx.base + k
        depth = ctx.params["depth"]
        model = ctx.models[self.model]
        grid = ctx.grid
        tree = tr.call("tree", "sample_tree", sample_tree, model, StopRule.depth(depth), seed)
        cells = tr.call("measure", "build_cells", build_cells, tree, depth)
        atoms = tr.call("measure", "atomize", atomize, cells)
        string = tr.call("stieltjes", "string", StieltjesString.from_measure, atoms)
        samples = tr.call("stieltjes", "counting_curve", counting_curve, string, grid)
        path = ctx.work / f"{self.name}.csv"
        tr.call("stieltjes", "export_curve_csv", export_curve_csv, samples, path,
                header=curve_header(ctx, self.model, seed), boundary="both")
        csv = path.read_bytes()
        verdicts = [tr.call("stieltjes", "check_bracketing", check_bracketing,
                            tree, depth, float(x)) for x in grid]
        report = "".join(f"x={float(x)!r} bracketing={'true' if ok else 'false'}\n"
                         for x, ok in zip(grid, verdicts))
        if tr.enabled:
            pieces = 1 + tree.letter_at(()).n_maps  # whole string + one per root child
            tr.add("tree.nodes", len(tree))
            tr.add("measure.cells", len(cells.cells))
            tr.add("stieltjes.atoms", string.n)
            tr.add("stieltjes.atom_shifts", string.n * len(grid) * 2)
            tr.add("stieltjes.csv_bytes", len(csv))
            tr.add("stieltjes.bracket_strings_built", len(grid) * pieces)
            tr.add("stieltjes.bracket_strings_distinct", pieces)
        return {"seed": seed, "tree": tree, "string": string, "samples": samples,
                "csv": csv, "verdicts": verdicts, "report": report}

    def fingerprint(self, out):
        return {"tree": tree_digest(out["tree"]),
                "counts": sha(*((s.count_dirichlet, s.count_neumann) for s in out["samples"])),
                "csv": sha(out["csv"]),
                "bracketing": sha(out["report"])}

    def invariants(self, ctx, k, out):
        problems = _curve_counts_problems(k, out["samples"], ctx.grid)
        problems += _csv_problems(k, out["csv"], curve_header(ctx, self.model, out["seed"]),
                                  len(ctx.grid))
        if not all(out["verdicts"]):
            problems.append(f"unit {k}: bracketing chain fails at "
                            f"{sum(not v for v in out['verdicts'])} shifts")
        return problems

    def parity(self, ctx, warm, tr):
        out = warm[0]
        path = ctx.work / "cli-bracket.csv"
        printed = run_cli(tr, "curve", "--model", ctx.model_path(self.model),
                          "--seed", out["seed"], "--depth", ctx.params["depth"],
                          "--grid", grid_spec(ctx.grid), "--out", path, "--check-bracketing")
        problems = []
        if path.read_bytes() != out["csv"]:
            problems.append("parity: `cantorstring curve --depth` CSV differs from unit 0")
        if printed != out["report"]:
            problems.append("parity: `--check-bracketing` lines differ from unit 0")
        return problems

    def oracle(self, ctx, warm):
        """Sturm counts of one string against the dense tridiagonal eigensolver."""
        string = warm[0]["string"]
        problems = []
        for x in ctx.grid[::3]:
            fast = count_dirichlet(string, float(x))
            dense = dense_count(string, float(x), "dirichlet")
            if fast != dense:
                problems.append(f"oracle: count_dirichlet {fast} != dense_count {dense} "
                                f"at x={x!r}")
        return problems


class BranchingMC(Workload):
    """C8/C9 shape, `branching --stat mean-R`: population, martingale and z process."""

    name = "branching-mc"
    # every unit runs its seed on both models: the non-lattice one and the
    # lattice one, whose simultaneous births exercise the tie order
    model_files = ("third-fifth.json", "middle-third.json")
    golden_units = 20
    sizes = {"full": {"tmax": 14.0, "t_z": 12.0, "at_n": 50, "z_points": 8}}
    sizes["tiny"] = sizes["full"]

    def unit(self, ctx, k, tr):
        seed = ctx.base + k
        p = ctx.params
        runs = {}
        for name in self.model_files:
            run = tr.call("branching", "simulate_population", simulate_population,
                          ctx.models[name], p["tmax"], seed)
            trace = tr.call("branching", "martingale_trace", martingale_trace, run,
                            ctx.gamma[name])
            z = tr.call("branching", "z_process", z_process, run, p["t_z"])
            if tr.enabled:
                events = run.events
                tr.add("branching.births", len(events))
                tr.add("branching.tie_births",
                       sum(a.sigma == b.sigma for a, b in zip(events, events[1:])))
            runs[name] = {"trace": trace, "z": z}
        return {"seed": seed, "runs": runs}

    def fingerprint(self, out):
        prints = {}
        for name, r in out["runs"].items():
            trace = r["trace"]
            prints[f"{name}:R_50"] = repr(trace[50]) if len(trace) > 50 else "short"
            prints[f"{name}:z"] = repr(r["z"])
            prints[f"{name}:trace"] = sha(*trace)
        return prints

    def invariants(self, ctx, k, out):
        problems = []
        for name, r in out["runs"].items():
            trace = r["trace"]
            if not len(trace) > ctx.params["at_n"]:
                problems.append(f"unit {k} {name}: martingale trace has only {len(trace)} values")
            if not min(trace) >= 0.0:
                problems.append(f"unit {k} {name}: R_n < 0")
            if not r["z"] >= 0:
                problems.append(f"unit {k} {name}: z < 0")
        return problems

    def parity(self, ctx, warm, tr):
        p = ctx.params
        out = warm[0]
        problems = []
        for name, r in out["runs"].items():
            mpath, zpath = ctx.work / "cli-mart.csv", ctx.work / "cli-z.csv"
            run_cli(tr, "branching", "--model", ctx.model_path(name), "--seed", out["seed"],
                    "--tmax", repr(p["tmax"]), "--martingale-out", mpath,
                    "--z-out", zpath, "--z-points", p["z_points"])
            header = curve_header(ctx, name, out["seed"])
            mine = "\n".join([header, "n,R_n"] + [f"{n},{v!r}" for n, v in
                                                  enumerate(r["trace"])]) + "\n"
            if mpath.read_text() != mine:
                problems.append(f"parity: `branching --martingale-out` differs ({name})")
            rows = [line.split(",") for line in zpath.read_text().splitlines()[2:]]
            if [int(z) for t, z, _ in rows if float(t) == p["t_z"]] != [r["z"]]:
                problems.append(f"parity: `branching --z-out` at t={p['t_z']} differs ({name})")
        return problems


class ExponentSweep(Workload):
    """C3 shape, `compare --random` plus `exponent`: many tiny models, per-call overhead."""

    name = "exponent-sweep"
    model_files = ("third-fifth.json",)
    warmup_units = 8
    golden_units = 40
    sizes = {"full": {}, "tiny": {}}

    def unit(self, ctx, k, tr):
        seed = ctx.base + k
        model = tr.call("ifs", "random_model", random_model, seed, balanced=(k % 4 == 0))
        gamma_r = tr.call("exponent", "solve_recursive_exponent", solve_recursive_exponent, model)
        gamma_h = tr.call("exponent", "solve_homogeneous_exponent",
                          solve_homogeneous_exponent, model)
        verdict = tr.call("exponent", "check_equality_condition", check_equality_condition, model)
        report = tr.call("exponent", "build_report", build_report, model)
        tr.add("exponent.models", 1)
        return {"seed": seed, "balanced": k % 4 == 0, "model": model, "gamma_r": gamma_r,
                "gamma_h": gamma_h, "verdict": verdict, "report": report}

    def fingerprint(self, out):
        return {"gamma_r": repr(out["gamma_r"]), "gamma_h": repr(out["gamma_h"]),
                "verdict": out["verdict"],
                "report": sha(json.dumps(out["report"].to_dict(), sort_keys=True))}

    def invariants(self, ctx, k, out):
        problems = []
        gr, gh, report = out["gamma_r"], out["gamma_h"], out["report"]
        if not (0.0 < gr and gh <= gr + 1e-12):
            problems.append(f"unit {k}: gamma_h {gh!r} > gamma_r {gr!r}")
        if out["balanced"] and out["verdict"] != EQUAL:
            problems.append(f"unit {k}: balanced model compares {out['verdict']}")
        if (report.gamma_r, report.gamma_h, report.comparison) != (gr, gh, out["verdict"]):
            problems.append(f"unit {k}: build_report disagrees with the direct solves")
        return problems

    def parity(self, ctx, warm, tr):
        problems = []
        path = ctx.work / "cli-compare.json"
        run_cli(tr, "compare", "--random", len(warm), "--seed", ctx.base, "--out", path)
        gaps = [o["gamma_h"] - o["gamma_r"] for o in warm]
        mine = {"models": len(warm),
                "violations": sum(o["gamma_h"] > o["gamma_r"] + 1e-12 for o in warm),
                "worst_gap": max([-math.inf] + gaps),
                "equal": sum(o["verdict"] == EQUAL for o in warm),
                "strictly_less": sum(o["verdict"] != EQUAL for o in warm),
                "meta": {"model_digest": None, "seed": ctx.base, "version": __version__}}
        if path.read_text() != json.dumps(mine, indent=2, sort_keys=True) + "\n":
            problems.append("parity: `cantorstring compare --random` differs from warm-up units")
        out = warm[0]
        model_path, path = ctx.work / "random-model.json", ctx.work / "cli-exponent.json"
        save_model(out["model"], model_path)
        run_cli(tr, "exponent", "--model", model_path, "--out", path)
        mine = dict(out["report"].to_dict(), meta={"model_digest": model_digest(out["model"]),
                                                   "seed": None, "version": __version__})
        if path.read_text() != json.dumps(mine, indent=2, sort_keys=True) + "\n":
            problems.append("parity: `cantorstring exponent` differs from unit 0's report")
        return problems


WORKLOADS = {w.name: w for w in (SpectrumFine(), BracketDeep(), BranchingMC(), ExponentSweep())}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
