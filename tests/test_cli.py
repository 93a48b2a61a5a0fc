"""Command-line pipeline: files in, files out, reproducible to the byte.

Core claims:
    - validate accepts shipped models and exits 2 with the violation text
      for corrupted ones (a product r_i w_i that underflows to 0 included, in
      every command; an infinite interval end or a NaN map offset in validate,
      exponent and curve), and exits 2 naming the file for malformed ones
    - exponent reports the literature value for the third-fifth model and
      1/2 for the Lebesgue-like model
    - curve CSVs respect the gap invariant, carry the digest header, and
      are byte-identical across re-runs; a tree past MAX_NODES or a string
      with an overflowing link (interior or boundary) exits 2 before any
      file is written, and so do cells collapsed below the float spacing,
      naming --depth or --epsilon, and bracketing pieces whose first atom
      rounds onto its cell's end; a depth of 2^64 is refused at the node
      budget without growing the tree
    - --check-bracketing reports true on every grid point
    - branching writes event/martingale/z files; mean-R over seeds is near 1
      and its meta names the seed that ran;
      a population past MAX_NODES exits 2 naming --tmax, and a mean-R batch
      whose forest is past it is regrown seed by seed to the same bytes
    - an output path that cannot be written (a missing directory, or a directory)
      exits 2 naming it, for every output flag, and leaves none of the command's
      outputs behind (an existing file keeps its bytes)
    - compare rules strictly-less on third-fifth and finds zero violations
      on a random batch
    - curve, exponent and branching run in an interpreter where importing
      scipy fails, and importing the package imports no scipy
"""
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest

from cantorstring.cli import main

from conftest import GAMMA_R_THIRD_FIFTH


def run_cli(args):
    return main([str(a) for a in args])


def forbid(monkeypatch, module, name):
    """Make module.name fail if called: bad input must be rejected before it
    runs (an unchecked zero epsilon or infinite horizon would never stop)."""
    def called(*args, **kwargs):
        raise AssertionError(f"{name} ran before the input was rejected")
    monkeypatch.setattr(module, name, called)


def forbid_growth(monkeypatch, branching):
    """Forbid growing a population, one seed or a forest of them."""
    for name in ("simulate_population", "simulate_populations"):
        forbid(monkeypatch, branching, name)


@pytest.fixture
def tf_model(models_dir):
    return models_dir / "third-fifth.json"


class TestValidate:
    def test_ok(self, tf_model, capsys):
        assert run_cli(["validate", "--model", tf_model]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_corrupted_weights_exit_2(self, tmp_path, tf_model, capsys):
        data = json.loads(tf_model.read_text())
        data["letters"][0]["weights"] = [0.6, 0.6]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as err:
            run_cli(["validate", "--model", bad])
        assert err.value.code == 2
        assert "sum" in capsys.readouterr().err

    def test_unreadable_file_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["validate", "--model", tmp_path / "missing.json"])
        assert err.value.code == 2

    @pytest.mark.parametrize("corrupt", [
        lambda d: d["letters"][0].update(maps=[], weights=[]),
        lambda d: d["letters"][0]["maps"][0].update(r="abc"),
        lambda d: d.update(interval=[0]),
        lambda d: d.update(interval=[0.0, 1.0, 7.0]),
        lambda d: d["letters"][0].update(prob=None),
        lambda d: d["letters"][0]["maps"].__setitem__(0, [0.3, 0.0]),
        lambda d: d["letters"],  # the file holds the letter list, not the model
    ], ids=["empty-letter", "string-ratio", "short-interval", "long-interval", "null-prob",
            "list-map", "top-level-list"])
    def test_malformed_file_exit_2(self, tmp_path, tf_model, capsys, corrupt):
        data = json.loads(tf_model.read_text())
        bad, out = tmp_path / "bad.json", tmp_path / "report.json"
        bad.write_text(json.dumps(corrupt(data) or data))
        for command in (["validate"], ["exponent", "--out", out]):
            with pytest.raises(SystemExit) as err:
                run_cli([*command, "--model", bad])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert str(bad) in captured.err and captured.out == ""
            assert not out.exists()

    def test_underflowing_product_exit_2(self, tmp_path, capsys):
        from cantorstring import make_letter, save_model, single_letter_model
        model, out = tmp_path / "underflow.json", tmp_path / "out"
        # r_1 w_1 = 1e-200 * 1e-200 is 0.0 in floats: its birth offset -log(r_1 w_1) is inf
        save_model(single_letter_model(make_letter(
            "u", [(1e-200, 0.0), (0.3, 0.35), (0.3, 0.7)], (1e-200, 0.5, 0.5))), model)
        for command in (["validate"], ["exponent", "--out", out], ["compare", "--out", out],
                        ["curve", "--depth", 2, "--out", out],
                        ["branching", "--tmax", 4, "--out", out]):
            with pytest.raises(SystemExit) as err:
                run_cli([*command, "--model", model])
            assert err.value.code == 2
            assert "letter 'u' map 1: product" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("corrupt, violation", [
        (lambda d: d.update(interval=[0, math.inf]),
         "interval: endpoints 0.0, inf must be finite"),
        (lambda d: d["letters"][1]["maps"][1].update(c=math.nan),
         "letter 'fifth' map 2: offset nan is not finite"),
        # maps pinned to the ends pass every letter check; curve --epsilon then walked to
        # the node budget from an infinite root length
        (lambda d: d.update(interval=[-1e308, 1e308], letters=[
            {"id": "A", "prob": 1, "weights": [0.5, 0.5],
             "maps": [{"r": 0.25, "c": -7.5e307}, {"r": 0.25, "c": 7.5e307}]}]),
         "interval: b - a and a + b must be finite, got [-1e+308, 1e+308]"),
    ], ids=["infinite-interval", "nan-offset", "overflowing-interval"])
    def test_non_finite_model_exit_2(self, tmp_path, tf_model, capsys, corrupt, violation):
        # each passed validate, and curve then blamed --depth for collapsed cells
        data = json.loads(tf_model.read_text())
        corrupt(data)
        bad, out = tmp_path / "bad.json", tmp_path / "out"
        bad.write_text(json.dumps(data))
        for command in (["validate"], ["exponent", "--out", out],
                        ["curve", "--depth", 3, "--out", out],
                        ["curve", "--epsilon", 1e300, "--out", out]):
            with pytest.raises(SystemExit) as err:
                run_cli([*command, "--model", bad])
            assert err.value.code == 2
            captured = capsys.readouterr()
            assert violation in captured.err and captured.out == ""
            assert not out.exists()


class TestExponent:
    def test_third_fifth_report(self, tf_model, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["exponent", "--model", tf_model, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["gamma_r"] == pytest.approx(GAMMA_R_THIRD_FIFTH, abs=1e-12)
        assert payload["gamma_r"] == pytest.approx(0.396403, abs=1e-5)
        assert payload["comparison"] == "strictly-less"
        assert payload["meta"]["model_digest"]

    def test_lebesgue_exponents(self, models_dir, tmp_path):
        out = tmp_path / "report.json"
        run_cli(["exponent", "--model", models_dir / "lebesgue.json", "--out", out])
        payload = json.loads(out.read_text())
        assert payload["gamma_r"] == pytest.approx(0.5, abs=1e-12)
        assert payload["gamma_h"] == pytest.approx(0.5, abs=1e-12)
        assert payload["comparison"] == "equal"

    def test_deterministic(self, tf_model, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(["exponent", "--model", tf_model, "--out", a])
        run_cli(["exponent", "--model", tf_model, "--out", b])
        assert a.read_bytes() == b.read_bytes()


class TestCurve:
    def test_gap_invariant_and_header(self, models_dir, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli(["curve", "--model", models_dir / "lebesgue.json", "--seed", 0,
                 "--depth", 7, "--grid", "1:1e4:50", "--out", out])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# model=") and "seed=0" in lines[0]
        assert lines[1] == "x,N_D,N_N"
        for line in lines[2:]:
            _, nd, nn = line.split(",")
            assert 0 <= int(nn) - int(nd) <= 2

    def test_deterministic_replay(self, tf_model, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli(["curve", "--model", tf_model, "--seed", 42, "--depth", 6,
                     "--grid", "1:1e5:30", "--out", out])
        assert a.read_bytes() == b.read_bytes()

    def test_bracketing_flag(self, tf_model, tmp_path, capsys):
        run_cli(["curve", "--model", tf_model, "--seed", 3, "--depth", 4,
                 "--grid", "1:1e4:6", "--out", tmp_path / "c.csv",
                 "--check-bracketing"])
        out = capsys.readouterr().out
        assert out.count("bracketing=true") == 6
        assert "bracketing=false" not in out

    def test_epsilon_pipeline(self, tf_model, tmp_path):
        out = tmp_path / "c.csv"
        run_cli(["curve", "--model", tf_model, "--seed", 1, "--epsilon", "1e-3",
                 "--grid", "1:1e5:20", "--out", out])
        assert len(out.read_text().splitlines()) == 22

    def test_requires_exactly_one_stop_rule(self, tf_model, tmp_path, monkeypatch):
        from cantorstring import cli
        forbid(monkeypatch, cli, "sample_tree")
        out = tmp_path / "c.csv"
        for stop in ([], ["--depth", 3, "--epsilon", "0.1"], ["--depth", -1],
                     ["--epsilon", "0"], ["--epsilon", "-1e-3"], ["--epsilon", "nan"]):
            with pytest.raises(SystemExit) as err:
                run_cli(["curve", "--model", tf_model, "--seed", 1, *stop,
                         "--grid", "1:1e5:20", "--out", out])
            assert err.value.code == 2
            assert not out.exists()

    def test_node_budget_exit_2(self, tf_model, tmp_path, monkeypatch, capsys):
        from cantorstring import tree
        monkeypatch.setattr(tree, "MAX_NODES", 100)
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["curve", "--model", tf_model, "--seed", 1, "--epsilon", "1e-4",
                     "--grid", "1:1e5:20", "--out", out])
        assert err.value.code == 2
        assert "100 nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_unbounded_depth_refused_without_growing(self, tf_model, tmp_path, monkeypatch,
                                                     capsys):
        from cantorstring import _native, tree
        forbid(monkeypatch, tree, "_grow_numpy")
        walked = mock.Mock(side_effect=AssertionError("the tree was walked"))
        out = tmp_path / "c.csv"
        for library in (mock.Mock(grow_count=walked, grow_fill=walked), None):
            monkeypatch.setattr(_native, "library", lambda: library)
            with pytest.raises(SystemExit) as err:
                run_cli(["curve", "--model", tf_model, "--depth", 2**64, "--out", out])
            assert err.value.code == 2
            assert capsys.readouterr().err == ("tree would exceed 10000000 nodes; "
                                               "use a larger epsilon or a smaller depth\n")
            assert not out.exists()

    def test_overflowing_link_exit_2(self, tmp_path, capsys):
        from cantorstring import make_letter, save_model, single_letter_model
        model = tmp_path / "tiny.json"
        # at depth 2 two atoms sit 0.75e-160 apart, and 1/l**2 overflows
        save_model(single_letter_model(make_letter("tiny", [(1e-160, 0.0), (0.5, 0.5)],
                                                   (0.5, 0.5))), model)
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["curve", "--model", model, "--seed", 0, "--depth", 2,
                     "--grid", "1:1e3:5", "--out", out])
        assert err.value.code == 2
        assert "link" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_boundary_link_exit_2(self, tmp_path, capsys):
        from cantorstring import make_letter, save_model, single_letter_model
        model = tmp_path / "sub.json"
        # at depth 1 the first atom sits 5e-311 from the left end: 1/l is inf
        save_model(single_letter_model(make_letter("sub", [(1e-310, 0.0), (0.5, 0.5)],
                                                   (0.5, 0.5))), model)
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["curve", "--model", model, "--seed", 0, "--depth", 1,
                     "--grid", "1:1e3:5", "--out", out])
        assert err.value.code == 2
        assert "link" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_rejected(self, tf_model, tmp_path, capsys, monkeypatch):
        from cantorstring import cli
        out = tmp_path / "c.csv"
        with monkeypatch.context() as patch:
            forbid(patch, cli, "sample_tree")
            for grid in ("5:1:10", "0:10:5", "1:1e3:1", "nonsense", "1:inf:4", "nan:10:5",
                         "1:10:1000000000", f"1:10:{cli.MAX_POINTS + 1}"):
                with pytest.raises(SystemExit) as err:
                    run_cli(["curve", "--model", tf_model, "--seed", 1, "--depth", 3,
                             "--grid", grid, "--out", out])
                assert err.value.code == 2
                assert not out.exists()
            # an oversized point count names the flag and the limit
            assert f"--grid '1:10:{cli.MAX_POINTS + 1}'" in capsys.readouterr().err
        assert run_cli(["curve", "--model", tf_model, "--seed", 1, "--depth", 2,
                        "--grid", f"1:10:{cli.MAX_POINTS}", "--out", out]) == 0
        assert len(out.read_text().splitlines()) == cli.MAX_POINTS + 2

    def test_bracketing_without_depth_exit_2(self, tf_model, tmp_path, capsys):
        out = tmp_path / "c.csv"
        for stop in (["--epsilon", "0.1"], ["--depth", 0]):
            with pytest.raises(SystemExit) as err:
                run_cli(["curve", "--model", tf_model, "--seed", 1, *stop,
                         "--grid", "1:1e3:5", "--out", out, "--check-bracketing"])
            assert err.value.code == 2
            assert "--depth >= 1" in capsys.readouterr().err
            assert not out.exists()

    def test_bracketing_builds_whole_string_once(self, tf_model, tmp_path, monkeypatch):
        from cantorstring import cli, stieltjes

        real = stieltjes.build_cells
        depths = []

        def counting(tree, n):
            depths.append(n)
            return real(tree, n)

        monkeypatch.setattr(stieltjes, "build_cells", counting)
        monkeypatch.setattr(cli, "build_cells", counting, raising=False)
        run_cli(["curve", "--model", tf_model, "--seed", 3, "--depth", 5,
                 "--grid", "1:1e4:8", "--out", tmp_path / "c.csv", "--check-bracketing"])
        assert depths.count(5) == 1  # the pieces are cut from it, on the depth-1 cells

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_collapsed_cells_exit_2(self, tmp_path, capsys, seed):
        from cantorstring import random_model, save_model
        model = tmp_path / "thin.json"
        # map ratios 0.0032: at depth 8 (or epsilon 1e-16) cells near 1.0 fall
        # below the float spacing
        save_model(random_model(10, balanced=True), model)
        out = tmp_path / "c.csv"
        for stop, expected in ((["--depth", 8], "at depth 8 collapsed below float spacing"),
                               (["--depth", 8, "--check-bracketing"], "; lower --depth"),
                               (["--epsilon", "1e-16"], "; raise --epsilon")):
            with pytest.raises(SystemExit) as err:
                run_cli(["curve", "--model", model, "--seed", seed, *stop,
                         "--grid", "1:1e3:5", "--out", out])
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert "collapsed below float spacing" in message and expected in message
            assert not out.exists()
        for stop in (["--depth", 6, "--check-bracketing"], ["--epsilon", "1e-15"]):
            assert run_cli(["curve", "--model", model, "--seed", seed, *stop,
                            "--grid", "1:1e3:5", "--out", out]) == 0

    def test_collapsed_pieces_exit_2(self, tmp_path, capsys):
        from cantorstring import random_model, save_model
        model = tmp_path / "thin.json"
        # map ratios 0.0068: the depth-8 string counts, but a root child's first atom
        # rounds onto its cell's left end, where the bracketing sums would read false
        save_model(random_model(2, balanced=True), model)
        out = tmp_path / "c.csv"
        args = ["curve", "--model", model, "--seed", 0, "--out", out]
        with pytest.raises(SystemExit) as err:
            run_cli([*args, "--depth", 8, "--check-bracketing"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "at depth 8 collapsed below float spacing" in message
        assert message.rstrip().endswith("; lower --depth")
        assert not out.exists()
        for stop in (["--depth", 8], ["--depth", 7, "--check-bracketing"]):
            assert run_cli([*args, *stop]) == 0
        assert "false" not in capsys.readouterr().out

    def test_boundary_selection(self, tf_model, tmp_path):
        out = tmp_path / "c.csv"
        run_cli(["curve", "--model", tf_model, "--seed", 2, "--depth", 4,
                 "--grid", "1:1e3:10", "--boundary", "dirichlet", "--out", out])
        assert out.read_text().splitlines()[1] == "x,N_D"


class TestBranching:
    def test_horizon_zero_single_event(self, tf_model, tmp_path):
        out = tmp_path / "events.csv"
        run_cli(["branching", "--model", tf_model, "--seed", 5, "--tmax", 0,
                 "--out", out])
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # header, columns, ancestor
        assert lines[2].startswith("0,,0.0,")

    def test_all_outputs_deterministic(self, tf_model, tmp_path):
        names = ("events.csv", "mart.csv", "z.csv")
        for prefix in ("a", "b"):
            run_cli(["branching", "--model", tf_model, "--seed", 9, "--tmax", 6,
                     "--out", tmp_path / f"{prefix}_events.csv",
                     "--martingale-out", tmp_path / f"{prefix}_mart.csv",
                     "--z-out", tmp_path / f"{prefix}_z.csv"])
        for name in names:
            assert ((tmp_path / f"a_{name}").read_bytes()
                    == (tmp_path / f"b_{name}").read_bytes())

    def test_mean_r_stat(self, tf_model, tmp_path):
        out = tmp_path / "stat.json"
        run_cli(["branching", "--model", tf_model, "--seeds", "0..199",
                 "--tmax", 12, "--stat", "mean-R", "--at-n", 30, "--out", out])
        payload = json.loads(out.read_text())
        assert payload["seeds"] == 200
        assert abs(payload["mean"] - 1.0) <= 4 * payload["stderr"]

    def test_mean_r_meta_names_the_seed_run(self, tf_model, tmp_path):
        single, ranged = tmp_path / "single.json", tmp_path / "ranged.json"
        base = ["branching", "--model", tf_model, "--tmax", 6, "--stat", "mean-R", "--at-n", 3]
        run_cli(base + ["--seed", 5, "--out", single])
        run_cli(base + ["--seeds", "5", "--out", ranged])
        assert json.loads(single.read_text())["meta"]["seed"] == "5"
        assert single.read_bytes() == ranged.read_bytes()

    def test_at_n_beyond_population_exit_2(self, tf_model, tmp_path, capsys):
        out = tmp_path / "stat.json"
        for at_n in (10_000, 10**10, -1):
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--seeds", "0..3", "--tmax", 4,
                         "--stat", "mean-R", "--at-n", at_n, "--out", out])
            assert err.value.code == 2
            assert "outside the population" in capsys.readouterr().err
            assert not out.exists()

    def test_bad_tmax_or_z_points_exit_2(self, tf_model, tmp_path, capsys, monkeypatch):
        from cantorstring import branching, cli
        forbid_growth(monkeypatch, branching)
        out = tmp_path / "stat.json"
        for flag, value in (("--tmax", -1), ("--tmax", "nan"), ("--tmax", "inf")):
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--seeds", "0..3", "--tmax", 4,
                         "--stat", "mean-R", "--at-n", 2, flag, value, "--out", out])
            assert err.value.code == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()
        z_out = tmp_path / "z.csv"
        for points in (-3, 1_000_000_000, cli.MAX_POINTS + 1):
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--seed", 1, "--tmax", 4,
                         "--z-points", points, "--z-out", z_out])
            assert err.value.code == 2
            assert "--z-points" in capsys.readouterr().err
            assert not z_out.exists()


    def test_bad_seeds_exit_2(self, tf_model, tmp_path, capsys, monkeypatch):
        from cantorstring import branching
        forbid_growth(monkeypatch, branching)
        for seeds in ("abc", "1..x", "..4", "5..2", "0..1000000"):
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--seeds", seeds, "--tmax", 4,
                         "--stat", "mean-R", "--at-n", 2])
            assert err.value.code == 2
            assert repr(seeds) in capsys.readouterr().err

    def test_node_budget_exit_2(self, tf_model, tmp_path, monkeypatch, capsys):
        # a --tmax 12 population has a few hundred nodes
        from cantorstring import branching, tree
        monkeypatch.setattr(tree, "MAX_NODES", 100)
        real, grown = branching._grow, []
        monkeypatch.setattr(branching, "_grow",
                            lambda *args, **limits: grown.append(1) or real(*args, **limits))
        out = tmp_path / "out"
        for extra, growths in ((["--seed", 1, "--out", out, "--martingale-out", out], 1),
                               (["--seeds", "0..3", "--stat", "mean-R", "--out", out], 2),
                               (["--seed", 1, "--stat", "mean-R", "--out", out], 1)):
            grown.clear()
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--tmax", 12] + extra)
            assert err.value.code == 2
            message = capsys.readouterr().err
            assert "100 nodes" in message and "--tmax" in message
            assert not out.exists()
            assert len(grown) == growths  # a refused one-seed group is not grown again

    def test_forest_past_node_budget_regrown_seed_by_seed(self, tf_model, tmp_path,
                                                           monkeypatch):
        from cantorstring import branching, load_model, tree
        model = load_model(tf_model)
        base = ["branching", "--model", tf_model, "--seeds", "0..99", "--tmax", 10,
                "--stat", "mean-R", "--at-n", 20]  # one forest of 100 seeds
        whole, regrown = tmp_path / "whole.json", tmp_path / "regrown.json"
        run_cli(base + ["--out", whole])
        largest = max(branching.simulate_population(model, 10.0, seed).sigma.size
                      for seed in range(100))
        monkeypatch.setattr(tree, "MAX_NODES", largest)  # every seed fits, the forest does not
        with pytest.raises(ValueError, match=f"{largest} nodes"):
            branching.simulate_populations(model, 10.0, range(100))
        run_cli(base + ["--out", regrown])
        assert regrown.read_bytes() == whole.read_bytes()

    def test_event_output_needs_single_seed_exit_2(self, tf_model, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["branching", "--model", tf_model, "--seeds", "0..3", "--tmax", 4,
                     "--out", tmp_path / "e.csv"])
        assert err.value.code == 2


class TestCompare:
    def test_third_fifth(self, tf_model, capsys):
        run_cli(["compare", "--model", tf_model])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "strictly-less"
        assert payload["gamma_r"] > payload["gamma_h"]

    def test_random_batch(self, tmp_path):
        out = tmp_path / "batch.json"
        run_cli(["compare", "--random", 30, "--seed", 11, "--out", out])
        payload = json.loads(out.read_text())
        assert payload["models"] == 30
        assert payload["violations"] == 0
        assert payload["equal"] + payload["strictly_less"] == 30
        assert payload["worst_gap"] <= 1e-12

    def test_needs_model_or_random(self, tmp_path, monkeypatch):
        from cantorstring import cli
        monkeypatch.setattr(cli, "random_model", None)  # refused before any model is built
        out = tmp_path / "batch.json"
        for extra in ([], ["--random", -3], ["--random", 0], ["--random", cli.MAX_SEEDS + 1]):
            with pytest.raises(SystemExit) as err:
                run_cli(["compare", *extra, "--out", out])
            assert err.value.code == 2
            assert not out.exists()


OUTPUT_FLAGS = {  # every output flag of every command, given a path after --model
    "exponent": ["exponent", "--out"],
    "curve": ["curve", "--depth", 3, "--grid", "1:1e3:4", "--out"],
    "branching-events": ["branching", "--seed", 1, "--tmax", 4, "--out"],
    "branching-martingale": ["branching", "--seed", 1, "--tmax", 4, "--martingale-out"],
    "branching-z": ["branching", "--seed", 1, "--tmax", 4, "--z-out"],
    "branching-mean-R": ["branching", "--seeds", "0..3", "--tmax", 4, "--stat", "mean-R",
                         "--at-n", 2, "--out"],
    "compare": ["compare", "--out"],
    "compare-random": ["compare", "--random", 2, "--out"],  # reads no model
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", OUTPUT_FLAGS)
    def test_exit_2(self, tf_model, tmp_path, capsys, command, target):
        out = tmp_path / "missing" / "x.out" if target == "missing-dir" else tmp_path
        name, *flags = OUTPUT_FLAGS[command]
        with pytest.raises(SystemExit) as err:
            run_cli([name, "--model", tf_model, *flags, out])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith(f"cannot write {out}: ")

    @pytest.mark.parametrize("bad", ["missing-dir", "directory"])
    def test_no_output_left(self, tf_model, tmp_path, capsys, bad):
        # the events CSV is written first, but none is left when a later output fails;
        # an existing file at a path keeps its bytes
        events, z_out = tmp_path / "events.csv", tmp_path / "z.csv"
        z_out.write_text("kept\n")
        failing = tmp_path / "missing" / "m.csv" if bad == "missing-dir" else tmp_path
        with pytest.raises(SystemExit) as err:
            run_cli(["branching", "--model", tf_model, "--seed", 1, "--tmax", 4,
                     "--out", events, "--martingale-out", failing, "--z-out", z_out])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith(f"cannot write {failing}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["z.csv"]
        assert z_out.read_text() == "kept\n"


def fresh_python(code, *args):
    """Run code in a new interpreter on this one's sys.path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


class TestStartup:
    """No command imports scipy: only the dense oracle, which no command runs, needs it."""

    @pytest.mark.parametrize("command", [
        ["curve", "--seed", 3, "--epsilon", "1e-4", "--grid", "1:1e5:20"],
        ["exponent"],
        ["branching", "--seed", 2, "--tmax", 4, "--martingale-out", "mart.csv",
         "--z-out", "z.csv"]], ids=lambda command: command[0])
    def test_commands_run_without_scipy(self, tf_model, tmp_path, command):
        name, *flags = command
        flags = [tmp_path / f if str(f).endswith(".csv") else f for f in flags]
        # None in sys.modules makes every import of scipy raise ImportError
        done = fresh_python('import sys; sys.modules["scipy"] = None; '
                            'from cantorstring.cli import main; sys.exit(main(sys.argv[1:]))',
                            name, "--model", tf_model, "--out", tmp_path / "fresh.out", *flags)
        assert done.returncode == 0, done.stderr
        if name == "curve":
            here = tmp_path / "here.csv"
            run_cli([name, "--model", tf_model, "--out", here, *flags])
            assert (tmp_path / "fresh.out").read_bytes() == here.read_bytes()

    def test_import_leaves_scipy_out(self):
        done = fresh_python("import sys, cantorstring, cantorstring.cli; "
                            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
