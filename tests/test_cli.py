"""Command-line pipeline: files in, files out, reproducible to the byte.

Core claims:
    - validate accepts shipped models and exits 2 with the violation text
      for corrupted ones
    - exponent reports the literature value for the third-fifth model and
      1/2 for the Lebesgue-like model
    - curve CSVs respect the gap invariant, carry the digest header, and
      are byte-identical across re-runs; a tree past MAX_NODES or a string
      with an overflowing link exits 2 before any file is written
    - --check-bracketing reports true on every grid point
    - branching writes event/martingale/z files; mean-R over seeds is near 1
    - compare rules strictly-less on third-fifth and finds zero violations
      on a random batch
"""
import json
import os

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

    def test_bad_grid_rejected(self, tf_model, tmp_path):
        for grid in ("5:1:10", "0:10:5", "1:1e3:1", "nonsense", "1:inf:4", "nan:10:5"):
            with pytest.raises(SystemExit) as err:
                run_cli(["curve", "--model", tf_model, "--seed", 1, "--depth", 3,
                         "--grid", grid, "--out", tmp_path / "c.csv"])
            assert err.value.code == 2

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
        assert depths.count(5) == 1  # the root-child pieces are depth 4

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

    def test_mean_r_workers_match_serial(self, tf_model, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        base = ["branching", "--model", tf_model, "--seeds", "0..63", "--tmax", 10,
                "--stat", "mean-R", "--at-n", 20]
        run_cli(base + ["--out", serial])
        run_cli(base + ["--workers", 2, "--out", parallel])
        assert serial.read_bytes() == parallel.read_bytes()


    def test_at_n_beyond_population_exit_2(self, tf_model, tmp_path, capsys):
        out = tmp_path / "stat.json"
        for at_n in (10_000, -1):
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--seeds", "0..3", "--tmax", 4,
                         "--stat", "mean-R", "--at-n", at_n, "--out", out])
            assert err.value.code == 2
            assert "outside the population" in capsys.readouterr().err
            assert not out.exists()

    def test_workers_below_one_exit_2(self, tf_model, tmp_path, capsys, monkeypatch):
        from cantorstring import branching
        forbid(monkeypatch, branching, "simulate_population")
        out = tmp_path / "stat.json"
        for flag, value in (("--workers", 0), ("--workers", -3), ("--tmax", -1),
                            ("--tmax", "nan"), ("--tmax", "inf")):
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--seeds", "0..3", "--tmax", 4,
                         "--stat", "mean-R", "--at-n", 2, flag, value, "--out", out])
            assert err.value.code == 2
            assert flag in capsys.readouterr().err
            assert not out.exists()
        z_out = tmp_path / "z.csv"
        with pytest.raises(SystemExit) as err:
            run_cli(["branching", "--model", tf_model, "--seed", 1, "--tmax", 4,
                     "--z-points", -3, "--z-out", z_out])
        assert err.value.code == 2
        assert "--z-points" in capsys.readouterr().err
        assert not z_out.exists()


    def test_bad_seeds_exit_2(self, tf_model, tmp_path, capsys, monkeypatch):
        from cantorstring import branching
        forbid(monkeypatch, branching, "simulate_population")
        for seeds in ("abc", "1..x", "..4", "5..2", "0..1000000"):
            with pytest.raises(SystemExit) as err:
                run_cli(["branching", "--model", tf_model, "--seeds", seeds, "--tmax", 4,
                         "--stat", "mean-R", "--at-n", 2])
            assert err.value.code == 2
            assert repr(seeds) in capsys.readouterr().err

    def test_event_output_needs_single_seed_exit_2(self, tf_model, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["branching", "--model", tf_model, "--seeds", "0..3", "--tmax", 4,
                     "--out", tmp_path / "e.csv"])
        assert err.value.code == 2

    def test_workers_capped_before_spawning(self, tf_model, tmp_path, monkeypatch):
        import multiprocessing

        requested = []

        class RecordingPool:
            # stands in for multiprocessing.Pool so no process is ever started
            def __init__(self, processes):
                requested.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        serial, capped = tmp_path / "s.json", tmp_path / "c.json"
        base = ["branching", "--model", tf_model, "--seeds", "0..7", "--tmax", 4,
                "--stat", "mean-R", "--at-n", 2]
        run_cli(base + ["--out", serial])
        run_cli(base + ["--workers", 10 ** 6, "--out", capped])
        assert all(n <= (os.cpu_count() or 1) for n in requested)
        assert serial.read_bytes() == capped.read_bytes()


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

    def test_needs_model_or_random(self, tmp_path):
        out = tmp_path / "batch.json"
        for extra in ([], ["--random", -3], ["--random", 0]):
            with pytest.raises(SystemExit) as err:
                run_cli(["compare", *extra, "--out", out])
            assert err.value.code == 2
            assert not out.exists()
