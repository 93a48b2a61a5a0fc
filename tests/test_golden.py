"""Golden digests: CLI output bytes and solver floats pinned to the last bit.

Each sha256 below was recorded once from the toolkit's outputs and is never
re-recorded: a refactor that changes one byte of a CSV/JSON file, one
line of bracketing output or one bit of an exponent fails here.

Core claims:
    - exponent, curve (depth and epsilon stops, all boundaries, the
      bracketing lines), branching (events, martingale, z, mean-R) and
      compare (one model, a random batch) reproduce their bytes
    - gamma_r, gamma_h, per-letter alpha and Hausdorff dimensions of 1000
      random models, and of two-map letters down to ratio 1e-100, keep
      every bit of their repr
"""
import hashlib

from cantorstring import (
    contraction_products,
    hausdorff_dimension,
    make_letter,
    random_model,
    solve_homogeneous_exponent,
    solve_recursive_exponent,
)
from cantorstring.cli import main
from cantorstring.exponent import _alpha

CLI_DIGESTS = {
    "exponent-third-fifth": "fcacf98db7f248398cba8ad03f3e3e79686dceff5291cf794dba362dff60ee6c",
    "exponent-middle-third": "6de9ece6eba882141ce1b7faea6851f95d79b801eb85d0a7042e8c5bab4980f0",
    "exponent-lebesgue": "23d541b1f3b611dba2dd596c4a4382eb0b26d655f5591fd23a2717514ed203e2",
    "curve-depth-both": "2122f62ea380da18831baa9c5b37c0a220667040327fe5ef831258ca295f429b",
    "curve-depth-dirichlet": "9e607c3668d73a128b091d1b6b645249f3563c0bf29796c6a727ab16011e5626",
    "curve-depth-neumann": "99a341858e0ebca3f21bf9fcd6aa688373f0b2ae54908755de4cd0aba903f58a",
    "curve-epsilon-both": "5588bf969b3f9e7f69442e886bbc236f852f452cbd485d8e6f31b9fd593f21b7",
    "curve-epsilon-dirichlet": "0ce43d3b1b61cb692ad778529eb09448333760112e81de08baa25c8c987d5328",
    "curve-epsilon-neumann": "480c39f5ed5140073afc3ff52071103829b57b567019e41ef5a6a6b42a24dc65",
    "curve-bracketing-stdout": "648fb3874af34d72423bd10be98c0725f6b0a566106ba42cf1ff29060d7b1149",
    "branching-events": "9e7bf2f0f9afe5a429495e0aa87f8d9eaabdd79038d92e25558636a58d32e680",
    "branching-martingale": "df313adbbb5f53d9a761c68e0f2074bead14b58ad8b4ccd1d88ff63c16057643",
    "branching-z": "40341f33c49ef22c1744ce3beca97903662c37db883c66db1a5ba8e524c63a2a",
    "branching-mean-r": "fed138967da95b4c2d45b0d430dc93010b49eb932415fc8ef963cfbe121103a3",
    "compare-model": "cb7605041ae1a54ac653b613130c54ca8b8a3e2625a6f6d75a7aff496d09f97d",
    "compare-random": "638892677742f84a285802681987539808030b24f47df57bebf7c559c91e6565",
}

BISECTION_DIGEST = "6545e8fe7a1313226faee5135e3533ddc097bebe295a6cfba81cff0f76598afa"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_stdout(capsys, args) -> bytes:
    capsys.readouterr()
    assert main([str(a) for a in args]) == 0
    return capsys.readouterr().out.encode()


def cli_outputs(models_dir, tmp_path, capsys):
    """name -> output bytes for every pinned command."""
    tf = models_dir / "third-fifth.json"
    out = {}
    for name in ("third-fifth", "middle-third", "lebesgue"):
        out[f"exponent-{name}"] = cli_stdout(
            capsys, ["exponent", "--model", models_dir / f"{name}.json"])
    for stop_name, stop in (("depth", ["--depth", 6]), ("epsilon", ["--epsilon", "1e-3"])):
        for boundary in ("both", "dirichlet", "neumann"):
            path = tmp_path / f"curve-{stop_name}-{boundary}.csv"
            cli_stdout(capsys, ["curve", "--model", tf, "--seed", 3, *stop,
                                "--grid", "1:1e5:20", "--boundary", boundary, "--out", path])
            out[f"curve-{stop_name}-{boundary}"] = path.read_bytes()
    out["curve-bracketing-stdout"] = cli_stdout(
        capsys, ["curve", "--model", tf, "--seed", 3, "--depth", 6, "--grid", "1:1e5:20",
                 "--out", tmp_path / "bracket.csv", "--check-bracketing"])
    files = {k: tmp_path / f"{k}.csv" for k in ("events", "martingale", "z")}
    cli_stdout(capsys, ["branching", "--model", tf, "--seed", 7, "--tmax", 10,
                        "--out", files["events"], "--martingale-out", files["martingale"],
                        "--z-out", files["z"]])
    for key, path in files.items():
        out[f"branching-{key}"] = path.read_bytes()
    out["branching-mean-r"] = cli_stdout(
        capsys, ["branching", "--model", tf, "--seeds", "0..31", "--tmax", 10,
                 "--stat", "mean-R", "--at-n", 20])
    out["compare-model"] = cli_stdout(capsys, ["compare", "--model", tf])
    out["compare-random"] = cli_stdout(capsys, ["compare", "--random", 20, "--seed", 5])
    return out


def bisection_values() -> str:
    """repr of every bisection-solved float, one per line."""
    lines = []
    for seed in range(1000):
        model = random_model(seed)
        lines.append(repr(solve_recursive_exponent(model)))
        lines.append(repr(solve_homogeneous_exponent(model)))
        for letter in model.letters:
            lines.append(repr(_alpha(contraction_products(letter))))
            lines.append(repr(hausdorff_dimension(letter)))
    # below dimension 1/32 the absolute 1e-17 stop fires before the bracket converges
    for ratio in (0.45, 0.3, 0.1, 1e-3, 1e-12, 1e-30, 1e-100):
        letter = make_letter("two", [(ratio, 0.0), (ratio, 1.0 - ratio)], (0.5, 0.5))
        lines.append(repr(_alpha(contraction_products(letter))))
        lines.append(repr(hausdorff_dimension(letter)))
    return "\n".join(lines)


def test_cli_bytes(models_dir, tmp_path, capsys):
    digests = {name: sha(data) for name, data in
               cli_outputs(models_dir, tmp_path, capsys).items()}
    assert digests == CLI_DIGESTS


def test_bisection_bits():
    assert sha(bisection_values().encode()) == BISECTION_DIGEST

