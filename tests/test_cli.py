import ast
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import srhtlab.cli as cli_mod
import srhtlab.experiments as exp_mod
from srhtlab.bounds import embedding_sample_size, row_sampling_failure_bound
from srhtlab.cli import _FLAGS, _PARSER, RUNNERS, _build_parser, main
from srhtlab.experiments import ExperimentSummary, TrialPlan
from srhtlab.linalg import random_orthonormal
from srhtlab.srht import apply_to_matrix, draw_srht


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_report(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k", "16", "--n", "65536")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["embedding"]["ell"] == 2342
    assert doc["embedding"]["sigma_min"] == pytest.approx(0.4082, abs=5e-5)
    assert doc["embedding"]["sigma_max"] == pytest.approx(1.4720, abs=5e-5)
    assert doc["row_norm"]["beta"] == 16.0
    assert doc["row_sampling_failure"] == {
        "alpha": 4.0,
        "delta": 5.0 / 6.0,
        "eta": 7.0 / 6.0,
        "value": row_sampling_failure_bound(16, 4.0, 5.0 / 6.0, 7.0 / 6.0),
        "worst_ratio": row_sampling_failure_bound(2, 4.0, 5.0 / 6.0, 7.0 / 6.0),
    }
    assert doc["row_sampling_failure"]["worst_ratio"] < 1
    assert doc["row_sampling_failure"]["value"] <= 2 / 16
    assert doc["config"]["k"] == 16 and doc["config"]["n"] == 65536


def test_module_entry_point_runs_bounds(capsys):
    # the package's __main__, as ``python -m srhtlab`` and the srhtlab
    # console script run it, in a fresh interpreter
    src = str(pathlib.Path(cli_mod.__file__).parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-m", "srhtlab", "bounds", "--k", "16", "--n", "4096"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["embedding"]["ell"] == 1998
    _, out, _ = run_cli(capsys, "bounds", "--k", "16", "--n", "4096")
    assert doc == json.loads(out)


def test_bounds_csv_format(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k", "8", "--n", "1024", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("embedding.ell,") for line in lines)


@pytest.mark.parametrize("flag", ["--iota", "--c", "--bigC"])
def test_bounds_has_no_large_sample_rule(capsys, flag):
    code, out, err = run_cli(capsys, "bounds", "--k", "16", "--n", "65536", flag, "1")
    assert code == 2
    assert out == "" and "unrecognized arguments" in err
    code, out, _ = run_cli(capsys, "bounds", "--k", "16", "--n", "65536")
    assert code == 0
    doc = json.loads(out)
    assert "large_sample" not in doc
    assert not {"iota", "c_const", "C_const"} & set(doc["config"])


@pytest.mark.parametrize("beta", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [("bounds", "--k", "4", "--n", "64"), ("experiment", "rownorm", "--n", "64", "--trials", "2")],
)
def test_non_finite_beta_is_usage_error(capsys, argv, beta):
    # bounds --beta nan once wrote NaN, which is not JSON, and exited 0
    code, out, err = run_cli(capsys, *argv, "--beta", beta)
    assert code == 2
    assert out == "" and "finite beta" in err


@pytest.mark.parametrize(
    "theta, message",
    [
        ("2000", "leaves the float64 range"),
        ("nan", "theta must be finite"),
        ("inf", "theta must be finite"),
    ],
)
def test_mgf_theta_outside_the_float_range_is_usage_error(capsys, theta, message):
    # 2000 once crashed with an OverflowError traceback; nan and inf exited 1
    # as a failed criterion
    code, out, err = run_cli(capsys, "experiment", "mgf", "--thetas", theta)
    assert code == 2
    assert out == "" and message in err
    assert len(err.strip().splitlines()) == 1


def test_grid_values_in_exponent_notation_may_be_negative(capsys):
    # "-1e-3" was once read as an unknown option, so no grid could hold it
    code, out, err = run_cli(
        capsys, "experiment", "mgf", "--n", "4", "--k", "1", "--l", "2", "--thetas", "-1e-3", "0.5",
    )
    assert (code, err) == (0, "")
    names = [s["name"] for s in json.loads(out)["summaries"]]
    assert names == ["mgf_domination(theta=-0.001)", "mgf_domination(theta=0.5)"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "--k", "4", "--n", "16", "--beta", "-1e-3"), "finite beta with beta * n > 1"),
        (("sketch", "--n", "16", "--l", "4", "--k", "2", "--seed", "-1e3"), "invalid int"),
    ],
)
def test_negative_exponent_values_reach_every_subcommand(capsys, argv, message):
    # only the experiment parsers read "-1e-3" as a value; bounds refused it
    # as "expected one argument"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and message in err
    assert "expected one argument" not in err


def _readme_cli_lines():
    """Each ``srhtlab ...`` line of the README's CLI code block, split as a
    shell would, without its trailing comment."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("srhtlab ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 5
    for argv in lines:
        try:
            _build_parser().parse_args(argv[1:])
        except SystemExit as exc:
            pytest.fail(f"README example {shlex.join(argv)} does not parse (exit {exc.code})")


def test_sketch_full_sample_unit_spectrum(capsys):
    code, out, _ = run_cli(capsys, "sketch", "--n", "4", "--l", "4", "--k", "2", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    spectrum = doc["singular_values"]
    assert np.max(np.abs(np.array(spectrum) - 1.0)) <= 1e-10
    assert doc["sketch"]["rows"] == 4 and doc["sketch"]["cols"] == 2


def test_sketch_csv_blocks(capsys):
    code, out, _ = run_cli(
        capsys, "sketch", "--n", "8", "--l", "3", "--k", "2", "--seed", "5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "3,2"
    assert lines[4] == "1,2"  # spectrum block header
    assert len(lines) == 6


def test_sketch_csv_reads_back_to_the_exact_sketch(capsys):
    code, out, _ = run_cli(
        capsys, "sketch", "--n", "16", "--l", "5", "--k", "3", "--seed", "4", "--format", "csv"
    )
    assert code == 0
    basis = random_orthonormal(16, 3, (4, 0, 0, 0))
    sketch = apply_to_matrix(draw_srht(16, 5, (4, 1, 0, 0)), basis)
    lines = out.splitlines()
    assert lines[0] == "5,3"
    parsed = np.array([[float(x) for x in line.split(",")] for line in lines[1:6]])
    assert np.array_equal(parsed, sketch)


def test_experiment_exit_zero_on_pass(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "coupon", "--k", "2", "--ells", "2", "--trials", "400", "--seed", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summaries"][0]["passed"] is True
    assert doc["config"]["trials"] == 400


def test_experiment_exit_one_on_failed_criterion(capsys):
    # ell = k leaves the sketch nearly singular, far outside the window
    code, out, _ = run_cli(
        capsys,
        "experiment", "embedding",
        "--n", "64", "--k", "16", "--l", "16", "--trials", "30", "--seed", "0",
    )
    assert code == 1
    assert json.loads(out)["summaries"][0]["passed"] is False


def test_experiment_csv_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "experiment", "chernoff", "--format", "csv", "--deltas", "0.5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("name,n,k,ell,trials,mode,")
    assert len(lines) == 3  # lower + upper summaries


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "experiment", "embedding", "--bogus", "1")
    assert code == 2


def test_invalid_dimension_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sketch", "--n", "12", "--l", "4", "--k", "2")
    assert code == 2
    assert "error" in err.lower()
    assert len(err.strip().splitlines()) == 1


def test_sketch_refuses_fewer_rows_than_columns_before_drawing(capsys, monkeypatch):
    # an ell x k sketch with ell < k cannot have rank k; it once drew an
    # operator and a basis and then exited 2 with the SVD's own message
    def no_draw(*args):
        raise AssertionError("drew an operator")

    monkeypatch.setattr(cli_mod, "draw_stack", no_draw)
    monkeypatch.setattr(cli_mod, "random_orthonormal", no_draw)
    code, out, err = run_cli(capsys, "sketch", "--n", "16", "--l", "2", "--k", "4")
    assert (code, out) == (2, "")
    assert err == "srhtlab: error: --l must be at least --k, got --l 2 and --k 4\n"


def test_unknown_experiment_rejected(capsys):
    code, _, _ = run_cli(capsys, "experiment", "nonsense")
    assert code == 2
    # there is no flatten experiment: rownorm --k 1 is the single-vector check
    code, _, err = run_cli(capsys, "experiment", "flatten")
    assert code == 2 and "invalid choice: 'flatten'" in err


def test_sketch_output_file_byte_identical(tmp_path, capsys):
    path = tmp_path / "sketch.json"
    argv = ["sketch", "--n", "16", "--l", "5", "--k", "3", "--seed", "9", "--output", str(path)]
    snapshots = []
    for _ in range(2):
        assert main(list(argv)) == 0
        snapshots.append(path.read_bytes())
    capsys.readouterr()
    assert snapshots[0] == snapshots[1]


# SHA-256 of ``srhtlab sketch --n 16 --l 5 --k 3 --seed 9`` on stdout (numpy
# 2.4.6): the operator record, the sketch and its spectrum, bit for bit.
# Re-recorded when the tall 16 x 3 basis began to take one Cholesky QR pass
# instead of two; the hashes of the two-pass output are SKETCH_TWO_PASS_SHA256,
# and its values are SKETCH_TWO_PASS.  Re-recorded again when the spectrum
# moved from an SVD of the sketch to the roots of its Gram eigenvalues: sigma_1
# moved by one ulp, from 1.479615508171306 to 1.4796155081713058.  The hashes
# of the SVD output are SKETCH_SVD_SHA256.
SKETCH_SHA256 = {
    "json": "b223e95e408ef4b8b537b7793f795df79d8c03df45f5edd370bf32d795fa7d2d",
    "csv": "bb5f7e909bfebd5c99396622aeb08b47996f3ab714aed2db7340ecdc488884a1",
}
SKETCH_SVD_SHA256 = {
    "json": "4d015f8df85fe86269a08025d077fdff1582aae637972b397677a62515bdd622",
    "csv": "8712ea38fa847c96bf04045f5a8a1ca73896f60ded1392e37b447586c92c9fab",
}
SKETCH_TWO_PASS_SHA256 = {
    "json": "13f01a22e9ff2ea335234e244034bb703e7acf44f8c00eb8e38a5b3f11199b2a",
    "csv": "b3fabcfba14e879354d77056a5e05073175f5df725c66cb3eb4cfa0d7d721355",
}
# (sketch, singular values) of the same command with a two-pass basis
SKETCH_TWO_PASS = (
    [
        [0.295839028002099, -0.302278185450253, 0.7101094947506701],
        [-0.35695467589663893, 0.2617233026164151, -0.19723230171397949],
        [0.3399349045055782, -0.0075630334570712795, -0.03793110784995039],
        [-0.30333710392150254, -0.9816287286241888, 0.31440412973402976],
        [0.08479299840234267, 1.0193056054267238, 0.6078527025183464],
    ],
    [1.4796155081713063, 1.0386568701511603, 0.5805714347833173],
)


@pytest.mark.parametrize("fmt", sorted(SKETCH_SHA256))
def test_sketch_output_is_pinned_byte_for_byte(capsys, fmt):
    code, out, err = run_cli(
        capsys, "sketch", "--n", "16", "--l", "5", "--k", "3", "--seed", "9", "--format", fmt
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SKETCH_SHA256[fmt]
    if fmt == "json":
        assert json.loads(out)["operator"] == {"n": 16, "l": 5, "seed": [9, 1, 0, 0]}


@pytest.mark.parametrize("fmt", sorted(SKETCH_SHA256))
def test_sketch_keeps_the_two_pass_values(capsys, fmt):
    # every value within 1e-14 of the two-pass one, relative to its own size
    code, out, _ = run_cli(
        capsys, "sketch", "--n", "16", "--l", "5", "--k", "3", "--seed", "9", "--format", fmt
    )
    assert code == 0
    if fmt == "json":
        record = json.loads(out)
        got = (record["sketch"]["data"], record["singular_values"])
    else:  # the sketch's 5 x 3 block, then the spectrum's 1 x 3 block
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()]
        got = (rows[1:6], rows[7])
    for values, want in zip(got, SKETCH_TWO_PASS, strict=True):
        values, want = np.array(values), np.array(want)
        assert values.shape == want.shape
        assert np.all(np.abs(values - want) <= 1e-14 * np.abs(want))


# A run of each subcommand that writes a document.
OUTPUT_COMMANDS = {
    "sketch": ("sketch", "--n", "16", "--l", "5", "--k", "3", "--seed", "9"),
    "bounds": ("bounds", "--k", "4", "--n", "64"),
    "coupon": ("experiment", "coupon", "--k", "2", "--ells", "2", "3", "--trials", "50"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, monkeypatch, command, fmt):
    # a JSON file once lacked the final newline of its stdout copy, and
    # experiment CSV once ended its lines in "\r\n"; the echo of --output
    # itself is the one field that may differ
    original = exp_mod.run_coupon_trials
    monkeypatch.setattr(
        exp_mod, "run_coupon_trials",
        lambda **kwargs: [dataclasses.replace(s, elapsed_seconds=0.0) for s in original(**kwargs)],
    )
    argv = [*OUTPUT_COMMANDS[command], "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\n") and "\r" not in out
    path = tmp_path / f"report.{fmt}"
    assert run_cli(capsys, *argv, "--output", str(path)) == (0, "", "")
    echoed, blank = {
        "json": (f'"output_path": {json.dumps(str(path))}', '"output_path": ""'),
        "csv": (f"config.output_path,{path}\n", "config.output_path,\n"),
    }[fmt]
    assert path.read_bytes().replace(echoed.encode(), blank.encode()) == out.encode()


def test_bounds_csv_to_a_path_with_a_comma_reads_back_as_two_fields(tmp_path, capsys):
    # the echoed path was once written unquoted, which made its row three fields
    path = tmp_path / "a,b.csv"
    code, out, _ = run_cli(
        capsys, "bounds", "--k", "4", "--n", "64", "--format", "csv", "--output", str(path)
    )
    assert (code, out) == (0, "")
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["key", "value"] and ["config.output_path", str(path)] in rows
    assert all(len(row) == 2 for row in rows)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in pathlib.Path(cli_mod.__file__).parent.glob("*.py") if p.name != "cli.py"),
    ids=lambda p: p.name,
)
def test_only_the_cli_imports_a_serializer(path):
    # one report writer: json, csv and io are imported by cli alone
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules = {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = {node.module.split(".")[0]}
        else:
            continue
        assert not modules & {"json", "csv", "io"}


def test_experiment_output_identical_modulo_timing(tmp_path, capsys):
    path = tmp_path / "run.json"
    argv = ["experiment", "rownorm", "--n", "64", "--k", "1", "--trials", "50", "--seed", "2",
            "--output", str(path)]
    texts = []
    for _ in range(2):
        assert main(list(argv)) == 0
        texts.append(
            re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0', path.read_text())
        )
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_numeric_flags_echoed(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "mgf", "--exhaustive", "--thetas", "0.5", "2.0", "--seed", "11"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["thetas"] == [0.5, 2.0]
    assert doc["config"]["seed"] == 11
    assert doc["config"]["exhaustive"] is True


# Small configurations that pass their criterion; every registry name needs one.
TINY = {
    "embedding": ("--n", "64", "--k", "4", "--l", "32", "--trials", "5"),
    "rownorm": ("--n", "64", "--k", "4", "--trials", "5"),
    "coupon": ("--k", "2", "--ells", "2", "4", "--trials", "5"),
    "chernoff": ("--n", "8", "--k", "2", "--l", "3", "--deltas", "0.5"),
    "mgf": ("--n", "8", "--k", "2", "--l", "3", "--thetas", "1"),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_experiment_smoke(capsys, name):
    code, out, _ = run_cli(capsys, "experiment", name, *TINY[name], "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["config"]["experiment_name"] == name
    # chernoff and mgf enumerate the C(8, 3) = 56 subsets
    trials = 56 if name in ("chernoff", "mgf") else 5
    assert doc["summaries"] and all(r["trials"] == trials for r in doc["summaries"])


def test_experiment_all_calls_each_runner_with_only_the_seed(capsys, monkeypatch):
    # the registry holds runner names, so a patched module attribute is what runs
    calls = []

    def fake(runner_name):
        def run(**kwargs):
            calls.append((runner_name, kwargs))
            plan = TrialPlan(n=len(calls), k=1, ell=1, trials=1, seed=kwargs["seed"])
            return ExperimentSummary(runner_name, plan, 0.0, 1.0, 0.0, 0.0, True)

        return run

    for runner_name in RUNNERS.values():
        monkeypatch.setattr(exp_mod, runner_name, fake(runner_name))
    code, out, _ = run_cli(capsys, "experiment", "all", "--seed", "7")
    assert code == 0
    assert calls == [(runner_name, {"seed": 7}) for runner_name in RUNNERS.values()]
    doc = json.loads(out)
    assert [r["name"] for r in doc["summaries"]] == list(RUNNERS.values())
    assert (doc["config"]["n"], doc["config"]["k"], doc["config"]["ell"]) == (0, 1, 1)


@pytest.mark.parametrize(
    "flags",
    [("--trials", "5"), ("--n", "64"), ("--ells", "8"), ("--exhaustive",), ("--beta", "2")],
)
def test_experiment_all_takes_no_configuration_flag(capsys, flags):
    code, out, err = run_cli(capsys, "experiment", "all", *flags)
    assert code == 2
    assert out == "" and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("embedding", "--n", "64", "--k", "0", "--l", "40", "--trials", "2"),
        ("embedding", "--n", "0", "--k", "4", "--l", "8", "--trials", "2"),
        ("embedding", "--n", "4096", "--k", "4", "--l", "0", "--trials", "2"),
        ("rownorm", "--n", "64", "--k", "4", "--beta", "0", "--trials", "2"),
        ("chernoff", "--n", "8", "--k", "2", "--l", "0"),
        ("mgf", "--n", "8", "--k", "2", "--l", "0"),
        ("coupon", "--k", "0", "--ells", "2", "--trials", "2"),
        ("rownorm", "--n", "0", "--k", "1", "--trials", "2"),
    ],
)
def test_zero_flags_reach_the_runner_checks(capsys, argv):
    code, out, err = run_cli(capsys, "experiment", *argv)
    assert code == 2
    assert out == "" and len(err.strip().splitlines()) == 1


def test_embedding_k1_without_ell_asks_for_it(capsys):
    # the sample-size rule degenerates below k = 2; nothing exceeds n here
    code, out, err = run_cli(capsys, "experiment", "embedding", "--n", "1024", "--k", "1")
    assert code == 2
    assert out == "" and "needs k >= 2" in err and "--l" in err and "exceeds" not in err


@pytest.mark.parametrize("delta", ["1.5", "nan", "-0.1"])
def test_chernoff_bad_deviation_is_usage_error(capsys, delta):
    code, out, err = run_cli(capsys, "experiment", "chernoff", "--deltas", delta)
    assert code == 2
    assert out == "" and "deviation" in err


@pytest.mark.parametrize(
    "n, k, message",
    [
        ("0", "4", "n must be a positive power of two"),
        ("12", "4", "n must be a positive power of two"),
        ("64", "0", "need 1 <= k <= n"),
        ("64", "65", "need 1 <= k <= n"),
    ],
)
def test_rownorm_dimensions_are_checked_at_the_boundary(capsys, n, k, message):
    code, out, err = run_cli(
        capsys, "experiment", "rownorm", "--n", n, "--k", k, "--beta", "2", "--trials", "2"
    )
    assert code == 2
    assert out == "" and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("coupon", "--l", "3"),
        ("embedding", "--exhaustive"),
        ("rownorm", "--l", "4"),
        # a prefix is never taken for a flag, so a new flag cannot change what
        # an old call means
        ("chernoff", "--e"),
        ("coupon", "--e", "2"),
        ("embedding", "--tri", "2"),
        ("all", "--s", "3"),
        # nor by the subcommands outside ``experiment``
        ("bounds", "--be", "2", "--form", "csv", "--k", "4", "--n", "16"),
        ("sketch", "--se", "3", "--form", "csv", "--n", "16", "--l", "4", "--k", "2"),
        # chernoff and mgf enumerate every subset, so take no trial count
        ("chernoff", "--trials", "5"),
        ("mgf", "--trials", "5"),
    ],
)
def test_flag_the_runner_does_not_take_is_usage_error(capsys, argv):
    command = [argv[0]] if argv[0] in ("bounds", "sketch") else ["experiment", argv[0]]
    code, out, err = run_cli(capsys, *command[:-1], *argv)
    assert code == 2
    assert out == ""
    # the subcommand's own usage line, not the top-level one
    assert err.startswith(f"usage: srhtlab {' '.join(command)} ")
    assert f"unrecognized arguments: {argv[1]}" in err


def test_echo_carries_the_dimensions_that_ran(capsys):
    code, out, _ = run_cli(capsys, "experiment", "mgf")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["n"], config["k"], config["ell"], config["beta"]) == (8, 2, 3, 0.0)

    # ell from the sample-size formula, beta defaulting to k, and a coupon grid
    # whose ell is not one value
    _, out, _ = run_cli(
        capsys, "experiment", "embedding", "--n", "4096", "--k", "4", "--trials", "2"
    )
    config = json.loads(out)["config"]
    assert (config["n"], config["k"]) == (4096, 4)
    assert config["ell"] == embedding_sample_size(4, 4096).ell

    _, out, _ = run_cli(capsys, "experiment", "rownorm", "--n", "64", "--k", "4", "--trials", "2")
    config = json.loads(out)["config"]
    assert (config["n"], config["k"], config["ell"], config["beta"]) == (64, 4, 0, 4.0)

    _, out, _ = run_cli(
        capsys, "experiment", "coupon", "--k", "2", "--ells", "2", "3", "--trials", "5"
    )
    config = json.loads(out)["config"]
    assert (config["n"], config["k"], config["ell"]) == (4, 2, 0)


def _timing_free_summaries(capsys, *argv):
    code, out, _ = run_cli(capsys, "experiment", *argv)
    assert code == 0
    records = json.loads(out)["summaries"]
    for record in records:
        del record["elapsed_seconds"]
    return records


def test_chernoff_and_mgf_run_the_same_with_or_without_exhaustive(capsys, monkeypatch):
    # a flagless run once ran Monte Carlo, while the runner and ``experiment
    # all`` enumerated; --exhaustive changes nothing now.  The Monte Carlo
    # runners are stubbed out of ``experiment all``, which runs the rest as
    # they are.
    for name in ("embedding", "rownorm", "coupon"):
        plan = TrialPlan(n=1, k=1, ell=1, trials=1, seed=0)
        stub = ExperimentSummary(name, plan, 0.0, 1.0, 0.0, 0.0, True)
        monkeypatch.setattr(exp_mod, RUNNERS[name], lambda seed, stub=stub: stub)
    everything = _timing_free_summaries(capsys, "all")
    for name in ("chernoff", "mgf"):
        flagless = _timing_free_summaries(capsys, name)
        assert {record["mode"] for record in flagless} == {"exhaustive"}
        assert _timing_free_summaries(capsys, name, "--exhaustive") == flagless
        assert [r for r in everything if r["name"].startswith(name)] == flagless


# A value each experiment flag parses, by the runner keyword it sets.
FLAG_VALUES = {
    "n": "8", "k": "2", "ell": "3", "trials": "5", "beta": "2",
    "ell_grid": "2", "deviation_grid": "0.5", "theta_grid": "1",
}


def _runner_parameters(name):
    return inspect.signature(getattr(exp_mod, RUNNERS[name])).parameters


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "name, flag",
    [
        (name, _FLAGS[keyword][1])
        for name in RUNNERS
        for keyword in ("n", "k", "ell", "trials")
        if keyword in _runner_parameters(name)
    ],
)
def test_integer_flag_below_one_is_usage_error(capsys, name, flag, value):
    # chernoff and mgf at --l 0, when they could run Monte Carlo, once
    # divided by zero and exited 1 with a traceback
    code, out, err = run_cli(capsys, "experiment", name, flag, value)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("srhtlab: error: ")


def _parse_status(argv):
    """0 when the module parser takes ``argv``, else argparse's exit code."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def test_flag_table_covers_every_runner_keyword():
    # every keyword parameter of a runner, bar seed, has its flag
    keywords = {p for name in RUNNERS for p in _runner_parameters(name)} - {"seed"}
    assert keywords == set(_FLAGS) == set(FLAG_VALUES)


@pytest.mark.parametrize("keyword", sorted(_FLAGS))
@pytest.mark.parametrize("name", [*RUNNERS, "all"])
def test_each_experiment_takes_exactly_its_runners_flags(name, keyword):
    flag = _FLAGS[keyword][1]
    takes = name != "all" and keyword in _runner_parameters(name)
    status = _parse_status(["experiment", name, flag, FLAG_VALUES[keyword]])
    assert status == (0 if takes else 2)


@pytest.mark.parametrize("name", [*RUNNERS, "all"])
def test_exhaustive_only_on_chernoff_and_mgf(name):
    # the flag that changes nothing is taken only where it once chose a mode
    takes = name in ("chernoff", "mgf")
    assert _parse_status(["experiment", name, "--exhaustive"]) == (0 if takes else 2)
    if takes:
        for order in (("--exhaustive", "--trials", "5"), ("--trials", "5", "--exhaustive")):
            assert _parse_status(["experiment", name, *order]) == 2


@pytest.mark.parametrize("name", [*RUNNERS, "all"])
def test_experiment_help_lists_exactly_its_runners_flags(capsys, name):
    code, out, _ = run_cli(capsys, "experiment", name, "--help")
    assert code == 0
    params = () if name == "all" else _runner_parameters(name)
    expected = {flag for keyword, (_, flag, _) in _FLAGS.items() if keyword in params}
    expected |= {"--exhaustive"} if name in ("chernoff", "mgf") else set()
    options = out.split("options:", 1)[1]
    assert set(re.findall(r"--\w+", options)) == expected | {"--help", "--seed", "--format", "--output"}


def test_module_parser_is_reused_across_calls(capsys):
    # main parses with one parser per process; a refused call leaves it as it was
    argv = ("experiment", "coupon", "--k", "2", "--ells", "2", "--trials", "5")
    texts = []
    for refused in (("experiment", "coupon", "--l", "3"), ("experiment", "all", "--n", "4")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        texts.append(re.sub(r'"elapsed_seconds": [0-9.e+-]+', "", out))
        assert run_cli(capsys, *refused)[0] == 2
    assert texts[0] == texts[1]
