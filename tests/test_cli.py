import json
import pathlib
import re
import shlex

import numpy as np
import pytest

import srhtlab.experiments as exp_mod
from srhtlab.bounds import embedding_sample_size, row_sampling_failure_bound
from srhtlab.cli import RUNNERS, _build_parser, main
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
    }
    assert doc["row_sampling_failure"]["value"] <= 2 / 16
    assert doc["config"]["k"] == 16 and doc["config"]["n"] == 65536


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
    code, out, err = run_cli(capsys, "experiment", "mgf", "--exhaustive", "--thetas", theta)
    assert code == 2
    assert out == "" and message in err
    assert len(err.strip().splitlines()) == 1


def test_grid_values_in_exponent_notation_may_be_negative(capsys):
    # "-1e-3" was once read as an unknown option, so no grid could hold it
    code, out, err = run_cli(
        capsys, "experiment", "mgf", "--exhaustive", "--n", "4", "--k", "1", "--l", "2",
        "--thetas", "-1e-3", "0.5",
    )
    assert (code, err) == (0, "")
    names = [s["name"] for s in json.loads(out)["summaries"]]
    assert names == ["mgf_domination(theta=-0.001)", "mgf_domination(theta=0.5)"]


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
        "experiment", "chernoff", "--exhaustive", "--format", "csv", "--deltas", "0.5",
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


def test_unknown_experiment_rejected(capsys):
    code, _, _ = run_cli(capsys, "experiment", "nonsense")
    assert code == 2


def test_sketch_output_file_byte_identical(tmp_path, capsys):
    path = tmp_path / "sketch.json"
    argv = ["sketch", "--n", "16", "--l", "5", "--k", "3", "--seed", "9", "--output", str(path)]
    snapshots = []
    for _ in range(2):
        assert main(list(argv)) == 0
        snapshots.append(path.read_bytes())
    capsys.readouterr()
    assert snapshots[0] == snapshots[1]


def test_experiment_output_identical_modulo_timing(tmp_path, capsys):
    path = tmp_path / "run.json"
    argv = ["experiment", "flatten", "--n", "64", "--trials", "50", "--seed", "2",
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
    "flatten": ("--n", "64", "--trials", "5"),
    "coupon": ("--k", "2", "--ells", "2", "4", "--trials", "5"),
    "chernoff": ("--n", "8", "--k", "2", "--l", "3", "--deltas", "0.5", "--trials", "5"),
    "mgf": ("--n", "8", "--k", "2", "--l", "3", "--thetas", "1", "--trials", "5"),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_experiment_smoke(capsys, name):
    code, out, _ = run_cli(capsys, "experiment", name, *TINY[name], "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["config"]["experiment_name"] == name
    assert doc["summaries"] and all(r["trials"] == 5 for r in doc["summaries"])


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
        ("chernoff", "--exhaustive", "--n", "8", "--k", "2", "--l", "0"),
        ("mgf", "--exhaustive", "--n", "8", "--k", "2", "--l", "0"),
        ("coupon", "--k", "0", "--ells", "2", "--trials", "2"),
        ("flatten", "--n", "0", "--trials", "2"),
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
    code, out, err = run_cli(capsys, "experiment", "chernoff", "--exhaustive", "--deltas", delta)
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
    "argv", [("coupon", "--l", "3"), ("embedding", "--exhaustive"), ("flatten", "--k", "4")]
)
def test_flag_the_runner_does_not_take_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, "experiment", *argv)
    assert code == 2
    assert "takes no" in err


def test_echo_carries_the_dimensions_that_ran(capsys):
    code, out, _ = run_cli(capsys, "experiment", "mgf", "--exhaustive")
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


def test_monte_carlo_mgf_with_one_trial_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "experiment", "mgf", "--trials", "1")
    assert code == 2
    assert out == "" and "trials >= 2" in err


@pytest.mark.parametrize("name", ["chernoff", "mgf"])
def test_trials_with_exhaustive_is_usage_error(capsys, name):
    # an exhaustive run enumerates every subset; --trials would only be echoed
    code, out, err = run_cli(
        capsys, "experiment", name, "--exhaustive", "--n", "8", "--k", "2", "--l", "3",
        "--trials", "5",
    )
    assert code == 2
    assert out == "" and "takes no trials" in err
