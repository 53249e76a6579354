"""Command-line interface: draw sketches, evaluate bounds, run experiments.

Output is a single JSON document (default) or CSV, written to stdout unless
--output is given.  Every run echoes its configuration under "config" and
carries "schema": 1.  An experiment flag left out takes the runner's default,
and the echo of an experiment carries the n, k, ell and beta it ran with.
Exit codes: 0 when everything passed, 1 when an experiment criterion failed,
2 on usage errors or invalid dimensions.
"""

import argparse
import dataclasses
import inspect
import json
import re
import sys
from dataclasses import dataclass

from . import bounds as bounds_mod
from . import experiments as exp_mod
from .linalg import matrix_to_csv, random_orthonormal, singular_values
from .srht import apply_to_matrix, draw_srht

# Experiment name -> name of its runner in srhtlab.experiments.  The runner is
# looked up when it is called, so a wrapper patched onto that module attribute
# (a tracer's, say) is what runs.  Its keyword defaults are the configuration
# an experiment runs without flags; ``experiment all`` runs each in this order.
RUNNERS = {
    "embedding": "run_embedding_trials",
    "rownorm": "run_row_norm_trials",
    "flatten": "run_flattening_trials",
    "coupon": "run_coupon_trials",
    "chernoff": "run_chernoff_validation",
    "mgf": "run_mgf_domination",
}

# CliConfig field of each experiment flag -> the runner keyword it sets.
_RUNNER_KEYWORDS = {
    "n": "n",
    "k": "k",
    "ell": "ell",
    "beta": "beta",
    "trials": "trials",
    "ells": "ell_grid",
    "deltas": "deviation_grid",
    "thetas": "theta_grid",
}


@dataclass(frozen=True)
class CliConfig:
    subcommand: str
    experiment_name: str = ""
    n: int | None = None
    k: int | None = None
    ell: int | None = None
    trials: int | None = None
    seed: int = 0
    format: str = "json"
    output_path: str = ""
    exhaustive: bool = False
    beta: float | None = None
    deltas: list | None = None
    thetas: list | None = None
    ells: list | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srhtlab",
        description="Subsampled randomized Hadamard transform toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", dest="output_path", default="", help="file path (default stdout)")

    p_sketch = sub.add_parser("sketch", help="draw an operator, sketch a random orthonormal basis")
    p_sketch.add_argument("--n", type=int, required=True, help="ambient dimension, power of two")
    p_sketch.add_argument("--l", dest="ell", type=int, required=True, help="sketch size")
    p_sketch.add_argument("--k", type=int, required=True, help="basis columns")
    add_common(p_sketch)

    p_bounds = sub.add_parser("bounds", help="evaluate every bound formula for (k, n)")
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--beta", type=float, help="row-norm beta (default: k)")
    add_common(p_bounds)

    p_exp = sub.add_parser(
        "experiment",
        help="run a validation experiment; a flag left out takes the runner's default",
    )
    p_exp.add_argument(
        "experiment_name",
        choices=(*RUNNERS, "all"),
        help="'all' runs every experiment at its defaults",
    )
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--k", type=int)
    p_exp.add_argument("--l", dest="ell", type=int)
    p_exp.add_argument("--trials", type=int)
    p_exp.add_argument("--exhaustive", action="store_true", help="default: Monte Carlo")
    p_exp.add_argument("--beta", type=float, help="row-norm beta (default: k)")
    p_exp.add_argument("--deltas", type=float, nargs="+")
    p_exp.add_argument("--thetas", type=float, nargs="+")
    p_exp.add_argument("--ells", type=int, nargs="+")
    add_common(p_exp)
    # argparse before Python 3.14 takes only "-1" and "-.5" shapes for negative
    # numbers, so a grid value such as -1e-3 would be read as an unknown option
    p_exp._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return parser


def _parse(argv) -> CliConfig:
    ns = _build_parser().parse_args(argv)
    fields = {f.name for f in dataclasses.fields(CliConfig)}
    return CliConfig(**{k: v for k, v in vars(ns).items() if k in fields})


def _emit(text: str, config: CliConfig) -> None:
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _matrix_record(a) -> dict:
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": a.tolist()}


def _run_sketch(config: CliConfig) -> int:
    op = draw_srht(config.n, config.ell, (config.seed, 1, 0, 0))
    basis = random_orthonormal(config.n, config.k, (config.seed, 0, 0, 0))
    sketch = apply_to_matrix(op, basis)
    spectrum = singular_values(sketch)
    if config.format == "json":
        doc = {
            "schema": exp_mod.SCHEMA_VERSION,
            "config": dataclasses.asdict(config),
            "operator": {"n": op.n, "l": op.ell, "seed": op.seed},
            "sketch": _matrix_record(sketch),
            "singular_values": spectrum.tolist(),
        }
        _emit(json.dumps(doc, indent=2, sort_keys=True), config)
    else:
        _emit(matrix_to_csv(sketch) + matrix_to_csv(spectrum), config)
    return 0


def _run_bounds(config: CliConfig) -> int:
    k, n = config.k, config.n
    beta = float(k) if config.beta is None else config.beta
    rule = {"alpha": 4.0, "delta": 5.0 / 6.0, "eta": 7.0 / 6.0}
    report = {
        "schema": exp_mod.SCHEMA_VERSION,
        "config": dataclasses.asdict(config),
        "embedding": dataclasses.asdict(bounds_mod.embedding_sample_size(k, n)),
        "row_norm": {
            "beta": beta,
            **dataclasses.asdict(bounds_mod.row_norm_bound(n, k, beta)),
        },
        "row_sampling_failure": {
            **rule,
            "value": bounds_mod.row_sampling_failure_bound(k, **rule) if k >= 2 else None,
        },
    }
    if config.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), config)
    else:
        lines = ["key,value"]

        def flatten(prefix, obj):
            if isinstance(obj, dict):
                for key, val in sorted(obj.items()):
                    flatten(f"{prefix}.{key}" if prefix else key, val)
            else:
                lines.append(f"{prefix},{obj}")

        flatten("", report)
        _emit("\n".join(lines) + "\n", config)
    return 0


def _experiment_calls(config: CliConfig) -> list:
    """(runner name, keyword arguments) of each call an experiment makes.

    Only flags that were given become keywords, so a value is never replaced
    by a default and reaches the runner's own checks.  A flag the runner has
    no parameter for is a usage error, and ``all`` takes none.  So is
    ``--trials`` with ``--exhaustive``, whose trial count is the number of
    subsets.
    """
    name = config.experiment_name
    given = {
        keyword: getattr(config, field)
        for field, keyword in _RUNNER_KEYWORDS.items()
        if getattr(config, field) is not None
    }
    if name == "all":
        if given or config.exhaustive:
            raise ValueError(
                "experiment all runs every default; it takes no dimension, trial, grid "
                "or --exhaustive flag"
            )
        return [(runner, {}) for runner in RUNNERS.values()]
    params = inspect.signature(getattr(exp_mod, RUNNERS[name])).parameters
    unused = [
        field
        for field, keyword in _RUNNER_KEYWORDS.items()
        if keyword in given and keyword not in params
    ]
    if "mode" in params:
        given["mode"] = "exhaustive" if config.exhaustive else "monte_carlo"
        if config.exhaustive and "trials" in given:
            raise ValueError(
                f"experiment {name} --exhaustive enumerates every subset; it takes no trials"
            )
    elif config.exhaustive:
        unused.append("exhaustive")
    if unused:
        raise ValueError(f"experiment {name} takes no {', '.join(unused)}")
    return [(RUNNERS[name], given)]


def _single(values):
    """The one value in ``values``; 0 when there are none or several."""
    return values.pop() if len(values) == 1 else 0


def _run_experiment(config: CliConfig) -> int:
    summaries, betas = [], set()
    for runner_name, kwargs in _experiment_calls(config):
        runner = getattr(exp_mod, runner_name)
        result = runner(seed=config.seed, **kwargs)
        result = result if isinstance(result, list) else [result]
        summaries += result
        if "beta" in inspect.signature(runner).parameters:
            # the row-norm runner's beta defaults to its k
            betas.add(float(result[0].plan.k) if config.beta is None else config.beta)
    # n, k and ell as every summary's plan has them (0 where a dimension does
    # not apply or differs across the summaries), beta as the row-norm runner
    # used it
    ran = dataclasses.replace(
        config,
        **{dim: _single({getattr(s.plan, dim) for s in summaries}) for dim in ("n", "k", "ell")},
        beta=float(_single(betas)),
    )
    if config.format == "json":
        _emit(exp_mod.summaries_to_json(summaries, dataclasses.asdict(ran)), config)
    else:
        _emit(exp_mod.summaries_to_csv(summaries), config)
    return 0 if all(s.passed for s in summaries) else 1


def main(argv=None) -> int:
    try:
        config = _parse(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        if config.subcommand == "sketch":
            return _run_sketch(config)
        if config.subcommand == "bounds":
            return _run_bounds(config)
        return _run_experiment(config)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"srhtlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
