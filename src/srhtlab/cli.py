"""Command-line interface: draw sketches, evaluate bounds, run experiments.

Every subcommand's document goes through one writer, ``write_report``:
one JSON document (default) or CSV, to stdout unless --output is given, the
same bytes either way, final newline included.  JSON is the envelope
``{"schema": 1, "config": echo, **sections}``; CSV is the subcommand's rows,
or the document's fields as ``key,value`` rows, through one ``csv.writer``
with "\\n" line endings.  An experiment flag left out takes the runner's
default, so a flagless experiment runs what ``experiment all`` runs.  The
echo of an experiment carries the n, k, ell and beta it ran with.
``sketch`` refuses --l below --k before it draws anything: such a sketch
cannot have rank k.
Exit codes: 0 when everything passed, 1 when an experiment criterion failed,
2 on usage errors or invalid dimensions.

Each experiment is a subcommand of ``experiment`` whose flags are read from
its runner's signature when the parser is built: one flag per keyword the
runner takes (``_FLAGS``), and ``--seed``, ``--format`` and ``--output``,
the only three that ``experiment all`` takes.  ``chernoff`` and ``mgf``
also accept ``--exhaustive`` and ignore it: both only enumerate, and echo
``exhaustive`` true with or without it.  So
argparse itself refuses a flag the runner does not take, and
``srhtlab experiment <name> --help`` lists that runner's flags.  Every
subcommand, ``sketch`` and ``bounds`` included, takes a flag only by its
full name and refuses one it does not take under its own usage line.  The
parser is built once per process.
"""

import argparse
import csv
import dataclasses
import inspect
import io
import json
import re
import sys

from . import bounds as bounds_mod
from . import experiments as exp_mod
from .linalg import random_orthonormal, singular_values
from .srht import draw_stack, sketch_stack

SCHEMA_VERSION = 1

# Experiment name -> name of its runner in srhtlab.experiments.  The runner is
# looked up when it is called, so a wrapper patched onto that module attribute
# (a tracer's, say) is what runs.  Its keyword defaults are the configuration
# an experiment runs without flags; ``experiment all`` runs each in this order.
RUNNERS = {
    "embedding": "run_embedding_trials",
    "rownorm": "run_row_norm_trials",
    "coupon": "run_coupon_trials",
    "chernoff": "run_chernoff_validation",
    "mgf": "run_mgf_domination",
}

# Runner keyword -> (namespace field, flag, argparse options) of the
# experiment flag that sets it.  Each experiment gets the flags of the keywords
# its runner takes, so argparse refuses any other.
_FLAGS = {
    "n": ("n", "--n", {"type": int}),
    "k": ("k", "--k", {"type": int}),
    "ell": ("ell", "--l", {"type": int}),
    "trials": ("trials", "--trials", {"type": int}),
    "beta": ("beta", "--beta", {"type": float, "help": "row-norm beta (default: k)"}),
    "ell_grid": ("ells", "--ells", {"type": int, "nargs": "+"}),
    "deviation_grid": ("deltas", "--deltas", {"type": float, "nargs": "+"}),
    "theta_grid": ("thetas", "--thetas", {"type": float, "nargs": "+"}),
}
# argparse before Python 3.14 takes only "-1" and "-.5" shapes for negative
# numbers, so a value such as -1e-3 would be read as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which refuses an argument it does not take
    itself: a subparser would hand it to the top-level parser, whose error
    shows the top-level usage line instead of the subcommand's.  A prefix of
    a flag is not taken for it, so a new flag cannot change what an old call
    means.  A negative number in exponent form is a value, not a flag."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srhtlab",
        description="Subsampled randomized Hadamard transform toolkit",
    )
    # every subcommand's echo carries the same fields: one that a subcommand
    # has no flag for is echoed with its default here
    parser.set_defaults(
        experiment_name="", exhaustive=False, **{field: None for field, _, _ in _FLAGS.values()}
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_SubcommandParser)

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
    experiments = p_exp.add_subparsers(
        dest="experiment_name",
        required=True,
        help="'all' runs every experiment at its defaults",
    )
    for name, runner_name in RUNNERS.items():
        p = experiments.add_parser(name)
        params = inspect.signature(getattr(exp_mod, runner_name)).parameters
        for keyword, (field, flag, options) in _FLAGS.items():
            if keyword in params:
                p.add_argument(flag, dest=field, **options)
        # kept until the benchmark's exact_bounds workload stops passing it,
        # in the benchmark change that drops it from those calls; both runs
        # enumerate with or without it, and echo so
        if name in ("chernoff", "mgf"):
            p.add_argument(
                "--exhaustive", action="store_true", default=True,
                help="changes nothing: chernoff and mgf always enumerate every subset",
            )
        add_common(p)
    add_common(experiments.add_parser("all"))
    return parser


def write_report(fmt: str, path: str, echo: dict, sections: dict, rows=None) -> None:
    """Write one document to the file ``path``, or to stdout when ``path`` is
    empty: the same bytes either way.

    ``fmt`` "json" writes ``{"schema": SCHEMA_VERSION, "config": echo,
    **sections}``, keys sorted, and a final newline.  "csv" writes ``rows``
    through one ``csv.writer`` with "\\n" line endings; without ``rows``,
    the document's fields as ``key,value`` rows, nested keys dotted.
    """
    doc = {"schema": SCHEMA_VERSION, "config": echo, **sections}
    if fmt == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        rows = [("key", "value"), *_fields(doc)] if rows is None else rows
        csv.writer(buf, lineterminator="\n").writerows(rows)
        text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fields(doc, prefix=""):
    """(dotted key, str(value)) of each leaf of a nested dict, keys sorted."""
    for key, value in sorted(doc.items()):
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from _fields(value, name)
        else:
            yield name, str(value)


def _run_sketch(config: argparse.Namespace) -> int:
    if config.ell < config.k:
        raise ValueError(f"--l must be at least --k, got --l {config.ell} and --k {config.k}")
    seed = (config.seed, 1, 0, 0)
    signs, indices = draw_stack(config.n, config.ell, [seed])
    basis = random_orthonormal(config.n, config.k, (config.seed, 0, 0, 0))
    (sketch,) = sketch_stack(signs, indices, basis)
    spectrum = singular_values(sketch).tolist()
    data = sketch.tolist()
    sections = {
        "operator": {"n": config.n, "l": config.ell, "seed": seed},
        "sketch": {"rows": config.ell, "cols": config.k, "data": data},
        "singular_values": spectrum,
    }
    # two blocks, the sketch and its spectrum: a "rows,cols" line, then one
    # line per row
    rows = [(config.ell, config.k), *data, (1, config.k), spectrum]
    write_report(config.format, config.output_path, vars(config), sections, rows)
    return 0


def _run_bounds(config: argparse.Namespace) -> int:
    k, n = config.k, config.n
    beta = float(k) if config.beta is None else config.beta
    rule = {"alpha": 4.0, "delta": 5.0 / 6.0, "eta": 7.0 / 6.0}
    sections = {
        "embedding": dataclasses.asdict(bounds_mod.embedding_sample_size(k, n)),
        "row_norm": {
            "beta": beta,
            **dataclasses.asdict(bounds_mod.row_norm_bound(n, k, beta)),
        },
        "row_sampling_failure": {
            **rule,
            "value": bounds_mod.row_sampling_failure_bound(k, **rule) if k >= 2 else None,
            "worst_ratio": bounds_mod.row_sampling_worst_ratio(**rule),
        },
    }
    write_report(config.format, config.output_path, vars(config), sections)
    return 0


def _experiment_calls(config: argparse.Namespace) -> list:
    """(runner name, keyword arguments) of each call an experiment makes.

    Only flags that were given become keywords, so a value is never replaced
    by a default and reaches the runner's own checks.  The parser has
    already refused a flag the runner has no parameter for.
    """
    name = config.experiment_name
    if name == "all":
        return [(runner, {}) for runner in RUNNERS.values()]
    given = {
        keyword: getattr(config, field)
        for keyword, (field, _, _) in _FLAGS.items()
        if getattr(config, field) is not None
    }
    return [(RUNNERS[name], given)]


def _single(values):
    """The one value in ``values``; 0 when there are none or several."""
    return values.pop() if len(values) == 1 else 0


def _run_experiment(config: argparse.Namespace) -> int:
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
    ran = {
        **vars(config),
        **{dim: _single({getattr(s.plan, dim) for s in summaries}) for dim in ("n", "k", "ell")},
        "beta": float(_single(betas)),
    }
    records = [s.to_record() for s in summaries]
    rows = [exp_mod.CSV_COLUMNS, *(record.values() for record in records)]
    write_report(config.format, config.output_path, ran, {"summaries": records}, rows)
    return 0 if all(s.passed for s in summaries) else 1


# built once: the parser reads every runner's signature
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        config = _PARSER.parse_args(argv)
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
