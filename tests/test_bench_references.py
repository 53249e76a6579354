"""The benchmark's reference summaries, checked in the test suite.

Each CLI call of the benchmark's workloads (``bench/workloads.py``) runs
through ``srhtlab.cli.main`` at its shapes, at both reference seeds, and its
timing-free records must pass the benchmark's own check against
``bench/references/``: counts, trials and ``passed`` exact, bounds, sigma
extremes and mgf ratios within ``FLOAT_TOLERANCE``.  The criterion-8 sweep
is not a CLI call and is left to the acceptance suite.  Every function a
traced run wraps (``bench/metrics.TRACED``) must exist in the package.  The
bench files are only read.
"""

import importlib
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
try:
    import metrics
    import workloads
    from clock import Clock
finally:
    sys.path.remove(str(BENCH))

CALLS = [
    (name, index, seed)
    for name, workload in workloads.WORKLOADS.items()
    for index, call in enumerate(workload.calls)
    if call != workloads.SWEEP
    for seed in workloads.REFERENCE_SEEDS
]


def test_every_runner_the_benchmark_calls_is_covered():
    runners = {workloads.WORKLOADS[name].calls[index][1] for name, index, _ in CALLS}
    assert runners == {"embedding", "coupon", "rownorm", "chernoff", "mgf"}
    for name, _, seed in CALLS:
        assert workloads.reference_path(name, seed).exists()


@pytest.mark.parametrize("target", metrics.TRACED)
def test_every_traced_name_resolves(target):
    # a traced run looks each "module.function" up under srhtlab with
    # getattr, so a traced function deleted from the package would crash it
    module_name, fn_name = target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"srhtlab.{module_name}"), fn_name))


@pytest.mark.parametrize(("name", "index", "seed"), CALLS)
def test_cli_call_matches_the_bench_reference(name, index, seed):
    checker = workloads.Checker(name, seed)
    assert checker.fields is None  # the seed's own reference, every field
    outcome = workloads.run_call(workloads.WORKLOADS[name].calls[index], seed, Clock())
    checker.check(index, outcome)
    assert checker.failed == 0, checker.problems
