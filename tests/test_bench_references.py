"""The benchmark's reference summaries, checked in the test suite.

Every call of the benchmark's workloads (``bench/workloads.py``) runs at its
shapes, at both reference seeds: each CLI call through ``srhtlab.cli.main``,
and the criterion-8 sweep of ``row_sampling_failure_bound`` over k up to
10^6 (about 0.7 s).  Their timing-free records must pass the benchmark's own
check against ``bench/references/``: counts, trials, violations and
``passed`` exact, bounds, sigma extremes, mgf ratios and the sweep's worst
ratio within ``FLOAT_TOLERANCE``.  Every function a traced run wraps
(``bench/metrics.TRACED``) must exist in the package.  The bench files are
only read.
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

def _calls(sweep):
    return [
        (name, index, seed)
        for name, workload in workloads.WORKLOADS.items()
        for index, call in enumerate(workload.calls)
        if (call == workloads.SWEEP) == sweep
        for seed in workloads.REFERENCE_SEEDS
    ]


CALLS = _calls(sweep=False)
SWEEPS = _calls(sweep=True)


def test_every_runner_the_benchmark_calls_is_covered():
    labels = {
        workloads.call_label(workloads.WORKLOADS[name].calls[index])
        for name, index, _ in CALLS + SWEEPS
    }
    assert labels == {
        "experiment embedding",
        "experiment coupon",
        "experiment rownorm",
        "experiment chernoff",
        "experiment mgf",
        workloads.SWEEP,
    }
    for name, _, seed in CALLS + SWEEPS:
        assert workloads.reference_path(name, seed).exists()


@pytest.mark.parametrize("target", metrics.TRACED)
def test_every_traced_name_resolves(target):
    # a traced run looks each "module.function" up under srhtlab with
    # getattr, so a traced function deleted from the package would crash it
    module_name, fn_name = target.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"srhtlab.{module_name}"), fn_name))


def _check_against_reference(name, index, seed):
    checker = workloads.Checker(name, seed)
    assert checker.fields is None  # the seed's own reference, every field
    outcome = workloads.run_call(workloads.WORKLOADS[name].calls[index], seed, Clock())
    checker.check(index, outcome)
    assert checker.failed == 0, checker.problems


@pytest.mark.parametrize(("name", "index", "seed"), CALLS)
def test_cli_call_matches_the_bench_reference(name, index, seed):
    _check_against_reference(name, index, seed)


@pytest.mark.parametrize(("name", "index", "seed"), SWEEPS)
def test_criterion8_sweep_matches_the_bench_reference(name, index, seed):
    _check_against_reference(name, index, seed)
