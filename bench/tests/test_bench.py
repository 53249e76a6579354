"""The benchmark's own checks: span self time, wrapper restoration, the
calibrated clock, the reference comparison, reference regeneration and
BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

import contextlib
import copy
import io
import json
import math

import pytest

import clock
import metrics
import run
import workloads
from spans import Tracer
from workloads import FLOAT_TOLERANCE, Checker, Outcome, compare, load_reference

import srhtlab
import srhtlab.cli
import srhtlab.srht
import srhtlab.wht


def _synthetic(tracer, spans):
    """Load (name, parent, start, end) rows straight into the span arrays."""
    for name, parent, start, end in spans:
        tracer.name_ids.append(tracer._name_id(name))
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)


def test_self_time_subtracts_only_direct_children():
    tracer = Tracer(())
    _synthetic(tracer, [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("leaf", 3, 6.0, 6.5),
    ])
    assert tracer.self_times().tolist() == [3.0, 2.0, 1.0, 3.5, 0.5]
    summary = tracer.summary()
    assert summary["leaf"] == {"calls": 2, "self_s": 1.5}
    assert math.fsum(row["self_s"] for row in summary.values()) == 10.0


def test_recorded_self_times_add_up_to_the_outer_span():
    tracer = Tracer(())
    with tracer.span("outer"):
        for _ in range(3):
            with tracer.span("inner"):
                with tracer.span("innermost"):
                    sum(range(1000))
    total = sum(row["self_s"] for row in tracer.summary().values())
    outer = tracer.ends[0] - tracer.starts[0]
    assert total == pytest.approx(outer, abs=1e-12)
    assert tracer.summary()["innermost"]["calls"] == 3


def test_unclosed_span_is_an_error():
    tracer = Tracer(())
    tracer.span("open").__enter__()
    with pytest.raises(RuntimeError):
        tracer.self_times()


def _srhtlab_bindings():
    import sys

    return {
        (key, attr): value
        for key, module in sys.modules.items()
        if module is not None and (key == "srhtlab" or key.startswith("srhtlab."))
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_patches_every_caller_and_restores_them():
    original = srhtlab.wht.fwht_inplace
    before = _srhtlab_bindings()
    tracer = Tracer(metrics.TRACED)
    with tracer:
        assert srhtlab.srht.fwht_inplace is not original
        assert srhtlab.srht.fwht_inplace is srhtlab.wht.fwht_inplace
        with contextlib.redirect_stdout(io.StringIO()):
            code = srhtlab.cli.main(
                ["experiment", "coupon", "--k", "2", "--ells", "2", "--trials", "5"]
            )
    assert code == 0
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["wht.fwht_inplace"]["calls"] == 5
    assert summary["srht.derived_rng"]["calls"] == 5
    assert srhtlab.srht.fwht_inplace is srhtlab.wht.fwht_inplace is original
    assert _srhtlab_bindings() == before


def test_wrappers_are_restored_when_the_run_raises():
    before = _srhtlab_bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer(metrics.TRACED):
            1 / 0
    assert _srhtlab_bindings() == before


def test_clock_divides_each_piece_by_the_slowness_around_it(monkeypatch):
    readings = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(clock, "slowness", lambda kernels: next(readings))
    timer = clock.Clock(("interpreter",))
    assert timer.time(sum, range(1000)) == sum(range(1000))
    with pytest.raises(ZeroDivisionError):
        timer.time(lambda: 1 / 0)
    # both pieces sat between readings whose mean is 2
    assert timer.wall > 0
    assert timer.elapsed == pytest.approx(timer.wall / 2, rel=1e-12)


def test_clock_without_kernels_reads_wall_time():
    timer = clock.Clock()
    timer.time(sum, range(1000))
    assert timer.elapsed == timer.wall > 0


def test_chunked_sweep_matches_one_pass(monkeypatch):
    whole = workloads.criterion8_sweep(clock.Clock(), k_max=500)
    monkeypatch.setattr(workloads, "SWEEP_CHUNK", 7)
    assert workloads.criterion8_sweep(clock.Clock(), k_max=500) == whole


def test_comparison_flags_a_float_beyond_the_budget_and_a_changed_count():
    reference = load_reference("coupon_small", workloads.DEFAULT_SEED)[0]
    assert compare(reference, reference) == []

    within = copy.deepcopy(reference)
    within[0]["bound"] += FLOAT_TOLERANCE / 2
    within[0]["extreme_sigma_min"] -= FLOAT_TOLERANCE / 2
    assert compare(within, reference) == []

    beyond = copy.deepcopy(reference)
    beyond[1]["extreme_sigma_max"] += 2 * FLOAT_TOLERANCE
    assert len(compare(beyond, reference)) == 1

    count = copy.deepcopy(reference)
    count[2]["trials"] += 1
    assert len(compare(count, reference)) == 1

    frequency = copy.deepcopy(reference)
    frequency[3]["empirical"] += 1.0 / frequency[3]["trials"]
    assert len(compare(frequency, reference)) == 1

    verdict = copy.deepcopy(reference)
    verdict[0]["passed"] = not verdict[0]["passed"]
    assert len(compare(verdict, reference)) == 1


def test_mgf_ratio_is_compared_as_a_float():
    reference = load_reference("exact_bounds", workloads.DEFAULT_SEED)[1]
    nudged = copy.deepcopy(reference)
    nudged[0]["empirical"] += FLOAT_TOLERANCE / 2
    assert compare(nudged, reference) == []
    nudged[0]["empirical"] += 2 * FLOAT_TOLERANCE
    assert len(compare(nudged, reference)) == 1


def test_checker_counts_each_kind_of_failed_call():
    checker = Checker("coupon_small", workloads.DEFAULT_SEED)
    good = load_reference("coupon_small", workloads.DEFAULT_SEED)[0]
    checker.check(0, Outcome(0.1, records=copy.deepcopy(good)))
    checker.check(0, Outcome(0.1, raised="ValueError('x')"))
    failing = copy.deepcopy(good)
    failing[0]["passed"] = False
    checker.check(0, Outcome(0.1, exit_code=1, records=failing))
    wrong = copy.deepcopy(good)
    wrong[0]["empirical"] = 0.5
    checker.check(0, Outcome(0.1, records=wrong))
    assert checker.attempted == 4
    assert checker.counts == {"raised": 1, "criterion_failed": 1, "reference_mismatch": 1}
    assert checker.failed == 3


def test_unreferenced_seed_checks_seed_free_fields_only():
    checker = Checker("coupon_small", 987654)
    records = copy.deepcopy(load_reference("coupon_small", workloads.DEFAULT_SEED)[0])
    for record in records:
        record["seed"] = 987654
        record["empirical"] = 0.25
    checker.check(0, Outcome(0.1, records=records))
    assert checker.failed == 0
    records = copy.deepcopy(records)
    records[0]["trials"] = 999
    checker.check(0, Outcome(0.1, records=records))
    assert checker.counts["reference_mismatch"] == 1


def test_regeneration_refuses_to_overwrite_silently(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path)
    monkeypatch.setattr(workloads, "reference_path", lambda name, seed: tmp_path / f"{name}.{seed}")
    monkeypatch.setattr(workloads, "reference_document", lambda name, seed: "new\n")
    path = tmp_path / f"embed_large.{workloads.DEFAULT_SEED}"
    assert run.regenerate_references(force=False) == 0
    assert run.regenerate_references(force=False) == 0
    path.write_text("old\n")
    assert run.regenerate_references(force=False) == 1
    assert path.read_text() == "old\n"
    assert run.regenerate_references(force=True) == 0
    assert path.read_text() == "new\n"


def test_benchmark_json_is_generated_from_the_metric_tables():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    names = [m["name"] for m in committed["per_layer"] + committed["end_to_end"]]
    assert len(names) == len(set(names))
