"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or on
failure).  The heavyweight runs are module-scoped fixtures so the
determinism criterion can rerun them once more instead of twice more.
Every headline run is its runner called with the seed alone, so the
configuration lives in one place, the runner's keyword defaults; each
criterion asserts once the plan that ran.  Coupon at k = 2 and mgf at
ell = 1 are extra configurations, named below.
"""

import contextlib
import io
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from srhtlab.bounds import (
    coupon_coverage_probability,
    embedding_sample_size,
    row_norm_bound,
    row_sampling_failure_bound,
    row_sampling_worst_ratio,
)
from srhtlab.cli import write_report
from srhtlab.experiments import (
    run_chernoff_validation,
    run_coupon_trials,
    run_embedding_trials,
    run_mgf_domination,
    run_row_norm_trials,
)
from srhtlab.wht import fwht, hadamard_entry, hadamard_matrix

SEED = 0
# extra configurations beside the headline ones
COUPON_K2 = {"k": 2, "ell_grid": [2]}
MGF_ONE_ROW = {"ell": 1}


def report(criterion, ok, detail=""):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] {criterion}: {detail}")
    return ok


def plans(summaries):
    """The distinct (n, k, ell, trials, mode) the ``summaries`` ran."""
    return {(s.plan.n, s.plan.k, s.plan.ell, s.plan.trials, s.plan.mode) for s in summaries}


def coupon_k2_and_headline():
    return run_coupon_trials(**COUPON_K2, seed=SEED), run_coupon_trials(seed=SEED)


@pytest.fixture(scope="module")
def embedding_run():
    return run_embedding_trials(seed=SEED)


@pytest.fixture(scope="module")
def rownorm_run():
    return run_row_norm_trials(seed=SEED)


@pytest.fixture(scope="module")
def coupon_runs():
    return coupon_k2_and_headline()


def test_criterion_1_fwht_oracle_equivalence():
    rng = np.random.default_rng(1234)
    start = time.perf_counter()
    worst = 0.0
    n = 2
    while n <= 4096:
        dense = hadamard_matrix(n)
        # keep the chain to the scalar entry formula explicit
        ii = rng.integers(0, n, size=min(200, n * n))
        jj = rng.integers(0, n, size=ii.size)
        for i, j in zip(ii, jj):
            assert dense[i, j] == hadamard_entry(int(i), int(j), n)
        x = rng.standard_normal((n, 20))
        expected = dense @ x
        got = fwht(x)
        rel = np.linalg.norm(got - expected, axis=0) / np.linalg.norm(expected, axis=0)
        worst = max(worst, float(rel.max()))
        n *= 2
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    assert report(
        "criterion 1 (fast transform vs dense oracle, n<=4096)",
        ok,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_orthogonality_n256():
    h = hadamard_matrix(256)
    defect = float(np.max(np.abs(h.T @ h - np.eye(256))))
    assert report("criterion 2 (orthogonality at n=256)", defect <= 1e-12, f"defect {defect:.2e}")


def test_criterion_3_embedding_window(embedding_run):
    s = embedding_run
    assert plans([s]) == {(65536, 16, 2342, 200, "monte_carlo")}
    size = embedding_sample_size(16, 65536)
    assert size.ell == 2342
    assert size.sigma_min == 1 / math.sqrt(6) and size.sigma_max == math.sqrt(13 / 6)
    bound = 3 / 16
    threshold = bound + 4 * math.sqrt(bound * (1 - bound) / 200)
    assert threshold == pytest.approx(0.298, abs=5e-4)
    ok = s.empirical_frequency <= threshold and s.elapsed_seconds < 90.0
    assert report(
        "criterion 3 (embedding window, k=16 n=65536 ell=2342, 200 trials)",
        ok,
        f"violations {s.empirical_frequency:.4f} <= {threshold:.4f}, "
        f"sigma range [{s.extreme_sigma_min:.4f}, {s.extreme_sigma_max:.4f}], "
        f"{s.elapsed_seconds:.1f}s",
    )
    assert s.passed


def test_criterion_4_row_norm_level(rownorm_run):
    s = rownorm_run
    assert plans([s]) == {(4096, 16, 0, 2000, "monte_carlo")}
    # beta defaults to k, so the bound is 1/16
    assert s.analytic_bound == 1 / 16
    level = row_norm_bound(4096, 16, 16.0)
    assert level.value == pytest.approx(0.20967625281443434, rel=1e-12)
    threshold = 1 / 16 + 4 * math.sqrt((1 / 16) * (15 / 16) / 2000)
    assert threshold == pytest.approx(0.0841, abs=1e-4)
    ok = s.empirical_frequency <= threshold
    assert report(
        "criterion 4 (row-norm level, n=4096 k=16 beta=16, 2000 trials)",
        ok,
        f"exceedance {s.empirical_frequency:.4f} <= {threshold:.4f}, "
        f"level {level.value:.5f}, max seen {s.extreme_sigma_max:.5f}",
    )
    assert s.passed


def test_criterion_5_chernoff_exhaustive_dominance():
    out = run_chernoff_validation(seed=SEED)
    assert plans(out) == {(16, 2, 6, 8008, "exhaustive")}
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    assert [s.name for s in out[::2]] == [f"chernoff_lower(delta={d:g})" for d in grid]
    violations = [s for s in out if s.empirical_frequency > s.analytic_bound]
    ok = not violations and len(out) == 18
    worst_margin = min(s.analytic_bound - s.empirical_frequency for s in out)
    assert report(
        "criterion 5 (matrix tail dominance, exhaustive n=16 k=2 ell=6)",
        ok,
        f"18 grid points over 8008 subsets, min margin {worst_margin:.4f}",
    )
    assert all(s.passed for s in out)


def test_criterion_6_mgf_domination_exhaustive():
    out = run_mgf_domination(seed=SEED)
    assert plans(out) == {(8, 2, 3, 56, "exhaustive")}
    assert [s.name for s in out] == [f"mgf_domination(theta={t:g})" for t in (0.5, 1.0, 2.0)]
    margins = {s.name: s.extreme_sigma_max - s.extreme_sigma_min for s in out}
    ok = all(s.passed for s in out)
    single = run_mgf_domination(**MGF_ONE_ROW, seed=SEED)
    assert plans(single) == {(8, 2, 1, 8, "exhaustive")}
    for s in single:
        equal = abs(s.extreme_sigma_min - s.extreme_sigma_max) <= 1e-12 * s.extreme_sigma_max
        ok = ok and equal
    assert report(
        "criterion 6 (trace-mgf domination, exhaustive n=8 k=2 ell=3)",
        ok,
        "margins " + ", ".join(f"{k}={v:.3e}" for k, v in margins.items()),
    )
    assert all(s.passed for s in out) and all(s.passed for s in single)


def coverage_by_enumeration(k, ell):
    total, covered = 0, 0
    for subset in itertools.combinations(range(k * k), ell):
        total += 1
        covered += len({j // k for j in subset}) == k
    return Fraction(covered, total)


def test_criterion_7_coupon_experiment(coupon_runs):
    k2, k8 = coupon_runs
    assert plans(k2) == {(4, 2, 2, 10_000, "monte_carlo")}
    assert [s.plan.ell for s in k8] == [8, 12, 17, 24]
    assert plans(k8) == {(64, 8, ell, 10_000, "monte_carlo") for ell in (8, 12, 17, 24)}
    ok = True
    details = []
    (s2,) = k2
    assert s2.analytic_bound == float(Fraction(2, 3))
    ok &= abs(s2.empirical_frequency - 2 / 3) <= 4 * math.sqrt((2 / 3) * (1 / 3) / 10_000)
    details.append(f"k=2 ell=2: {s2.empirical_frequency:.4f} vs 2/3")
    for s in k8:
        p = s.analytic_bound
        ok &= abs(s.empirical_frequency - p) <= 4 * math.sqrt(p * (1 - p) / 10_000)
        details.append(f"k=8 ell={s.plan.ell}: {s.empirical_frequency:.4f} vs {p:.4f}")
    for k in (2, 3):
        for ell in range(1, k * k + 1):
            exact = coverage_by_enumeration(k, ell)
            ok &= coupon_coverage_probability(k, ell) == float(exact)
    details.append("oracle == enumeration for k in {2,3}")
    assert report("criterion 7 (coupon coverage)", ok, "; ".join(details))
    assert all(s.passed for s in k2) and all(s.passed for s in k8)


def test_criterion_8_failure_constant_sweep():
    start = time.perf_counter()
    ok = all(
        row_sampling_failure_bound(k, 4.0, 5 / 6, 7 / 6) <= 2.0 / k
        for k in range(2, 10**6 + 1)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    per_call_ns = elapsed / (10**6 - 1) * 1e9
    assert report(
        "criterion 8 (failure bound <= 2/k for k up to 1e6)",
        ok,
        f"{elapsed:.1f}s, {per_call_ns:.0f} ns per call; sup over k >= 2 of bound * k / 2 "
        f"is {row_sampling_worst_ratio(4.0, 5 / 6, 7 / 6):.4f}",
    )


def _timing_free_document(summaries):
    """The JSON bytes the report writer prints for timing-free records."""
    records = [s.to_record(include_timing=False) for s in summaries]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_report("json", "", {}, {"summaries": records})
    return out.getvalue().encode()


def test_criterion_9_determinism(embedding_run, rownorm_run, coupon_runs):
    rerun_embedding = run_embedding_trials(seed=SEED)
    rerun_rownorm = run_row_norm_trials(seed=SEED)
    rerun_coupon = coupon_k2_and_headline()
    first = [embedding_run, rownorm_run, *coupon_runs[0], *coupon_runs[1]]
    second = [rerun_embedding, rerun_rownorm, *rerun_coupon[0], *rerun_coupon[1]]
    equal_fields = first == second
    # byte-for-byte on the serialized summaries, wall-clock timing excluded
    equal_bytes = _timing_free_document(first) == _timing_free_document(second)
    ok = equal_fields and equal_bytes
    assert report(
        "criterion 9 (determinism of criteria 3, 4, 7 reruns)",
        ok,
        f"field equality {equal_fields}, serialized bytes equal {equal_bytes}",
    )
