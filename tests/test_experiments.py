import csv
import hashlib
import inspect
import itertools
import json
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import srhtlab.experiments as exp_mod
from srhtlab.experiments import (
    CSV_COLUMNS,
    TrialPlan,
    monte_carlo_slack,
    run_chernoff_validation,
    run_coupon_trials,
    run_embedding_trials,
    run_flattening_trials,
    run_mgf_domination,
    run_row_norm_trials,
    summaries_to_csv,
    summaries_to_json,
)


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        TrialPlan(8, 2, 3, trials=0, seed=0)
    with pytest.raises(ValueError):
        TrialPlan(8, 2, 3, trials=1, seed=0, mode="bogus")
    with pytest.raises(ValueError):
        TrialPlan(64, 2, 32, trials=1, seed=0, mode="exhaustive")  # C(64,32) over cap
    TrialPlan(16, 2, 6, trials=1, seed=0, mode="exhaustive")


def test_slack_rule():
    assert monte_carlo_slack(0.5, 100) == pytest.approx(4 * math.sqrt(0.25 / 100))
    assert monte_carlo_slack(7.0, 100) == 0.0  # bound capped at 1


# --- embedding ----------------------------------------------------------------

def test_embedding_full_sample_never_violates():
    s = run_embedding_trials(16, 4, ell=16, trials=25, seed=3)
    assert s.empirical_frequency == 0.0
    assert s.extreme_sigma_min == pytest.approx(1.0, abs=1e-8)
    assert s.extreme_sigma_max == pytest.approx(1.0, abs=1e-8)
    assert s.passed


def test_embedding_uses_formula_when_ell_omitted():
    s = run_embedding_trials(4096, 4, trials=5, seed=1)
    from srhtlab.bounds import embedding_sample_size

    assert s.plan.ell == embedding_sample_size(4, 4096).ell


def test_embedding_rejects_oversized_requirement():
    with pytest.raises(ValueError):
        run_embedding_trials(64, 16, trials=2, seed=0)  # formula ell > n
    with pytest.raises(ValueError):
        run_embedding_trials(16, 4, ell=17, trials=2, seed=0)


def test_embedding_names_why_the_sample_size_rule_does_not_apply():
    # below k = 2 the rule has no size to give; above n its size is too big
    with mock.patch.object(exp_mod, "draw_signs_and_indices", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match=r"needs k >= 2, got k=1; give ell \(--l\)"):
            run_embedding_trials(1024, 1, trials=2)
        with pytest.raises(ValueError, match="required sample size 1454 exceeds n=64"):
            run_embedding_trials(64, 16, trials=2)
    s = run_embedding_trials(1024, 1, ell=4, trials=2)
    assert s.plan.ell == 4 and s.analytic_bound == 3.0


def test_embedding_tiny_sample_fails_criterion():
    # ell = k gives a nearly-singular sketch almost every trial
    s = run_embedding_trials(64, 16, ell=16, trials=40, seed=0)
    assert s.empirical_frequency > 0.9
    assert not s.passed


# --- row norms ------------------------------------------------------------

def test_rownorm_square_case_never_exceeds():
    # k = n: transformed basis is orthogonal, every row norm is exactly 1
    # while the level is 1 + sqrt(8 log(beta n)/n) > 1
    s = run_row_norm_trials(32, 32, 4.0, trials=10, seed=2)
    assert s.empirical_frequency == 0.0
    assert s.extreme_sigma_max == pytest.approx(1.0, abs=1e-10)
    assert s.passed


def test_rownorm_small_case_passes():
    s = run_row_norm_trials(256, 8, 8.0, trials=200, seed=4)
    assert s.passed
    assert 0.0 <= s.empirical_frequency <= 1.0


def test_rownorm_second_pass_keeps_square_bases_orthonormal():
    # one pass of Cholesky QR leaves a defect of 1.6e-6 here, which trips the
    # 1e-8 check; the second pass brings it to rounding level
    defect = _Recorder(exp_mod.orthonormality_defect)
    with mock.patch.object(exp_mod, "orthonormality_defect", defect):
        s = run_row_norm_trials(64, 64, 2.0, trials=50, seed=0)
    assert s.passed and len(defect.calls) == 50
    for (w,), _ in defect.calls:
        assert np.max(np.abs(np.sqrt(np.sum(w * w, axis=1)) - 1.0)) <= 1e-10


@pytest.mark.parametrize(
    "n, k, message",
    [
        (0, 1, "n must be a positive power of two, got 0"),
        (12, 4, "n must be a positive power of two, got 12"),
        (64, 0, "need 1 <= k <= n, got k=0, n=64"),
        (64, 65, "need 1 <= k <= n, got k=65, n=64"),
    ],
)
def test_rownorm_rejects_bad_dimensions_before_drawing(n, k, message):
    with mock.patch.object(exp_mod, "derived_rng", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match=message):
            run_row_norm_trials(n, k, 2.0, trials=2)


def _householder_max_row_norms(n, k, trials, seed):
    """Largest row norm per trial by the Householder route: sign-fixed QR of
    the Gaussian from (seed, 0, 0, i), signs from (seed, 1, 0, i), then the
    transform of a copy."""
    from srhtlab.linalg import random_orthonormal
    from srhtlab.srht import derived_rng, rademacher_signs
    from srhtlab.wht import fwht

    norms = []
    for i in range(trials):
        basis = random_orthonormal(n, k, (seed, 0, 0, i))
        signs = rademacher_signs(derived_rng(seed, 1, 0, i), n)
        w = fwht(signs[:, None] * basis)
        norms.append(float(np.sqrt(np.max(np.sum(w * w, axis=1)))))
    return norms


@st.composite
def _rownorm_shapes(draw):
    n = 2 ** draw(st.integers(1, 12))
    k = n if draw(st.booleans()) and n <= 32 else draw(st.integers(1, min(n, 32)))
    return n, k


# log(beta n) runs log-uniformly from 1e-5, where the level sits just above
# sqrt(k/n) and nearly every trial exceeds it, to 40, far above any row norm;
# the rectangular examples put the level between the row norms of their trials
@settings(max_examples=60)
@given(
    shape=_rownorm_shapes(),
    log_beta_n=st.floats(-5.0, 1.6).map(lambda e: 10.0**e),
    trials=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(2, 1), log_beta_n=0.02, trials=4, seed=0)
@example(shape=(256, 8), log_beta_n=0.5, trials=4, seed=3)
@example(shape=(4096, 16), log_beta_n=0.9, trials=4, seed=12345)
@example(shape=(4096, 32), log_beta_n=0.75, trials=4, seed=1)
@example(shape=(32, 32), log_beta_n=0.01, trials=4, seed=2)
def test_rownorm_equals_the_householder_route(shape, log_beta_n, trials, seed):
    from srhtlab.bounds import row_norm_bound

    n, k = shape
    beta = math.exp(log_beta_n) / n
    norms = _householder_max_row_norms(n, k, trials, seed)
    level = row_norm_bound(n, k, beta).value
    s = run_row_norm_trials(n, k, beta, trials=trials, seed=seed)
    assert round(s.empirical_frequency * trials) == sum(m >= level for m in norms)
    assert abs(s.extreme_sigma_min - min(norms)) <= 1e-12
    assert abs(s.extreme_sigma_max - max(norms)) <= 1e-12


# --- flattening -----------------------------------------------------------

def test_flatten_basis_vector_direction():
    # x = e_1: components of the transformed vector all have magnitude
    # n**-0.5 < sqrt(log n / n), so no trial exceeds
    n = 64
    e1 = np.zeros(n)
    e1[0] = 1.0
    s = run_flattening_trials(n, trials=50, seed=6, direction=e1)
    assert s.empirical_frequency == 0.0
    assert s.extreme_sigma_max == pytest.approx(n**-0.5, rel=1e-12)
    assert s.passed


@pytest.mark.parametrize(
    "direction",
    [np.full(64, np.nan), np.zeros(64), np.r_[np.inf, np.ones(63)], np.full(64, 1e200)],
    ids=["nan", "zero", "inf", "norm-overflows"],
)
def test_flatten_rejects_a_bad_direction_before_drawing(direction):
    # each once passed with frequency 0; the first three with extremes
    # inf / -inf, which are not JSON
    with mock.patch.object(exp_mod, "derived_rng", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match="direction must be finite and nonzero"):
            run_flattening_trials(64, trials=5, direction=direction)


def test_flatten_union_bound_recorded_raw():
    s = run_flattening_trials(1024, trials=10, seed=7)
    assert s.analytic_bound == pytest.approx(64.0)  # vacuous, recorded as-is
    assert s.passed


# --- coupons -------------------------------------------------------------

def test_coupon_full_sample_always_covers():
    (s,) = run_coupon_trials(2, [4], trials=300, seed=8)
    assert s.empirical_frequency == 1.0
    assert s.analytic_bound == 1.0
    assert s.passed


def test_coupon_k2_matches_oracle():
    (s,) = run_coupon_trials(2, [2], trials=3000, seed=9)
    assert s.analytic_bound == pytest.approx(2 / 3, rel=1e-15)
    assert abs(s.empirical_frequency - 2 / 3) <= 4 * math.sqrt((2 / 3) * (1 / 3) / 3000)
    assert s.passed


def test_coupon_sub_k_sample_is_rank_deficient():
    (s,) = run_coupon_trials(4, [3], trials=50, seed=10)
    assert s.empirical_frequency == 0.0
    assert s.analytic_bound == 0.0
    assert s.passed


def test_coupon_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        run_coupon_trials(3, [3], trials=5, seed=0)


# Full-rank counts out of 400 trials at k=4, ell in (4, 6, 8, 10), recorded
# with the draw layout fixed; they pin both the random stream and every rank
# decision of the spectrum kernel.
GOLDEN_COUPON_COUNTS = {0: [53, 231, 350, 387], 12345: [53, 226, 346, 390]}


@pytest.mark.parametrize("seed", sorted(GOLDEN_COUPON_COUNTS))
def test_coupon_full_rank_frequencies_match_golden(seed):
    out = run_coupon_trials(4, [4, 6, 8, 10], trials=400, seed=seed)
    assert [s.empirical_frequency for s in out] == [
        c / 400 for c in GOLDEN_COUPON_COUNTS[seed]
    ]


def test_coupon_grid_elapsed_is_per_point():
    start = time.perf_counter()
    out = run_coupon_trials(4, [4, 6, 8, 10], trials=200, seed=0)
    wall = time.perf_counter() - start
    assert all(s.elapsed_seconds > 0.0 for s in out)
    assert sum(s.elapsed_seconds for s in out) <= wall


def test_flatten_rejects_a_dimension_that_is_not_a_power_of_two():
    for n in (0, 12):
        with pytest.raises(ValueError, match=f"n must be a positive power of two, got {n}"):
            run_flattening_trials(n, trials=2)


def test_flatten_one_point():
    # n = 1: |H D x| = 1 always reaches the threshold sqrt(log(1)/1) = 0, and
    # the union bound is 1 * 2 exp(0)
    s = run_flattening_trials(1, trials=5, seed=0)
    assert (s.empirical_frequency, s.analytic_bound, s.passed) == (1.0, 2.0, True)


# --- chernoff -------------------------------------------------------------

def test_chernoff_exhaustive_dominates_everywhere():
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    out = run_chernoff_validation(8, 2, 3, grid, seed=11, mode="exhaustive")
    assert len(out) == 18
    assert all(s.passed for s in out)
    assert all(s.plan.trials == math.comb(8, 3) for s in out)


def test_chernoff_zero_deviation_is_trivial():
    out = run_chernoff_validation(8, 2, 3, [0.0], seed=12, mode="exhaustive")
    lower = next(s for s in out if s.name.startswith("chernoff_lower"))
    assert lower.analytic_bound == pytest.approx(2.0)  # bound is k >= any probability
    assert lower.passed


def test_chernoff_monte_carlo_tracks_exhaustive():
    grid = [0.3, 0.6]
    exact = run_chernoff_validation(8, 2, 3, grid, seed=13, mode="exhaustive")
    sampled = run_chernoff_validation(8, 2, 3, grid, seed=13, mode="monte_carlo", trials=4000)
    for e, s in zip(exact, sampled):
        b = min(e.empirical_frequency, 1.0)
        slack = 4 * math.sqrt(max(b * (1 - b), 1e-12) / 4000)
        assert abs(s.empirical_frequency - e.empirical_frequency) <= slack
        assert s.passed


@pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize("delta", [1.5, math.nan, -0.1])
def test_chernoff_rejects_a_bad_deviation_before_any_subset(mode, delta):
    stacks = _Recorder(exp_mod._sampled_gram_eigenvalues)
    with mock.patch.object(exp_mod, "_sampled_gram_eigenvalues", stacks):
        with pytest.raises(ValueError, match="deviation"):
            run_chernoff_validation(16, 2, 6, [0.5, delta], mode=mode, trials=50)
    assert stacks.calls == []


def test_chernoff_exhaustive_cap():
    with pytest.raises(ValueError):
        run_chernoff_validation(64, 2, 32, [0.5], seed=0, mode="exhaustive")


def test_chernoff_bound_uses_realized_parameters():
    # mu_min = mu_max = ell/n for the rank-one family; B is the largest
    # squared row norm of the realized fixture matrix
    from srhtlab.bounds import ChernoffParams, chernoff_lower_tail, chernoff_upper_tail
    from srhtlab.linalg import random_orthonormal

    n, k, ell, seed = 8, 2, 3, 11
    out = run_chernoff_validation(n, k, ell, [0.4], seed=seed, mode="exhaustive")
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    b_max = float(np.max(np.sum(w * w, axis=1)))
    params = ChernoffParams(k, b_max, ell / n, ell / n, 0.4)
    lower = next(s for s in out if "lower" in s.name)
    upper = next(s for s in out if "upper" in s.name)
    assert lower.analytic_bound == pytest.approx(chernoff_lower_tail(params), rel=1e-12)
    assert upper.analytic_bound == pytest.approx(chernoff_upper_tail(params), rel=1e-12)


def test_chernoff_exhaustive_matches_independent_enumeration():
    # recount the exact tail with numpy's eigensolver and raw itertools
    import itertools

    from srhtlab.linalg import random_orthonormal

    n, k, ell, seed, d = 8, 2, 3, 19, 0.5
    out = run_chernoff_validation(n, k, ell, [d], seed=seed, mode="exhaustive")
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    mu = ell / n
    lam_min, lam_max = [], []
    for subset in itertools.combinations(range(n), ell):
        sub = w[list(subset), :]
        eig = np.linalg.eigvalsh(sub.T @ sub)
        lam_min.append(eig[0])
        lam_max.append(eig[-1])
    p_lower = np.mean(np.asarray(lam_min) <= (1 - d) * mu)
    p_upper = np.mean(np.asarray(lam_max) >= (1 + d) * mu)
    lower = next(s for s in out if "lower" in s.name)
    upper = next(s for s in out if "upper" in s.name)
    assert lower.empirical_frequency == pytest.approx(p_lower, abs=1e-12)
    assert upper.empirical_frequency == pytest.approx(p_upper, abs=1e-12)


# --- mgf domination ---------------------------------------------------------

def test_mgf_theta_zero_gives_dimension():
    out = run_mgf_domination(6, 2, 2, [0.0], seed=14, mode="exhaustive")
    s = out[0]
    assert s.extreme_sigma_min == pytest.approx(2.0, rel=1e-12)
    assert s.extreme_sigma_max == pytest.approx(2.0, rel=1e-12)
    assert s.passed


def test_mgf_single_draw_models_coincide():
    out = run_mgf_domination(6, 2, 1, [0.7, 1.3], seed=15, mode="exhaustive")
    for s in out:
        assert s.extreme_sigma_min == pytest.approx(s.extreme_sigma_max, rel=1e-12)
        assert s.passed


def test_mgf_exhaustive_domination_holds():
    out = run_mgf_domination(8, 2, 3, [0.5, 1.0, 2.0], seed=16, mode="exhaustive")
    for s in out:
        assert s.extreme_sigma_min <= s.extreme_sigma_max * (1 + 1e-10)
        assert s.empirical_frequency <= 1.0 + 1e-10
        assert s.passed


def test_mgf_with_replacement_matches_sequence_enumeration():
    # the multiset-weighted average must equal brute force over all n^ell
    # ordered sequences
    import itertools

    from srhtlab.linalg import random_orthonormal

    n, k, ell, seed, theta = 4, 2, 3, 20, 1.3
    out = run_mgf_domination(n, k, ell, [theta], seed=seed, mode="exhaustive")
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    values = []
    for seq in itertools.product(range(n), repeat=ell):
        y = sum(np.outer(w[j], w[j]) for j in seq)
        values.append(np.sum(np.exp(theta * np.linalg.eigvalsh(y))))
    brute = float(np.mean(values))
    assert out[0].extreme_sigma_max == pytest.approx(brute, rel=1e-12)


def test_mgf_monte_carlo_mode():
    out = run_mgf_domination(8, 2, 3, [1.0], seed=17, mode="monte_carlo", trials=500)
    assert out[0].passed


def test_mgf_monte_carlo_needs_two_trials():
    # one sample has no standard error to allow for
    with pytest.raises(ValueError, match="trials >= 2"):
        run_mgf_domination(8, 2, 3, [1.0], seed=17, mode="monte_carlo", trials=1)


def test_exhaustive_plan_needs_a_sample():
    for runner in (run_chernoff_validation, run_mgf_domination):
        with pytest.raises(ValueError, match="ell"):
            runner(8, 2, 0, [0.5], mode="exhaustive")


def test_mgf_sequence_cap():
    with pytest.raises(ValueError):
        run_mgf_domination(16, 2, 8, [1.0], seed=0, mode="exhaustive")  # 16^8 sequences


@pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize(
    "theta, message",
    [
        (math.nan, "theta must be finite"),
        (math.inf, "theta must be finite"),
        (2000.0, "leaves the float64 range"),  # exp(2000 * lambda) overflows
    ],
)
def test_mgf_rejects_theta_outside_the_float_range(mode, theta, message):
    with pytest.raises(ValueError, match=message):
        run_mgf_domination(8, 2, 3, [1.0, theta], seed=0, mode=mode, trials=50)


def test_mgf_rejects_an_overflowed_standard_error():
    # at theta = 200 the traces (about 1e171) are finite but their squared
    # deviations overflow, which once gave an infinite allowance and a pass
    with pytest.raises(ValueError, match="leaves the float64 range"):
        run_mgf_domination(8, 2, 3, [200.0], seed=0, mode="monte_carlo", trials=300)


def test_mgf_rejects_underflowed_traces():
    # k = 1: every sum has a positive eigenvalue, so both means underflow to
    # 0 and the ratio would be 0 / 0
    with pytest.raises(ValueError, match="leaves the float64 range"):
        run_mgf_domination(8, 1, 3, [-1e6], seed=0, mode="exhaustive")


# --- reproducibility and serialization --------------------------------------

def test_summaries_reproducible():
    a = run_embedding_trials(64, 4, ell=32, trials=15, seed=21)
    b = run_embedding_trials(64, 4, ell=32, trials=15, seed=21)
    assert a == b  # elapsed_seconds excluded from comparison
    assert a.elapsed_seconds > 0.0


def test_coupon_reproducible_across_runs():
    a = run_coupon_trials(2, [2, 3], trials=500, seed=22)
    b = run_coupon_trials(2, [2, 3], trials=500, seed=22)
    assert a == b
    assert summaries_to_json(a, {}, include_timing=False) == summaries_to_json(
        b, {}, include_timing=False
    )


def test_csv_has_spec_columns():
    out = run_coupon_trials(2, [2], trials=100, seed=23)
    text = summaries_to_csv(out)
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 2
    (row,) = csv.DictReader(text.splitlines())
    assert row["seed"] == "23"  # enough, with the plan columns, to rerun the row


def test_timing_free_csv_drops_elapsed_and_is_byte_identical():
    a = summaries_to_csv(run_coupon_trials(2, [2, 3], trials=200, seed=25), include_timing=False)
    b = summaries_to_csv(run_coupon_trials(2, [2, 3], trials=200, seed=25), include_timing=False)
    assert a == b
    header = a.splitlines()[0].split(",")
    assert header == [c for c in CSV_COLUMNS if c != "elapsed_seconds"]
    assert all(len(row) == len(header) for row in csv.reader(a.splitlines()))


def test_json_records_roundtrip():
    s = run_flattening_trials(64, trials=20, seed=24)
    doc = json.loads(summaries_to_json([s], {"seed": 24}))
    assert doc["schema"] == 1 and doc["config"] == {"seed": 24}
    (record,) = doc["summaries"]
    assert record["name"] == "flatten"
    assert record["n"] == 64
    assert record["passed"] is True
    assert set(record) >= {"empirical", "bound", "seed", "mode", "elapsed_seconds"}


# --- blocked trials ---------------------------------------------------------

# SHA-256 of summaries_to_json(summaries, {}, include_timing=False).  The
# coupon and Chernoff hashes were recorded when every trial and subset was
# computed on its own; the blocked runners must reproduce them byte for byte.
# The embedding and flatten hashes were recorded with blocked trials; the
# per-trial records they replaced are pinned as literals in
# GOLDEN_EMBEDDING_FLATTEN.
# The row-norm hashes were recorded with CholeskyQR2 bases; the Householder
# records they replaced are pinned as literals in GOLDEN_ROWNORM.  The mgf
# hashes were recorded with repeated rows on the with-replacement side; the
# records of the sqrt(count)-weighted unique rows they replaced are pinned as
# literals in GOLDEN_MGF.
GOLDEN_RUNS = {
    "embedding_256x8": lambda seed: [
        run_embedding_trials(256, 8, ell=64, trials=300, seed=seed)
    ],
    "flatten_1024": lambda seed: [run_flattening_trials(1024, trials=1000, seed=seed)],
    "rownorm_256x8": lambda seed: [run_row_norm_trials(256, 8, 8.0, trials=200, seed=seed)],
    "rownorm_64x64": lambda seed: [run_row_norm_trials(64, 64, 2.0, trials=20, seed=seed)],
    "coupon_k4": lambda seed: run_coupon_trials(4, (4, 6, 8, 10), trials=400, seed=seed),
    "coupon_k2": lambda seed: run_coupon_trials(2, (2, 3), trials=500, seed=seed),
    "chernoff_exhaustive": lambda seed: run_chernoff_validation(
        8, 2, 3, seed=seed, mode="exhaustive"
    ),
    "chernoff_monte_carlo": lambda seed: run_chernoff_validation(
        16, 2, 6, seed=seed, mode="monte_carlo", trials=300
    ),
    "mgf_exhaustive": lambda seed: run_mgf_domination(8, 2, 3, seed=seed, mode="exhaustive"),
    "mgf_monte_carlo": lambda seed: run_mgf_domination(
        8, 2, 3, seed=seed, mode="monte_carlo", trials=300
    ),
}
GOLDEN_SUMMARY_SHA256 = {
    ("embedding_256x8", 0):
        "9ce4c8b6834f092c7c620eac52a5307a6d498ceed3481f79548b173633757f2e",
    ("embedding_256x8", 12345):
        "91ffcadb062de6d6f559c8a22d5ee1589ed2ef715e8a8895ed9d578b2d8978e2",
    ("flatten_1024", 0):
        "4606d4a6f469f323a22b44fb02e10ce6361d848675fa3fdaeb43bd75addcd356",
    ("flatten_1024", 12345):
        "f8a2c52b30d30713dcff0bf8738e62ba8991cd585d6bb5dbe903b6c48899e172",
    ("coupon_k4", 0): "261da3a9c32f67a1d8f61dc23664606c57ea9e8feb7525ee33c164b6ae88957c",
    ("coupon_k4", 12345): "f506f3a7df1620e10bc110740e15b12c662e0ad6deb67387d90730cf08208771",
    ("coupon_k2", 0): "52251dee150d8188c084816b755c105f3c972bde6e5280b07dc63fc6ff20a93d",
    ("coupon_k2", 12345): "9821cbbe6a5f73022d538a4bd7a3dec09d826fec762228e26435966d40fd1751",
    ("chernoff_exhaustive", 0):
        "6fb0abd1e9dee80cfc9162cebaa61c6212905ad3aca4ae67cda09fa34a1f8006",
    ("chernoff_exhaustive", 12345):
        "a860dc48beffc3c9bea40944b4403cb08bdced4d76f44ca14531ce955f3b4b61",
    ("chernoff_monte_carlo", 0):
        "cca4c120e0e509f11897ea9c5a2589d7c31ef5f97d4417dcc53c01e9c76d1c70",
    ("chernoff_monte_carlo", 12345):
        "0327184dd450e4d45f3dead50d86b7a90559c3d0e3e50298e841bba62c8e5011",
    ("rownorm_256x8", 0):
        "78d1b4fc10814b8b5f19d60f6964da128822562d957e28f6f5b5fc4d7ff7e936",
    ("rownorm_256x8", 12345):
        "e78e198a4ab04f2cace8241c1f6b23e88f362c522acce5192332b47d51561482",
    ("rownorm_64x64", 0):
        "9aca153b4af13e5ac3de6bd7248a40650e46b585f780daf007991c07aea4f429",
    ("rownorm_64x64", 12345):
        "e54baf75e40a47b55490996ef3dcef75bef3d4e0d7c0558850be080e31aeaf4b",
    ("mgf_exhaustive", 0):
        "ddd998537aa6230c7fea9d8bca79cf43f61e92378a63e9fd52f2cc7b52759da9",
    ("mgf_exhaustive", 12345):
        "84cb41099ce84cadf847f72ddcff449e989d3e1d3bfbcb0c80970e1f8ae3fdd5",
    ("mgf_monte_carlo", 0):
        "62613b5f570405a783199079b5d4e200299310e265c800636ba625041ccaa086",
    ("mgf_monte_carlo", 12345):
        "ae570688e15f47e952206e56827b3408531d0101a6fd665d0035f8da3ad319be",
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_SUMMARY_SHA256))
def test_timing_free_summaries_match_golden(run, seed):
    text = summaries_to_json(GOLDEN_RUNS[run](seed), {}, include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SUMMARY_SHA256[(run, seed)]


# (exceedances, min, max of the largest row norm) when each basis came from a
# sign-fixed Householder QR; CholeskyQR2 must keep the counts exactly and the
# extremes within 1e-12.
GOLDEN_ROWNORM = {
    ("rownorm_256x8", 0): (0, 0.2673887350499593, 0.38852011088791466),
    ("rownorm_256x8", 12345): (0, 0.26374173960035135, 0.35140913421656206),
    ("rownorm_64x64", 0): (0, 1.0, 1.0000000000000002),
    ("rownorm_64x64", 12345): (0, 1.0, 1.0000000000000002),
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_ROWNORM))
def test_rownorm_matches_the_householder_records(run, seed):
    (s,) = GOLDEN_RUNS[run](seed)
    count, lo, hi = GOLDEN_ROWNORM[(run, seed)]
    assert s.empirical_frequency * s.plan.trials == count
    assert abs(s.extreme_sigma_min - lo) <= 1e-12
    assert abs(s.extreme_sigma_max - hi) <= 1e-12


# (events, min, max) when every embedding trial went through draw_srht ->
# apply_to_matrix and every flatten trial through fwht: violations with
# (min sigma_k, max sigma_1), and exceedances with the extreme largest
# component.  Blocked trials must keep the counts exactly and the extremes
# within 1e-12.
GOLDEN_EMBEDDING_FLATTEN = {
    ("embedding_256x8", 0): (0, 0.5827189186450306, 1.3854659139912489),
    ("embedding_256x8", 12345): (0, 0.6020560241974291, 1.3697713721660179),
    ("flatten_1024", 0): (1000, 0.08411740976580556, 0.15765887668519013),
    ("flatten_1024", 12345): (1000, 0.08439661896151567, 0.16470750621077945),
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_EMBEDDING_FLATTEN))
def test_embedding_and_flatten_match_the_per_trial_records(run, seed):
    (s,) = GOLDEN_RUNS[run](seed)
    count, lo, hi = GOLDEN_EMBEDDING_FLATTEN[(run, seed)]
    assert s.empirical_frequency * s.plan.trials == count
    assert abs(s.extreme_sigma_min - lo) <= 1e-12
    assert abs(s.extreme_sigma_max - hi) <= 1e-12


# (without, with, passed) per theta of the default grid when every subset
# and multiset had its own eigensolve and a repeated row was one row weighted
# by sqrt(count); the stacked repeated-row runner must keep every passed flag
# and both means within 1e-12.
GOLDEN_MGF = {
    ("mgf_exhaustive", 0): [
        (2.4395477358239317, 2.4520357850019363, True),
        (3.044254320266102, 3.1169977009955474, True),
        (5.072491231635619, 5.739637505754657, True),
    ],
    ("mgf_exhaustive", 12345): [
        (2.4386857707883216, 2.450844098190198, True),
        (3.040116703810147, 3.111620338921412, True),
        (5.049130280669369, 5.726681283961658, True),
    ],
    ("mgf_monte_carlo", 0): [
        (2.4205090867274106, 2.470476380686716, True),
        (2.994290221895683, 3.1888023083292456, True),
        (4.894558541685605, 6.290737388312944, True),
    ],
    ("mgf_monte_carlo", 12345): [
        (2.450778700827479, 2.427234601459361, True),
        (3.072161907734223, 3.0486232008616594, True),
        (5.163405786923376, 5.457790756390698, True),
    ],
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_MGF))
def test_mgf_matches_the_weighted_unique_row_records(run, seed):
    out = GOLDEN_RUNS[run](seed)
    assert len(out) == len(GOLDEN_MGF[(run, seed)])
    for s, (without, with_repl, passed) in zip(out, GOLDEN_MGF[(run, seed)]):
        assert abs(s.extreme_sigma_min - without) <= 1e-12
        assert abs(s.extreme_sigma_max - with_repl) <= 1e-12
        assert abs(s.empirical_frequency - without / with_repl) <= 1e-12
        assert s.passed is passed


def _recomputed_passed(record):
    """``passed`` from a timing-free record alone, by the rule its name
    selects: coupon's two-sided rule, mgf's exhaustive domination, or the
    one-sided rule of every bound check."""
    empirical, bound, trials = record["empirical"], record["bound"], record["trials"]
    if record["name"].startswith("coupon"):
        return abs(empirical - bound) <= monte_carlo_slack(bound, trials)
    if record["name"].startswith("mgf"):
        assert record["mode"] == "exhaustive"  # the Monte Carlo allowance is not recorded
        return record["extreme_sigma_min"] <= record["extreme_sigma_max"] * (1.0 + 1e-10)
    slack = 0.0 if record["mode"] == "exhaustive" else monte_carlo_slack(bound, trials)
    return empirical <= bound + slack


@pytest.mark.parametrize("run", sorted(set(GOLDEN_RUNS) - {"mgf_monte_carlo"}))
@pytest.mark.parametrize("seed", [0, 12345])
def test_passed_is_recomputable_from_the_record(run, seed):
    records = json.loads(summaries_to_json(GOLDEN_RUNS[run](seed), {}, include_timing=False))
    for record in records["summaries"]:
        assert record["passed"] is _recomputed_passed(record)


@pytest.mark.parametrize(
    "mode, count, passed",
    [
        ("exhaustive", 2, True),  # 0.2 <= 0.25
        ("exhaustive", 3, False),  # 0.3 > 0.25, although within the Monte Carlo slack
        ("monte_carlo", 3, True),
        ("monte_carlo", 9, False),  # 0.9 > 0.25 + 4 sqrt(0.25 * 0.75 / 10) = 0.798
    ],
)
def test_one_sided_rule_reads_its_slack_from_the_mode(mode, count, passed):
    plan = TrialPlan(n=5, k=1, ell=2, trials=10, seed=0, mode=mode)
    events = np.arange(10) < count
    s = exp_mod._one_sided_summary("t", plan, events, 0.25, np.arange(10.0), -np.arange(10.0), 1.5)
    assert s.passed is passed
    assert s.empirical_frequency == count / 10
    assert (s.extreme_sigma_min, s.extreme_sigma_max, s.elapsed_seconds) == (0.0, 0.0, 1.5)
    assert _recomputed_passed(s.to_record(include_timing=False)) is passed


class _Recorder:
    """Wraps a function and keeps each call's arguments and result."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args):
        result = self.fn(*args)
        self.calls.append((args, result))
        return result


def _trial_counts(block, spare, shape, trial_bytes):
    """A block budget of ``block`` trials plus a spare fraction of one more,
    so the floor in the block size is exercised, and a trial count that
    leaves a partial block or straddles block boundaries."""
    trials = {"B-1": block - 1, "B": block, "B+1": block + 1, "2B+3": 2 * block + 3}[shape]
    return int((block + spare) * trial_bytes), max(trials, 1)


def _coupon_one_trial_at_a_time(k, ell_grid, trials, seed):
    """Gram matrices and (frequency, min sigma_k, max sigma_1) per ell, one
    trial at a time: draw_srht -> apply_to_matrix -> gram ->
    symmetric_eigenvalues, then the runner's full-rank rule."""
    from srhtlab.linalg import RANK_RTOL, decimated_identity, gram, symmetric_eigenvalues
    from srhtlab.srht import apply_to_matrix, draw_srht

    basis = decimated_identity(k)
    grams, results = [], []
    for gi, ell in enumerate(ell_grid):
        g = [gram(apply_to_matrix(draw_srht(k * k, ell, (seed, 1, gi, i)), basis))
             for i in range(trials)]
        eig = np.array([symmetric_eigenvalues(m) for m in g])
        spectra = np.sqrt(np.clip(eig, 0.0, None))
        top, bot = spectra[:, 0], spectra[:, -1]
        full_rank = bot > RANK_RTOL * np.maximum(top, 1.0)
        grams.append(np.array(g))
        results.append((float(np.mean(full_rank)), float(bot.min()), float(top.max())))
    return grams, results


def _check_coupon_blocks(k, ell_grid, trials, seed, block):
    """The blocked runner, with ``block`` trials per block, equals the
    one-trial-at-a-time oracle bit for bit, and sketches and eigensolves
    once per block."""
    sketches = _Recorder(exp_mod.sketch_stack)
    eigensolves = _Recorder(exp_mod.symmetric_eigenvalues)
    with mock.patch.object(exp_mod, "sketch_stack", sketches), \
            mock.patch.object(exp_mod, "symmetric_eigenvalues", eigensolves):
        out = run_coupon_trials(k, ell_grid, trials=trials, seed=seed)
    grams, expected = _coupon_one_trial_at_a_time(k, ell_grid, trials, seed)
    assert len(sketches.calls) == len(ell_grid) * -(-trials // block)
    assert all(len(args[0]) <= block for args, _ in sketches.calls)
    assert len(eigensolves.calls) == len(sketches.calls)
    stacked = np.concatenate([args[0] for args, _ in eigensolves.calls])
    assert np.array_equal(stacked, np.concatenate(grams))
    got = [(s.empirical_frequency, s.extreme_sigma_min, s.extreme_sigma_max) for s in out]
    assert got == expected


@given(
    k=st.sampled_from([1, 2, 4, 8]),
    block=st.integers(1, 6),
    spare=st.floats(0.0, 0.99),
    shape=st.sampled_from(["B-1", "B", "B+1", "2B+3"]),
    ell_picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30)
def test_blocked_coupon_equals_one_trial_at_a_time(k, block, spare, shape, ell_picks, seed):
    budget, trials = _trial_counts(block, spare, shape, k * k * k * 8)
    n = k * k
    ell_grid = [1 + int(f * (n - 1)) for f in ell_picks]
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget):
        _check_coupon_blocks(k, ell_grid, trials, seed, block)


@pytest.mark.parametrize("k", [4, 8])
def test_coupon_at_the_real_budget_equals_one_trial_at_a_time(k):
    block = exp_mod._BLOCK_BYTES // (k * k * k * 8)
    _check_coupon_blocks(k, [k, 2 * k], 2 * block + 3, 31, block)


def _check_row_list_stacks(calls, w, sides, block):
    """``calls`` (recorded _sampled_gram_eigenvalues calls) take each side's
    row lists in turn, in order and repeats included, in one call per block
    of at most ``block`` lists, and give every list's spectrum bit for bit."""
    for row_lists in sides:
        count = -(-len(row_lists) // block)
        side, calls = calls[:count], calls[count:]
        assert all(len(rows) <= block for (_, rows), _ in side)
        assert [list(r) for (_, rows), _ in side for r in rows] == row_lists
        eig = np.concatenate([result for _, result in side])
        alone = [exp_mod._sampled_gram_eigenvalues(w, rows) for rows in row_lists]
        assert np.array_equal(eig, np.array(alone))
    assert calls == []


def _without_replacement_lists(n, ell, mode, trials, seed):
    from srhtlab.srht import derived_rng, sample_without_replacement

    if mode == "exhaustive":
        return [list(s) for s in itertools.combinations(range(n), ell)]
    return [list(sample_without_replacement(n, ell, derived_rng(seed, 1, 0, i)))
            for i in range(trials)]


def _recorded_stacks(runner, block_bytes, *args, **kwargs):
    """Calls of _sampled_gram_eigenvalues that ``runner`` makes with the block
    budget patched to ``block_bytes``."""
    stacks = _Recorder(exp_mod._sampled_gram_eigenvalues)
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(exp_mod, "_sampled_gram_eigenvalues", stacks):
        runner(*args, **kwargs)
    return stacks.calls


@given(
    mode=st.sampled_from(["exhaustive", "monte_carlo"]),
    shape=st.sampled_from([(4, 1, 2), (8, 2, 3), (8, 3, 5), (16, 2, 3)]),
    block=st.integers(1, 7),
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30)
def test_stacked_chernoff_eigenvalues_equal_each_subset_alone(mode, shape, block, trials, seed):
    from srhtlab.linalg import random_orthonormal

    n, k, ell = shape
    calls = _recorded_stacks(
        run_chernoff_validation, block * ell * k * 8,
        n, k, ell, [0.5], seed=seed, mode=mode, trials=trials,
    )
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    _check_row_list_stacks(calls, w, [_without_replacement_lists(n, ell, mode, trials, seed)],
                           block)


@given(
    mode=st.sampled_from(["exhaustive", "monte_carlo"]),
    shape=st.sampled_from([(4, 1, 2), (4, 2, 3), (8, 2, 3), (6, 3, 2)]),
    block=st.integers(1, 7),
    trials=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30)
def test_stacked_mgf_eigenvalues_equal_each_row_list_alone(mode, shape, block, trials, seed):
    # the with-replacement side lists a row once per draw: sorted multisets
    # in enumeration order, or the raw draws of substream (seed, 1, 1, i)
    from srhtlab.linalg import random_orthonormal
    from srhtlab.srht import derived_rng

    n, k, ell = shape
    calls = _recorded_stacks(
        run_mgf_domination, block * ell * k * 8,
        n, k, ell, [0.5], seed=seed, mode=mode, trials=trials,
    )
    if mode == "exhaustive":
        with_lists = [list(m) for m in itertools.combinations_with_replacement(range(n), ell)]
    else:
        with_lists = [list(derived_rng(seed, 1, 1, i).integers(0, n, size=ell))
                      for i in range(trials)]
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    sides = [_without_replacement_lists(n, ell, mode, trials, seed), with_lists]
    _check_row_list_stacks(calls, w, sides, block)


def _check_against_oracle(summary, trials, events, lows, highs, block, sketches):
    """Counts exact, extremes within 1e-12 (bit for bit at one trial per
    block), one ``sketch_stack`` per block of at most ``block`` trials."""
    assert round(summary.empirical_frequency * trials) == int(np.count_nonzero(events))
    assert abs(summary.extreme_sigma_min - min(lows)) <= 1e-12
    assert abs(summary.extreme_sigma_max - max(highs)) <= 1e-12
    if block == 1:
        assert (summary.extreme_sigma_min, summary.extreme_sigma_max) == (min(lows), max(highs))
    assert len(sketches.calls) == -(-trials // block)
    assert all(len(args[0]) <= block for args, _ in sketches.calls)


@st.composite
def _embedding_shapes(draw):
    n = 2 ** draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, 8)))
    return n, k, draw(st.integers(k, n))


@given(
    shape=_embedding_shapes(),
    block=st.integers(1, 6),
    spare=st.floats(0.0, 0.99),
    count=st.sampled_from(["B-1", "B", "B+1", "2B+3"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(256, 8, 64), block=1, spare=0.0, count="2B+3", seed=0)
@example(shape=(64, 16, 16), block=4, spare=0.5, count="B+1", seed=0)
@settings(max_examples=30)
def test_blocked_embedding_equals_one_trial_at_a_time(shape, block, spare, count, seed):
    from srhtlab.bounds import embedding_sample_size
    from srhtlab.linalg import random_orthonormal, singular_values
    from srhtlab.srht import apply_to_matrix, draw_srht

    n, k, ell = shape
    budget, trials = _trial_counts(block, spare, count, n * k * 8)
    sketches = _Recorder(exp_mod.sketch_stack)
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget), \
            mock.patch.object(exp_mod, "sketch_stack", sketches):
        s = run_embedding_trials(n, k, ell=ell, trials=trials, seed=seed)
    basis = random_orthonormal(n, k, (seed, 0, 0, 0))
    spectra = np.array([
        singular_values(apply_to_matrix(draw_srht(n, ell, (seed, 1, 0, i)), basis))
        for i in range(trials)
    ])
    top, bot = spectra[:, 0], spectra[:, -1]
    size = embedding_sample_size(k, n)
    violations = (bot < size.sigma_min) | (top > size.sigma_max)
    _check_against_oracle(s, trials, violations, bot, top, block, sketches)


@given(
    n=st.sampled_from([2**e for e in range(11)]),
    block=st.integers(1, 6),
    spare=st.floats(0.0, 0.99),
    count=st.sampled_from(["B-1", "B", "B+1", "2B+3"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1024, block=1, spare=0.0, count="2B+3", seed=0)
@example(n=1, block=3, spare=0.0, count="B+1", seed=0)
@settings(max_examples=30)
def test_blocked_flatten_equals_one_trial_at_a_time(n, block, spare, count, seed):
    from srhtlab.srht import derived_rng, rademacher_signs
    from srhtlab.wht import fwht

    budget, trials = _trial_counts(block, spare, count, n * 8)
    sketches = _Recorder(exp_mod.sketch_stack)
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget), \
            mock.patch.object(exp_mod, "sketch_stack", sketches):
        s = run_flattening_trials(n, trials=trials, seed=seed)
    g = derived_rng(seed, 0, 0, 0).standard_normal(n)
    x = g / np.linalg.norm(g)
    peaks = np.array([
        np.max(np.abs(fwht(rademacher_signs(derived_rng(seed, 1, 0, i), n) * x)))
        for i in range(trials)
    ])
    events = peaks >= math.sqrt(math.log(n) / n)
    _check_against_oracle(s, trials, events, peaks, peaks, block, sketches)


def test_coupon_memory_is_bounded_by_the_block_budget():
    # Peak traced allocation of a 4000-trial run: the k-eigenvalue spectra,
    # their clipped square roots, and a few 256 KiB blocks.
    # Sketching all 4000 trials in one block would take about 40 MB.
    trials, k, budget = 4000, 8, 256 * 1024
    spectra_bytes = trials * k * 8
    run_coupon_trials(k, [17], trials=50)  # first-use allocations out of the way
    tracemalloc.start()
    try:
        run_coupon_trials(k, [17], trials=trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * spectra_bytes + 4 * budget


# --- headline configurations ------------------------------------------------

# The acceptance configurations, as literals; each runner's keyword defaults
# must be these, since a runner called with only a seed runs its headline.
HEADLINE_DEFAULTS = {
    run_embedding_trials: {"n": 65536, "k": 16, "ell": None, "trials": 200},
    run_row_norm_trials: {"n": 4096, "k": 16, "beta": None, "trials": 2000},
    run_flattening_trials: {"n": 1024, "trials": 1000},
    run_coupon_trials: {"k": 8, "ell_grid": (8, 12, 17, 24), "trials": 10000},
    run_chernoff_validation: {
        "n": 16,
        "k": 2,
        "ell": 6,
        "deviation_grid": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        "mode": "exhaustive",
    },
    run_mgf_domination: {
        "n": 8,
        "k": 2,
        "ell": 3,
        "theta_grid": (0.5, 1.0, 2.0),
        "mode": "exhaustive",
    },
}


@pytest.mark.parametrize("runner", HEADLINE_DEFAULTS, ids=lambda r: r.__name__)
def test_runner_defaults_are_the_headline_configuration(runner):
    params = inspect.signature(runner).parameters
    expected = HEADLINE_DEFAULTS[runner]
    assert {name: params[name].default for name in expected} == expected
    assert params["seed"].default == 0
