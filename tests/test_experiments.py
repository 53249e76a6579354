import csv
import math
import time

import numpy as np
import pytest

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


def test_embedding_fresh_basis_flag_changes_draws():
    a = run_embedding_trials(64, 4, ell=32, trials=10, seed=5)
    b = run_embedding_trials(64, 4, ell=32, trials=10, seed=5, fresh_basis=True)
    assert (a.extreme_sigma_min, a.extreme_sigma_max) != (
        b.extreme_sigma_min,
        b.extreme_sigma_max,
    )


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


# --- mgf domination ---------------------------------------------------------

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


def test_mgf_sequence_cap():
    with pytest.raises(ValueError):
        run_mgf_domination(16, 2, 8, [1.0], seed=0, mode="exhaustive")  # 16^8 sequences


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
    assert summaries_to_json(a, include_timing=False) == summaries_to_json(b, include_timing=False)


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
    import json

    s = run_flattening_trials(64, trials=20, seed=24)
    (record,) = json.loads(summaries_to_json([s]))
    assert record["name"] == "flatten"
    assert record["n"] == 64
    assert record["passed"] is True
    assert set(record) >= {"empirical", "bound", "seed", "mode", "elapsed_seconds"}
