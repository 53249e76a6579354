import contextlib
import csv
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import generator_oracle as oracle
import srhtlab.experiments as exp_mod
import srhtlab.linalg as linalg_mod
import srhtlab.srht as srht_mod
from srhtlab.cli import main, write_report
from srhtlab.experiments import (
    CSV_COLUMNS,
    TrialPlan,
    monte_carlo_slack,
    run_chernoff_validation,
    run_coupon_trials,
    run_embedding_trials,
    run_mgf_domination,
    run_row_norm_trials,
)


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        TrialPlan(8, 2, 3, trials=0, seed=0)
    with pytest.raises(ValueError):
        TrialPlan(8, 2, 3, trials=1, seed=0, mode="bogus")
    with pytest.raises(ValueError):
        TrialPlan(64, 2, 32, trials=1, seed=0, mode="exhaustive")  # C(64,32) over cap
    # an exhaustive plan's trial count is its subset count, C(16, 6) = 8008
    with pytest.raises(ValueError, match=r"C\(16, 6\) = 8008"):
        TrialPlan(16, 2, 6, trials=1, seed=0, mode="exhaustive")
    TrialPlan(16, 2, 6, trials=8008, seed=0, mode="exhaustive")


def test_slack_rule():
    assert monte_carlo_slack(0.5, 100) == pytest.approx(4 * math.sqrt(0.25 / 100))
    assert monte_carlo_slack(7.0, 100) == 0.0  # bound capped at 1


# each id names the arguments alone
@pytest.mark.parametrize(
    "bound, trials, error",
    [
        pytest.param(math.nan, 10, ValueError, id="nan-10"),
        pytest.param(0.5, 0, ValueError, id="0.5-0"),
        pytest.param(0.5, -3, ValueError, id="0.5--3"),
        pytest.param(-0.1, 10, ValueError, id="-0.1-10"),
        pytest.param(0.5, math.nan, TypeError, id="0.5-nan"),
    ],
)
def test_slack_refuses_a_nan_bound_and_no_trials(bound, trials, error):
    # NaN used to come back as the slack, and 0 trials divided by zero; a
    # NaN trial count is not an integer
    with pytest.raises(error, match="bound >= 0 and trials >= 1|trials must be an integer"):
        monte_carlo_slack(bound, trials)


@pytest.mark.parametrize("trials", [2.5, 3.0, True, "3"])
def test_trial_plan_refuses_a_non_integer_trial_count(trials):
    with pytest.raises(TypeError):
        TrialPlan(16, 2, 3, trials, 0)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_trial_plan_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrialPlan(16, 2, 3, 10, seed)
    assert TrialPlan(16, 2, 3, np.int64(10), np.uint32(7)).trials == 10


# Each runner at a small configuration, called with the integer type
# ``as_int`` gives every integer argument.
SMALL_RUNS = {
    "embedding": lambda i: [run_embedding_trials(i(64), i(4), i(16), trials=i(5), seed=i(3))],
    "rownorm": lambda i: [run_row_norm_trials(i(64), i(4), i(4), trials=i(5), seed=i(3))],
    "coupon": lambda i: run_coupon_trials(i(2), [i(2), i(3)], trials=i(3), seed=i(3)),
    "chernoff": lambda i: run_chernoff_validation(i(8), i(2), i(3), (0.5,), seed=i(3)),
    "mgf": lambda i: run_mgf_domination(i(8), i(2), i(2), (1.0,), seed=i(3)),
}


@pytest.mark.parametrize("run", sorted(SMALL_RUNS))
@pytest.mark.parametrize("as_int", [np.int64, np.uint32, np.int16])
def test_numpy_integer_arguments_give_the_plain_record(run, as_int):
    # ell=np.int64(2), trials=np.int64(3), an np.float64 frequency and
    # passed=np.True_ once reached the record, and JSON refused them
    plain = [s.to_record(include_timing=False) for s in SMALL_RUNS[run](int)]
    numpy = [s.to_record(include_timing=False) for s in SMALL_RUNS[run](as_int)]
    assert numpy == plain
    for record in numpy:
        assert {type(value) for value in record.values()} <= {str, int, float, bool}
    json.dumps(numpy)


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_coupon_trials(ell_grid=(), trials=10),
        lambda: run_chernoff_validation(deviation_grid=()),
        lambda: run_mgf_domination(theta_grid=()),
    ],
    ids=["coupon", "chernoff", "mgf"],
)
def test_an_empty_grid_is_refused_before_drawing(run):
    # each returned [], a run that checked nothing
    with mock.patch.object(exp_mod, "random_orthonormal", side_effect=AssertionError("drew")), \
            mock.patch.object(exp_mod, "draw_stack", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match="must not be empty"):
            run()


@pytest.mark.parametrize(
    "run",
    [
        lambda seed: run_embedding_trials(64, 4, ell=16, trials=3, seed=seed),
        lambda seed: run_row_norm_trials(64, 4, 2.0, trials=3, seed=seed),
        lambda seed: run_row_norm_trials(64, 1, 16.0, trials=3, seed=seed),
        lambda seed: run_coupon_trials(2, (2,), trials=3, seed=seed),
        lambda seed: run_chernoff_validation(8, 2, 3, [0.5], seed=seed),
        lambda seed: run_mgf_domination(seed=seed),
    ],
    ids=["embedding", "rownorm", "rownorm-k1", "coupon", "chernoff", "mgf"],
)
def test_a_negative_seed_is_refused_before_drawing(run):
    with _no_draws():
        with pytest.raises(ValueError, match="seed must be non-negative"):
            run(-1)


@contextlib.contextmanager
def _no_draws():
    """Every first draw of a runner patched to raise: the fixture basis, the
    row-norm runner's fixture normals and signs, and the operator stacks."""
    with contextlib.ExitStack() as stack:
        for name in ("random_orthonormal", "standard_normals", "rademacher_signs", "draw_stack"):
            stack.enter_context(
                mock.patch.object(exp_mod, name, side_effect=AssertionError("drew"))
            )
        yield


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
    with mock.patch.object(exp_mod, "draw_stack", side_effect=AssertionError("drew")):
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
    # one pass of Cholesky QR leaves a defect of up to 1.6e-6 here, far above
    # linalg.ONE_PASS_DEFECT and past the 1e-8 check; every trial takes the
    # second pass, which brings it to rounding level
    defect = _Recorder(linalg_mod.orthonormality_defect)
    with mock.patch.object(linalg_mod, "orthonormality_defect", defect):
        s = run_row_norm_trials(64, 64, 2.0, trials=50, seed=0)
    assert s.passed and len(defect.calls) == 50
    for (w,), _ in defect.calls:
        assert np.max(np.abs(np.sqrt(np.sum(w * w, axis=1)) - 1.0)) <= 1e-10


@pytest.mark.parametrize("n, k", [(4096, 16), (1024, 1)])
def test_rownorm_tall_bases_take_one_pass_after_the_transform(n, k):
    bases = _Recorder(exp_mod._cholesky_qr)
    with mock.patch.object(exp_mod, "_cholesky_qr", bases), mock.patch.object(
        linalg_mod, "_cholesky_r", wraps=linalg_mod._cholesky_r
    ) as factor:
        run_row_norm_trials(n, k, 16.0, trials=20, seed=0)
    assert factor.call_count == len(bases.calls) == 20
    for _, w in bases.calls:
        assert linalg_mod.orthonormality_defect(w) <= linalg_mod.ONE_PASS_DEFECT


@pytest.mark.parametrize("defect", [1.0000001e-8, math.inf, math.nan])
def test_rownorm_refuses_a_transformed_basis_past_the_defect_limit(defect):
    # every defect, the first pass's included, reads past the limit
    with mock.patch.object(linalg_mod, "_gram_defect", return_value=defect):
        with pytest.raises(RuntimeError, match="lost orthonormality"):
            run_row_norm_trials(64, 4, 2.0, trials=2)


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
    with _no_draws():
        with pytest.raises(ValueError, match=message):
            run_row_norm_trials(n, k, 2.0, trials=2)


def _householder_max_row_norms(n, k, trials, seed):
    """Largest row norm per trial by the Householder route: sign-fixed QR of
    the Gaussian from (seed, 0, 0, i), signs from (seed, 1, 0, i), then the
    transform of a copy."""
    from srhtlab.srht import derived_rng
    from srhtlab.wht import fwht

    norms = []
    for i in range(trials):
        q, r = np.linalg.qr(derived_rng(seed, 0, 0, i).standard_normal((n, k)))
        basis = q * np.where(np.diag(r) < 0, -1.0, 1.0)
        signs = oracle.signs(n, (seed, 1, 0, i))
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


# log(beta n) puts the level among the trials' peaks, so some exceed it
@pytest.mark.parametrize(
    "n, log_beta_n, seed", [(1024, 1.0, 0), (64, 0.45, 7), (2, 0.005, 3)]
)
def test_rownorm_at_k1_is_the_single_vector_check(n, log_beta_n, seed):
    # trial i flattens one unit vector x_i = g_i / |g_i|: its largest row norm
    # is max_j |(H D_i x_i)_j|
    from srhtlab.bounds import row_norm_bound
    from srhtlab.srht import derived_rng
    from srhtlab.wht import fwht

    trials, beta = 40, math.exp(log_beta_n) / n
    peaks = []
    for i in range(trials):
        g = derived_rng(seed, 0, 0, i).standard_normal(n)
        x = g / np.linalg.norm(g)
        peaks.append(np.max(np.abs(fwht(oracle.signs(n, (seed, 1, 0, i)) * x))))
    bases = _Recorder(exp_mod._cholesky_qr)
    with mock.patch.object(exp_mod, "_cholesky_qr", bases):
        s = run_row_norm_trials(n, 1, beta, trials=trials, seed=seed)
    # the shares run their blocks side by side, so the calls come in no
    # fixed trial order; the peaks are matched as a multiset
    norms = [np.sqrt(np.max(np.sum(w * w, axis=1))) for _, w in bases.calls]
    assert len(norms) == trials
    assert np.max(np.abs(np.sort(norms) - np.sort(peaks))) <= 1e-12
    exceed = sum(p >= row_norm_bound(n, 1, beta).value for p in peaks)
    assert 0 < exceed < trials
    assert round(s.empirical_frequency * trials) == exceed


def test_rownorm_at_k1_checks_one_vector_against_one_in_sixteen():
    # srhtlab experiment rownorm --n 1024 --k 1 --beta 16: the default beta = k
    # would make the bound 1, which nothing can exceed
    s = run_row_norm_trials(1024, 1, 16.0, trials=1000, seed=0)
    assert s.analytic_bound == 1 / 16
    assert (s.plan.n, s.plan.k, s.empirical_frequency, s.passed) == (1024, 1, 0.0, True)


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


# Tripwires on the draw paths: each block of runner keys has its seeds
# hashed as one array and, where n <= 8 ell, its subsets shuffled as one
# array.  A later edit that silently sends a runner back to numpy's
# per-seed SeedSequence, to the dict shuffle or to a draw per sketch block
# fails here, not only in the bench timings.

def test_coupon_blocks_draw_without_per_seed_words_or_the_dict_shuffle():
    seed_sequence = mock.Mock(wraps=np.random.SeedSequence)
    fisher_yates = mock.Mock(wraps=srht_mod._fisher_yates)
    array_shuffle = mock.Mock(wraps=srht_mod._array_shuffle)
    with mock.patch.object(np.random, "SeedSequence", seed_sequence), \
            mock.patch.object(srht_mod, "_fisher_yates", fisher_yates), \
            mock.patch.object(srht_mod, "_array_shuffle", array_shuffle):
        run_coupon_trials(8, (8, 12, 17, 24), trials=200, seed=0)
    assert seed_sequence.call_count == 0
    assert fisher_yates.call_count == 0
    # a draw of 192 trials and one of 8 per grid point
    assert array_shuffle.call_count == 4 * 2


TRAFFIC_RUNS = {
    "embedding": lambda seed: run_embedding_trials(64, 2, ell=16, trials=20, seed=seed),
    "rownorm": lambda seed: run_row_norm_trials(64, 2, trials=20, seed=seed),
    "coupon": lambda seed: run_coupon_trials(4, (4, 8), trials=30, seed=seed),
}


@pytest.mark.parametrize("seed", [0, 2**32 + 5])
@pytest.mark.parametrize("name", sorted(TRAFFIC_RUNS))
def test_runner_key_blocks_take_the_array_hash(name, seed):
    # every block of two or more seeds a runner hashes is a block of its
    # (seed, domain, stream, trial) keys, with a one-word or a two-word
    # master seed, and gets its words from the array hash; numpy's
    # SeedSequence runs once per one-seed block (a fixture basis), never
    # for a key that drifted from that shape
    word_block = srht_mod._word_block
    sizes = []

    def recorded(seeds):
        words = word_block(seeds)
        assert len(seeds) < 2 or words is not None, seeds[:2]
        sizes.append(len(seeds))
        return words

    seed_sequence = mock.Mock(wraps=np.random.SeedSequence)
    with mock.patch.object(srht_mod, "_word_block", recorded), \
            mock.patch.object(np.random, "SeedSequence", seed_sequence):
        TRAFFIC_RUNS[name](seed)
    assert max(sizes) >= 2
    assert seed_sequence.call_count == sizes.count(1)


def test_coupon_draws_three_sketch_blocks_at_a_time():
    # at n = 64 a trial's draw arrays take 16 n + 8 ell + n <= 1280 bytes
    # (one byte a position), so three sketch blocks of 64 trials fit
    # 256 KiB: 1000 trials take 6 draws per grid point, not one per sketch
    # block (16)
    draws = _Recorder(exp_mod.draw_stack)
    with mock.patch.object(exp_mod, "draw_stack", draws):
        run_coupon_trials(8, (8, 12, 17, 24), trials=1000, seed=0)
    lengths = [len(seeds) for (_, _, seeds), _ in draws.calls]
    assert lengths == ([192] * 5 + [40]) * 4


def test_embedding_draws_take_the_dict_shuffle_once_per_operator():
    # n = 65536 > 8 * 2342; the array shuffle there would hold 65536
    # positions for 2342 picks
    fisher_yates = mock.Mock(wraps=srht_mod._fisher_yates)
    draw_stack = exp_mod.draw_stack
    operators = []

    def counted_draw_stack(n, ell, seeds):
        operators.extend(seeds)
        return draw_stack(n, ell, seeds)

    with mock.patch.object(srht_mod, "_fisher_yates", fisher_yates), \
            mock.patch.object(exp_mod, "draw_stack", counted_draw_stack):
        run_embedding_trials(65536, 16, 2342, trials=2, seed=0)
    assert len(operators) >= 2
    assert fisher_yates.call_count == len(operators)


# --- chernoff -------------------------------------------------------------

def test_chernoff_exhaustive_dominates_everywhere():
    grid = [round(0.1 * i, 1) for i in range(1, 10)]
    out = run_chernoff_validation(8, 2, 3, grid, seed=11)
    assert len(out) == 18
    assert all(s.passed for s in out)
    assert all(s.plan.trials == math.comb(8, 3) for s in out)


def test_chernoff_zero_deviation_is_trivial():
    out = run_chernoff_validation(8, 2, 3, [0.0], seed=12)
    lower = next(s for s in out if s.name.startswith("chernoff_lower"))
    assert lower.analytic_bound == pytest.approx(2.0)  # bound is k >= any probability
    assert lower.passed


@pytest.mark.parametrize("delta", [1.5, math.nan, -0.1])
def test_chernoff_rejects_a_bad_deviation_before_any_subset(delta):
    stacks = _Recorder(exp_mod._sampled_gram_eigenvalues)
    with mock.patch.object(exp_mod, "_sampled_gram_eigenvalues", stacks):
        with pytest.raises(ValueError, match="deviation"):
            run_chernoff_validation(16, 2, 6, [0.5, delta])
    assert stacks.calls == []


def test_chernoff_exhaustive_cap():
    with pytest.raises(ValueError):
        run_chernoff_validation(64, 2, 32, [0.5], seed=0)


def test_chernoff_bound_uses_realized_parameters():
    # mu_min = mu_max = ell/n for the rank-one family; B is the largest
    # squared row norm of the realized fixture matrix
    from srhtlab.bounds import ChernoffParams, chernoff_lower_tail, chernoff_upper_tail
    from srhtlab.linalg import random_orthonormal

    n, k, ell, seed = 8, 2, 3, 11
    out = run_chernoff_validation(n, k, ell, [0.4], seed=seed)
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
    out = run_chernoff_validation(n, k, ell, [d], seed=seed)
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
    out = run_mgf_domination(6, 2, 2, [0.0], seed=14)
    s = out[0]
    assert s.extreme_sigma_min == pytest.approx(2.0, rel=1e-12)
    assert s.extreme_sigma_max == pytest.approx(2.0, rel=1e-12)
    assert s.passed


def test_mgf_single_draw_models_coincide():
    # at ell = 1 both sides list the same n one-row lists in the same blocks,
    # so the two means are the same float and the ratio is exactly 1
    out = run_mgf_domination(6, 2, 1, [0.7, 1.3], seed=15)
    for s in out:
        assert s.extreme_sigma_min == s.extreme_sigma_max
        assert s.empirical_frequency == 1.0
        assert s.passed


def test_mgf_exhaustive_domination_holds():
    out = run_mgf_domination(8, 2, 3, [0.5, 1.0, 2.0], seed=16)
    for s in out:
        assert s.extreme_sigma_min <= s.extreme_sigma_max * (1 + 1e-10)
        assert s.empirical_frequency <= 1.0 + 1e-10
        assert s.passed


def test_mgf_with_replacement_matches_sequence_enumeration():
    # the with-replacement mean must equal a brute force over all n^ell
    # ordered sequences, summed as outer products and solved by numpy
    import itertools

    from srhtlab.linalg import random_orthonormal

    n, k, ell, seed, theta = 4, 2, 3, 20, 1.3
    out = run_mgf_domination(n, k, ell, [theta], seed=seed)
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    values = []
    for seq in itertools.product(range(n), repeat=ell):
        y = sum(np.outer(w[j], w[j]) for j in seq)
        values.append(np.sum(np.exp(theta * np.linalg.eigvalsh(y))))
    brute = float(np.mean(values))
    assert out[0].extreme_sigma_max == pytest.approx(brute, rel=1e-12)


def _multiset_weighted_mean(w, ell, theta):
    """E tr exp(theta * Y) for Y the Gram of ell rows of ``w`` drawn with
    replacement, averaged over the sorted multisets of rows, each weighted by
    its multinomial count ell! / prod(m_i!) of the n^ell sequences."""
    n = w.shape[0]
    total = 0.0
    for multiset in itertools.combinations_with_replacement(range(n), ell):
        count = math.factorial(ell)
        for _, run in itertools.groupby(multiset):
            count //= math.factorial(len(list(run)))
        rows = w[list(multiset)]
        total += count * float(np.sum(np.exp(theta * np.linalg.eigvalsh(rows.T @ rows))))
    return total / n**ell


@pytest.mark.parametrize("n, k, ell", [(8, 2, 3), (6, 3, 2), (4, 2, 3)])
def test_mgf_with_replacement_mean_equals_the_weighted_multisets(n, k, ell):
    # an oracle that reaches the same mean through exchangeability: one
    # term per multiset instead of one per sequence
    from srhtlab.linalg import random_orthonormal

    thetas, seed = [0.5, 1.3, 2.0], 27
    out = run_mgf_domination(n, k, ell, thetas, seed=seed)
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    for s, theta in zip(out, thetas):
        assert abs(s.extreme_sigma_max - _multiset_weighted_mean(w, ell, theta)) <= 1e-12


def test_exhaustive_plan_needs_a_sample():
    for runner in (run_chernoff_validation, run_mgf_domination):
        with pytest.raises(ValueError, match="ell"):
            runner(8, 2, 0, [0.5])


def test_mgf_sequence_cap():
    with pytest.raises(ValueError):
        run_mgf_domination(16, 2, 8, [1.0], seed=0)  # 16^8 sequences


@pytest.mark.parametrize(
    "theta, message",
    [
        (math.nan, "theta must be finite"),
        (math.inf, "theta must be finite"),
        (2000.0, "leaves the float64 range"),  # exp(2000 * lambda) overflows
    ],
)
def test_mgf_rejects_theta_outside_the_float_range(theta, message):
    with pytest.raises(ValueError, match=message):
        run_mgf_domination(8, 2, 3, [1.0, theta], seed=0)


def test_mgf_rejects_underflowed_traces():
    # k = 1: every sum has a positive eigenvalue, so both means underflow to
    # 0 and the ratio would be 0 / 0
    with pytest.raises(ValueError, match="leaves the float64 range"):
        run_mgf_domination(8, 1, 3, [-1e6], seed=0)


# --- reproducibility and serialization --------------------------------------

def _report(summaries, fmt="json", include_timing=False, echo=None):
    """The document ``write_report`` prints for ``summaries``: their records
    under "summaries" in JSON, or a header and one row per record in CSV.
    Timing-free unless ``include_timing``."""
    records = [s.to_record(include_timing=include_timing) for s in summaries]
    rows = [list(records[0]), *(record.values() for record in records)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_report(fmt, "", {} if echo is None else echo, {"summaries": records}, rows)
    return out.getvalue()


def test_summaries_reproducible():
    a = run_embedding_trials(64, 4, ell=32, trials=15, seed=21)
    b = run_embedding_trials(64, 4, ell=32, trials=15, seed=21)
    assert a == b  # elapsed_seconds excluded from comparison
    assert a.elapsed_seconds > 0.0


def test_coupon_reproducible_across_runs():
    a = run_coupon_trials(2, [2, 3], trials=500, seed=22)
    b = run_coupon_trials(2, [2, 3], trials=500, seed=22)
    assert a == b
    assert _report(a) == _report(b)


# One headline-shape embedding (the fixture basis at its largest) and one
# row-norm run, each printing its timing-free summary.
_THREADED_RUNS = {
    "embedding": "run_embedding_trials(65536, 16, ell=2342, trials=3, seed=0)",
    "rownorm": "run_row_norm_trials(4096, 16, trials=5, seed=0)",
}


@pytest.mark.parametrize("run", sorted(_THREADED_RUNS))
def test_timing_free_output_does_not_depend_on_the_blas_thread_count(run):
    script = (
        "from srhtlab.cli import write_report\n"
        "from srhtlab.experiments import *\n"
        f"records = [{_THREADED_RUNS[run]}.to_record(include_timing=False)]\n"
        "write_report('json', '', {}, {'summaries': records})"
    )
    src = str(pathlib.Path(exp_mod.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), threads))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=120
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_csv_has_spec_columns(capsys):
    main(["experiment", "coupon", "--k", "2", "--ells", "2", "--trials", "100", "--seed", "23",
          "--format", "csv"])
    text = capsys.readouterr().out
    assert "\r" not in text  # one line ending, "\n", in every CSV
    header = text.splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(text.splitlines()) == 2
    (row,) = csv.DictReader(text.splitlines())
    assert row["seed"] == "23"  # enough, with the plan columns, to rerun the row


def test_timing_free_csv_drops_elapsed_and_is_byte_identical():
    a = _report(run_coupon_trials(2, [2, 3], trials=200, seed=25), fmt="csv")
    b = _report(run_coupon_trials(2, [2, 3], trials=200, seed=25), fmt="csv")
    assert a == b
    header = a.splitlines()[0].split(",")
    assert header == [c for c in CSV_COLUMNS if c != "elapsed_seconds"]
    assert all(len(row) == len(header) for row in csv.reader(a.splitlines()))


def test_record_fields_are_the_csv_columns_in_order():
    (s,) = run_coupon_trials(2, [2], trials=20, seed=23)
    record = s.to_record()
    assert list(record) == list(CSV_COLUMNS)
    assert list(s.to_record(include_timing=False)) == list(CSV_COLUMNS[:-1])
    assert record == {
        "name": s.name, "n": 4, "k": 2, "ell": 2, "trials": 20, "mode": "monte_carlo",
        "seed": 23, "empirical": s.empirical_frequency, "bound": s.analytic_bound,
        "extreme_sigma_min": s.extreme_sigma_min, "extreme_sigma_max": s.extreme_sigma_max,
        "passed": s.passed, "elapsed_seconds": s.elapsed_seconds,
    }


def test_json_records_roundtrip():
    s = run_row_norm_trials(64, 1, 16.0, trials=20, seed=24)
    doc = json.loads(_report([s], include_timing=True, echo={"seed": 24}))
    assert doc["schema"] == 1 and doc["config"] == {"seed": 24}
    (record,) = doc["summaries"]
    assert record["name"] == "rownorm"
    assert (record["n"], record["k"]) == (64, 1)
    assert record["passed"] is True
    assert set(record) >= {"empirical", "bound", "seed", "mode", "elapsed_seconds"}


# --- blocked trials ---------------------------------------------------------

# SHA-256 of the timing-free document ``_report(summaries)``, without the
# final newline it gained when every document began to go through one
# writer; the hashes were recorded before that.  The
# coupon and Chernoff hashes were recorded when every trial and subset was
# computed on its own; the blocked runners must reproduce them byte for byte.
# The embedding hashes were recorded with blocked trials; the per-trial
# records they replaced are pinned as literals in GOLDEN_EMBEDDING.
# The row-norm hashes were recorded with CholeskyQR2 bases; the Householder
# records they replaced are pinned as literals in GOLDEN_ROWNORM.  The mgf
# hashes were recorded with repeated rows on the with-replacement side; the
# records of the sqrt(count)-weighted unique rows they replaced are pinned as
# literals in GOLDEN_MGF.  The Chernoff, mgf and seed-0 embedding hashes were
# re-recorded when the fixture basis moved from Householder QR to CholeskyQR2;
# the records they replaced are pinned as literals in
# GOLDEN_HOUSEHOLDER_RECORDS.  The mgf hashes were re-recorded again when
# both sides became a plain mean over their row lists, the exhaustive
# with-replacement side every ell-sequence instead of the sorted multisets
# weighted by their multinomial counts: the means moved by about 1e-14 and
# every passed flag held.  The hashes they replaced are
# GOLDEN_MGF_MULTISET_SHA256.  The seed-0 rownorm_64x64 hash was re-recorded
# when a trial's squared row norms moved from np.sum(w * w, axis=1) to one
# einsum pass: its extreme_sigma_min moved from 1.0 to 1.0000000000000002, one
# ulp.  The hash it replaced is GOLDEN_ROWNORM_ROW_SUM_SHA256.  The hashes
# of the runs whose bases are tall were re-recorded when such a basis began
# to take one Cholesky QR pass instead of two (linalg.ONE_PASS_DEFECT); the
# hashes they replaced are GOLDEN_TWO_PASS_SUMMARY_SHA256, and their records
# are pinned as literals in GOLDEN_TWO_PASS_RECORDS.  The embedding hashes
# were re-recorded when a sketch's singular values moved from an SVD to the
# roots of its Gram eigenvalues; the hashes they replaced are
# GOLDEN_SVD_SUMMARY_SHA256, and their records are pinned as literals in
# GOLDEN_SVD_EMBEDDING.  The Monte Carlo Chernoff and mgf runs, with every
# golden and literal of theirs, went when those runners became exhaustive
# only.
GOLDEN_RUNS = {
    "embedding_256x8": lambda seed: [
        run_embedding_trials(256, 8, ell=64, trials=300, seed=seed)
    ],
    "rownorm_256x8": lambda seed: [run_row_norm_trials(256, 8, 8.0, trials=200, seed=seed)],
    "rownorm_64x64": lambda seed: [run_row_norm_trials(64, 64, 2.0, trials=20, seed=seed)],
    "coupon_k4": lambda seed: run_coupon_trials(4, (4, 6, 8, 10), trials=400, seed=seed),
    "coupon_k2": lambda seed: run_coupon_trials(2, (2, 3), trials=500, seed=seed),
    "chernoff_exhaustive": lambda seed: run_chernoff_validation(8, 2, 3, seed=seed),
    "mgf_exhaustive": lambda seed: run_mgf_domination(8, 2, 3, seed=seed),
}
GOLDEN_SUMMARY_SHA256 = {
    ("embedding_256x8", 0):
        "ebfc86871c2d011b46f1ea8ef821b5706b962a867ca01453d5a4e1fde68806e7",
    ("embedding_256x8", 12345):
        "f7e99627abb44df85d639a48c86a5e014295bc3f1dfa77b81bfe825d07d09554",
    ("coupon_k4", 0): "261da3a9c32f67a1d8f61dc23664606c57ea9e8feb7525ee33c164b6ae88957c",
    ("coupon_k4", 12345): "f506f3a7df1620e10bc110740e15b12c662e0ad6deb67387d90730cf08208771",
    ("coupon_k2", 0): "52251dee150d8188c084816b755c105f3c972bde6e5280b07dc63fc6ff20a93d",
    ("coupon_k2", 12345): "9821cbbe6a5f73022d538a4bd7a3dec09d826fec762228e26435966d40fd1751",
    ("chernoff_exhaustive", 0):
        "2480fae6e2a8f382299762b57eee5537e85d2c8105b176ec237f896b479216c5",
    ("chernoff_exhaustive", 12345):
        "3112cd0d513120737dfffbaa2850348061459300bf9f1ba137e806d042be9ce7",
    ("rownorm_256x8", 0):
        "5fc23797e9398c6a580c4c03b126001f1056c81f02feda5c736e71bea4692bc1",
    ("rownorm_256x8", 12345):
        "e78e198a4ab04f2cace8241c1f6b23e88f362c522acce5192332b47d51561482",
    ("rownorm_64x64", 0):
        "4a7dda3aba98af235b64b5bb2a784b4cdb165381760028aa2abaf8c7f968df39",
    ("rownorm_64x64", 12345):
        "e54baf75e40a47b55490996ef3dcef75bef3d4e0d7c0558850be080e31aeaf4b",
    ("mgf_exhaustive", 0):
        "09eb501ddc0d6640602d4c5afe2546b5cf99318f94ab6b4464278f001c3a3eed",
    ("mgf_exhaustive", 12345):
        "3c2afb17aa65e978b413d5fc54fbee50455c33145dd93e344ecfd187c7170fd4",
}

GOLDEN_SVD_SUMMARY_SHA256 = {
    ("embedding_256x8", 0):
        "6e42cc18cb87914dc421c6a86ce70d3a67b30ebbd54b19cd4017f1cc23cb5bb7",
    ("embedding_256x8", 12345):
        "91ffcadb062de6d6f559c8a22d5ee1589ed2ef715e8a8895ed9d578b2d8978e2",
}

GOLDEN_MGF_MULTISET_SHA256 = {
    ("mgf_exhaustive", 0):
        "ebd063178cb6c5119673584b45c9d8b186ba439d105283bbed1f7146a05de84f",
    ("mgf_exhaustive", 12345):
        "3f60b1d661507934178f995f3bf16a056c99ded8a51f0b864f68a73b77b99176",
}

GOLDEN_ROWNORM_ROW_SUM_SHA256 = {
    ("rownorm_64x64", 0):
        "9aca153b4af13e5ac3de6bd7248a40650e46b585f780daf007991c07aea4f429",
}

GOLDEN_TWO_PASS_SUMMARY_SHA256 = {
    ("chernoff_exhaustive", 0):
        "9afe702acbed0228b9a72381f17a8d945300c24b001a7b1a6108ce684c0c0f27",
    ("embedding_256x8", 0):
        "2d471e5d1ed3e1123df771fda7b277b57488dbfcec8f905f5d56ce3260b0b898",
    ("mgf_exhaustive", 0):
        "f775c7fdb1f38a1dbdbf3c2b16b0ee665b033d0f0b8c48466e77422484b7ab6f",
    ("rownorm_256x8", 0):
        "78d1b4fc10814b8b5f19d60f6964da128822562d957e28f6f5b5fc4d7ff7e936",
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_SUMMARY_SHA256))
def test_timing_free_summaries_match_golden(run, seed):
    text = _report(GOLDEN_RUNS[run](seed))
    assert text.endswith("}\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == GOLDEN_SUMMARY_SHA256[(run, seed)]


# (exceedances, min, max of the largest row norm) when each basis came from a
# sign-fixed Householder QR; Cholesky QR must keep the counts exactly and the
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


# (violations, min sigma_k, max sigma_1) when every embedding trial went
# through draw_srht -> apply_to_matrix.  Blocked trials must keep the counts
# exactly and the extremes within 1e-12.
GOLDEN_EMBEDDING = {
    ("embedding_256x8", 0): (0, 0.5827189186450306, 1.3854659139912489),
    ("embedding_256x8", 12345): (0, 0.6020560241974291, 1.3697713721660179),
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_EMBEDDING))
def test_embedding_matches_the_per_trial_records(run, seed):
    (s,) = GOLDEN_RUNS[run](seed)
    count, lo, hi = GOLDEN_EMBEDDING[(run, seed)]
    assert s.empirical_frequency * s.plan.trials == count
    assert abs(s.extreme_sigma_min - lo) <= 1e-12
    assert abs(s.extreme_sigma_max - hi) <= 1e-12


# (violations, min sigma_k, max sigma_1) when each sketch's singular values
# came from an SVD.  The Gram eigensolve must keep the counts exactly and the
# extremes within 1e-14.
GOLDEN_SVD_EMBEDDING = {
    ("embedding_256x8", 0): (0, 0.5827189186450306, 1.3854659139912486),
    ("embedding_256x8", 12345): (0, 0.6020560241974291, 1.3697713721660179),
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_SVD_EMBEDDING))
def test_embedding_keeps_the_svd_records(run, seed):
    (s,) = GOLDEN_RUNS[run](seed)
    count, lo, hi = GOLDEN_SVD_EMBEDDING[(run, seed)]
    assert s.empirical_frequency * s.plan.trials == count
    assert abs(s.extreme_sigma_min - lo) <= 1e-14
    assert abs(s.extreme_sigma_max - hi) <= 1e-14


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


# (events, passed, bound, min, max) per record, in output order, when the
# fixture basis came from a sign-fixed Householder QR; events is the count
# behind the frequency, or the mgf ratio.  Cholesky QR must keep every count
# and passed flag exactly and every float within 1e-12.
GOLDEN_HOUSEHOLDER_RECORDS = {
    ("chernoff_exhaustive", 0): [
        (50, True, 1.9941936742874078, 0.06576678087743802, 0.9677034537609376),
        (40, True, 1.9945682514274055, 0.06576678087743802, 0.9677034537609376),
        (48, True, 1.9760062784073076, 0.06576678087743802, 0.9677034537609376),
        (40, True, 1.9790048509179814, 0.06576678087743802, 0.9677034537609376),
        (48, True, 1.944248280085453, 0.06576678087743802, 0.9677034537609376),
        (40, True, 1.954381735938203, 0.06576678087743802, 0.9677034537609376),
        (45, True, 1.8976579212598024, 0.06576678087743802, 0.9677034537609376),
        (36, True, 1.9217345830017385, 0.06576678087743802, 0.9677034537609376),
        (42, True, 1.8348432719538157, 0.06576678087743802, 0.9677034537609376),
        (34, True, 1.8820593200184959, 0.06576678087743802, 0.9677034537609376),
        (37, True, 1.7541535780128246, 0.06576678087743802, 0.9677034537609376),
        (33, True, 1.8363081188361958, 0.06576678087743802, 0.9677034537609376),
        (29, True, 1.6533770119453042, 0.06576678087743802, 0.9677034537609376),
        (33, True, 1.7853855329568542, 0.06576678087743802, 0.9677034537609376),
        (21, True, 1.5289251185095065, 0.06576678087743802, 0.9677034537609376),
        (29, True, 1.7301451433454176, 0.06576678087743802, 0.9677034537609376),
        (9, True, 1.3728876375828827, 0.06576678087743802, 0.9677034537609376),
        (27, True, 1.671386895855885, 0.06576678087743802, 0.9677034537609376),
    ],
    ("chernoff_exhaustive", 12345): [
        (48, True, 1.9944839081340402, 0.04658858358345635, 0.9555251357925445),
        (43, True, 1.9948397859691147, 0.04658858358345635, 0.9555251357925445),
        (47, True, 1.977200409150046, 0.04658858358345635, 0.9555251357925445),
        (43, True, 1.9800505016210972, 0.04658858358345635, 0.9555251357925445),
        (45, True, 1.9470016118522617, 0.04658858358345635, 0.9555251357925445),
        (39, True, 1.9566402155828087, 0.04658858358345635, 0.9555251357925445),
        (44, True, 1.9026538458302087, 0.04658858358345635, 0.9555251357925445),
        (38, True, 1.925578316612873, 0.04658858358345635, 0.9555251357925445),
        (43, True, 1.842776136370927, 0.04658858358345635, 0.9555251357925445),
        (32, True, 1.8877939551345708, 0.04658858358345635, 0.9555251357925445),
        (39, True, 1.765707898055313, 0.04658858358345635, 0.9555251357925445),
        (29, True, 1.8441736487755385, 0.04658858358345635, 0.9555251357925445),
        (31, True, 1.6692036953308218, 0.04658858358345635, 0.9555251357925445),
        (27, True, 1.7955587379251419, 0.04658858358345635, 0.9555251357925445),
        (18, True, 1.5496185541863599, 0.04658858358345635, 0.9555251357925445),
        (26, True, 1.7427430774756036, 0.04658858358345635, 0.9555251357925445),
        (7, True, 1.398987112617471, 0.04658858358345635, 0.9555251357925445),
        (24, True, 1.6864711729459825, 0.04658858358345635, 0.9555251357925445),
    ],
    ("embedding_256x8", 0): [
        (0, True, 0.375, 0.5827189186450306, 1.3854659139912489),
    ],
    ("mgf_exhaustive", 0): [
        (0.994907068952913, True, 1.0, 2.4395477358239313, 2.452035785001936),
        (0.976662356630481, True, 1.0, 3.0442543202661025, 3.1169977009955474),
        (0.883765085608604, True, 1.0, 5.072491231635619, 5.739637505754658),
    ],
    ("mgf_exhaustive", 12345): [
        (0.9950391265560895, True, 1.0, 2.4386857707883216, 2.450844098190198),
        (0.9770204500154251, True, 1.0, 3.040116703810147, 3.111620338921411),
        (0.8816852257537255, True, 1.0, 5.049130280669369, 5.726681283961658),
    ],
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_HOUSEHOLDER_RECORDS))
def test_fixture_basis_runs_match_the_householder_records(run, seed):
    out = GOLDEN_RUNS[run](seed)
    assert len(out) == len(GOLDEN_HOUSEHOLDER_RECORDS[(run, seed)])
    for s, (events, passed, *floats) in zip(out, GOLDEN_HOUSEHOLDER_RECORDS[(run, seed)]):
        if isinstance(events, int):
            assert s.empirical_frequency == events / s.plan.trials
        else:
            assert abs(s.empirical_frequency - events) <= 1e-12
        assert s.passed is passed
        got = (s.analytic_bound, s.extreme_sigma_min, s.extreme_sigma_max)
        assert max(abs(a - b) for a, b in zip(got, floats)) <= 1e-12


# (events, passed, bound, min, max) per record, in output order, when every
# basis took two Cholesky QR passes; events is the count behind the
# frequency, or the mgf ratio.  A one-pass basis must keep every count and
# passed flag exactly and every float within 1e-14 relative.
GOLDEN_TWO_PASS_RECORDS = {
    ("chernoff_exhaustive", 0): [
        (50, True, 1.9941936742874078, 0.06576678087743802, 0.9677034537609378),
        (40, True, 1.9945682514274055, 0.06576678087743802, 0.9677034537609378),
        (48, True, 1.9760062784073076, 0.06576678087743802, 0.9677034537609378),
        (40, True, 1.9790048509179814, 0.06576678087743802, 0.9677034537609378),
        (48, True, 1.944248280085453, 0.06576678087743802, 0.9677034537609378),
        (40, True, 1.954381735938203, 0.06576678087743802, 0.9677034537609378),
        (45, True, 1.8976579212598024, 0.06576678087743802, 0.9677034537609378),
        (36, True, 1.9217345830017385, 0.06576678087743802, 0.9677034537609378),
        (42, True, 1.8348432719538157, 0.06576678087743802, 0.9677034537609378),
        (34, True, 1.8820593200184959, 0.06576678087743802, 0.9677034537609378),
        (37, True, 1.7541535780128246, 0.06576678087743802, 0.9677034537609378),
        (33, True, 1.8363081188361958, 0.06576678087743802, 0.9677034537609378),
        (29, True, 1.6533770119453042, 0.06576678087743802, 0.9677034537609378),
        (33, True, 1.7853855329568542, 0.06576678087743802, 0.9677034537609378),
        (21, True, 1.5289251185095065, 0.06576678087743802, 0.9677034537609378),
        (29, True, 1.7301451433454176, 0.06576678087743802, 0.9677034537609378),
        (9, True, 1.3728876375828827, 0.06576678087743802, 0.9677034537609378),
        (27, True, 1.671386895855885, 0.06576678087743802, 0.9677034537609378),
    ],
    ("embedding_256x8", 0): [
        (0, True, 0.375, 0.5827189186450307, 1.3854659139912493),
    ],
    ("mgf_exhaustive", 0): [
        (0.9949070689529147, True, 1.0, 2.439547735823932, 2.4520357850019328),
        (0.9766623566304823, True, 1.0, 3.0442543202661025, 3.116997700995543),
        (0.8837650856086058, True, 1.0, 5.072491231635622, 5.739637505754649),
    ],
    ("rownorm_256x8", 0): [
        (0, True, 0.125, 0.26738873504995925, 0.3885201108879146),
    ],
}


@pytest.mark.parametrize("run, seed", sorted(GOLDEN_TWO_PASS_RECORDS))
def test_one_pass_bases_keep_the_two_pass_records(run, seed):
    out = GOLDEN_RUNS[run](seed)
    assert len(out) == len(GOLDEN_TWO_PASS_RECORDS[(run, seed)])
    for s, (events, passed, *floats) in zip(out, GOLDEN_TWO_PASS_RECORDS[(run, seed)]):
        got = [s.analytic_bound, s.extreme_sigma_min, s.extreme_sigma_max]
        if isinstance(events, int):
            assert s.empirical_frequency == events / s.plan.trials
        else:
            got.append(s.empirical_frequency)
            floats.append(events)
        assert s.passed is passed
        for a, b in zip(got, floats, strict=True):
            assert abs(a - b) <= 1e-14 * abs(b)


def _recomputed_passed(record):
    """``passed`` from a timing-free record alone, by the rule its name
    selects: coupon's two-sided rule, mgf's exhaustive domination, or the
    one-sided rule of every bound check."""
    empirical, bound, trials = record["empirical"], record["bound"], record["trials"]
    if record["name"].startswith("coupon"):
        return abs(empirical - bound) <= monte_carlo_slack(bound, trials)
    if record["name"].startswith("mgf"):
        return record["extreme_sigma_min"] <= record["extreme_sigma_max"] * (1.0 + 1e-10)
    slack = 0.0 if record["mode"] == "exhaustive" else monte_carlo_slack(bound, trials)
    return empirical <= bound + slack


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
@pytest.mark.parametrize("seed", [0, 12345])
def test_passed_is_recomputable_from_the_record(run, seed):
    records = json.loads(_report(GOLDEN_RUNS[run](seed)))
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
    """Wraps a function and keeps each call's arguments and result, an array
    as a copy: a runner may write its next trial over the same buffer."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args):
        result = self.fn(*args)
        self.calls.append((tuple(map(_copied, args)), _copied(result)))
        return result


def _copied(value):
    return value.copy() if isinstance(value, np.ndarray) else value


def _trial_counts(block, spare, shape, trial_bytes, draw_block=None):
    """A block budget of ``block`` trials plus a spare fraction of one more,
    so the floor in the block size is exercised, and a trial count that
    leaves a partial block or straddles block boundaries: of the sketch
    blocks (B), or of the draw blocks (D) that ``draw_block(budget)``
    gives."""
    budget = int((block + spare) * trial_bytes)
    edge = block if "B" in shape else draw_block(budget)
    counts = {"B-1": edge - 1, "B": edge, "B+1": edge + 1, "2B+3": 2 * edge + 3}
    return budget, max(counts[shape.replace("D", "B")], 1)


def _draw_block(block, n, ell):
    """Trials per ``draw_stack`` call: the most whole sketch blocks of
    ``block`` trials, at least one, whose draw arrays, as ``_draw_bytes``
    counts them, fit the block budget."""
    fit = max(1, exp_mod._BLOCK_BYTES // srht_mod._draw_bytes(n, ell))
    return block * max(1, fit // block)


def _check_draw_blocks(draws, n, ell_grid, trials, block):
    """The recorded ``draw_stack`` calls draw each grid point's trials in
    order, in draw blocks of ``_draw_block`` trials, the last one partial;
    a draw block is a whole number of sketch blocks."""
    for ell in ell_grid:
        size = _draw_block(block, n, ell)
        count = -(-trials // size)
        point, draws = draws[:count], draws[count:]
        assert [args[:2] for args, _ in point] == [(n, ell)] * count
        lengths = [len(args[2]) for args, _ in point]
        assert lengths == [size] * (count - 1) + [trials - size * (count - 1)]
        assert size % block == 0
    assert draws == []


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
    """The blocked runner, with ``block`` trials per sketch block, equals the
    one-trial-at-a-time oracle bit for bit, draws once per draw block, and
    sketches and eigensolves once per sketch block.  The eigensolve is
    recorded where ``singular_values`` calls it, in ``linalg``."""
    draws = _Recorder(exp_mod.draw_stack)
    sketches = _Recorder(exp_mod.sketch_stack)
    eigensolves = _Recorder(linalg_mod.symmetric_eigenvalues)
    with mock.patch.object(exp_mod, "draw_stack", draws), \
            mock.patch.object(exp_mod, "sketch_stack", sketches), \
            mock.patch.object(linalg_mod, "symmetric_eigenvalues", eigensolves):
        out = run_coupon_trials(k, ell_grid, trials=trials, seed=seed)
    grams, expected = _coupon_one_trial_at_a_time(k, ell_grid, trials, seed)
    _check_draw_blocks(draws.calls, k * k, ell_grid, trials, block)
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
    shape=st.sampled_from(["B-1", "B", "B+1", "2B+3", "D-1", "D", "D+1", "2D+3"]),
    ell_picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=8, block=1, spare=0.99, shape="2D+3", ell_picks=[0.0, 1.0], seed=0)
@settings(max_examples=30)
def test_blocked_coupon_equals_one_trial_at_a_time(k, block, spare, shape, ell_picks, seed):
    n = k * k
    ell_grid = [1 + int(f * (n - 1)) for f in ell_picks]

    def draw_block(budget):
        with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget):
            return _draw_block(block, n, ell_grid[0])

    budget, trials = _trial_counts(block, spare, shape, k * k * k * 8, draw_block)
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget):
        _check_coupon_blocks(k, ell_grid, trials, seed, block)


@pytest.mark.parametrize("k", [4, 8])
def test_coupon_at_the_real_budget_equals_one_trial_at_a_time(k):
    block = exp_mod._BLOCK_BYTES // (k * k * k * 8)
    _check_coupon_blocks(k, [k, 2 * k], 2 * block + 3, 31, block)


@pytest.mark.parametrize("offset", [-1, 0, 1, 131])
def test_coupon_straddling_a_real_draw_block_equals_one_trial_at_a_time(offset):
    # at k = 8 a draw block is three sketch blocks of 64 trials; 192 + 131
    # ends three trials into the second draw block's third sketch block
    block = exp_mod._BLOCK_BYTES // (8 * 8 * 8 * 8)
    assert _draw_block(block, 64, 8) == _draw_block(block, 64, 24) == 3 * block == 192
    _check_coupon_blocks(8, [8, 24], 192 + offset, 7, block)


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


def _without_replacement_lists(n, ell):
    return [list(s) for s in itertools.combinations(range(n), ell)]


def _recorded_stacks(runner, block_bytes, *args, **kwargs):
    """Calls of _sampled_gram_eigenvalues that ``runner`` makes with the block
    budget patched to ``block_bytes``."""
    stacks = _Recorder(exp_mod._sampled_gram_eigenvalues)
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(exp_mod, "_sampled_gram_eigenvalues", stacks):
        runner(*args, **kwargs)
    return stacks.calls


@given(
    shape=st.sampled_from([(4, 1, 2), (8, 2, 3), (8, 3, 5), (16, 2, 3)]),
    block=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30)
def test_stacked_chernoff_eigenvalues_equal_each_subset_alone(shape, block, seed):
    from srhtlab.linalg import random_orthonormal

    n, k, ell = shape
    calls = _recorded_stacks(
        run_chernoff_validation, block * ell * k * 8, n, k, ell, [0.5], seed=seed
    )
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    _check_row_list_stacks(calls, w, [_without_replacement_lists(n, ell)], block)


@given(
    shape=st.sampled_from([(4, 1, 2), (4, 2, 3), (8, 2, 3), (6, 3, 2)]),
    block=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30)
def test_stacked_mgf_eigenvalues_equal_each_row_list_alone(shape, block, seed):
    # the with-replacement side lists a row once per draw: every ell-sequence
    # in lexicographic order
    from srhtlab.linalg import random_orthonormal

    n, k, ell = shape
    calls = _recorded_stacks(run_mgf_domination, block * ell * k * 8, n, k, ell, [0.5], seed=seed)
    with_lists = [list(m) for m in itertools.product(range(n), repeat=ell)]
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    sides = [_without_replacement_lists(n, ell), with_lists]
    _check_row_list_stacks(calls, w, sides, block)


def _check_against_oracle(summary, trials, events, lows, highs, block, sketches):
    """Counts exact, extremes within 1e-12 (bit for bit at one trial per
    sketch block), one ``sketch_stack`` per sketch block of at most
    ``block`` trials."""
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
@example(shape=(16, 8, 4), block=1, spare=0.0, count="2D+3", seed=0)
@settings(max_examples=30)
def test_blocked_embedding_equals_one_trial_at_a_time(shape, block, spare, count, seed):
    n, k, ell = shape

    def draw_block(budget):
        with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget):
            return _draw_block(block, n, ell)

    budget, trials = _trial_counts(block, spare, count, n * k * 8, draw_block)
    draws = _Recorder(exp_mod.draw_stack)
    sketches = _Recorder(exp_mod.sketch_stack)
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget), \
            mock.patch.object(exp_mod, "draw_stack", draws), \
            mock.patch.object(exp_mod, "sketch_stack", sketches):
        s = run_embedding_trials(n, k, ell=ell, trials=trials, seed=seed)
        _check_draw_blocks(draws.calls, n, [ell], trials, block)
    spectra = _embedding_one_trial_at_a_time(n, k, ell, trials, seed)
    top, bot = spectra[:, 0], spectra[:, -1]
    violations = _embedding_violations(spectra, exp_mod.embedding_sample_size(k, n))
    _check_against_oracle(s, trials, violations, bot, top, block, sketches)


def _embedding_one_trial_at_a_time(n, k, ell, trials, seed):
    """trials x k float64 spectra: draw_srht -> apply_to_matrix ->
    singular_values on the float64 basis, one trial at a time."""
    from srhtlab.linalg import random_orthonormal, singular_values
    from srhtlab.srht import apply_to_matrix, draw_srht

    basis = random_orthonormal(n, k, (seed, 0, 0, 0))
    return np.array([
        singular_values(apply_to_matrix(draw_srht(n, ell, (seed, 1, 0, i)), basis))
        for i in range(trials)
    ])


def _embedding_violations(spectra, size):
    return (spectra[:, -1] < size.sigma_min) | (spectra[:, 0] > size.sigma_max)


def _recorded_embedding(n, k, ell, trials, seed, size=None):
    """The summary and the recorded ``sketch_stack`` calls of an embedding
    run, with the sample-size rule's window replaced by ``size`` if given."""
    sketches = _Recorder(exp_mod.sketch_stack)
    patch_size = (
        contextlib.nullcontext() if size is None
        else mock.patch.object(exp_mod, "embedding_sample_size", lambda k, n: size)
    )
    with patch_size, mock.patch.object(exp_mod, "sketch_stack", sketches):
        s = run_embedding_trials(n, k, ell=ell, trials=trials, seed=seed)
    return s, sketches.calls


@pytest.mark.parametrize("seed", [0, 12345])
def test_embedding_at_the_piece_size_stays_float64_and_bit_identical(seed):
    # 4096 x 16 float64 is exactly wht._PIECE_BYTES: not above it
    n, k, ell, trials = 4096, 16, 700, 4
    assert n * k * 8 == exp_mod._PIECE_BYTES
    s, calls = _recorded_embedding(n, k, ell, trials, seed)
    assert [args[2].dtype for args, _ in calls] == [np.float64] * trials
    spectra = _embedding_one_trial_at_a_time(n, k, ell, trials, seed)
    size = exp_mod.embedding_sample_size(k, n)
    assert s.empirical_frequency * trials == np.count_nonzero(_embedding_violations(spectra, size))
    assert (s.extreme_sigma_min, s.extreme_sigma_max) == (spectra[:, -1].min(), spectra[:, 0].max())


@pytest.mark.parametrize("seed", [0, 12345])
def test_embedding_above_the_piece_size_sketches_in_float32(seed):
    n, k, ell, trials = 4096, 17, 700, 4
    s, calls = _recorded_embedding(n, k, ell, trials, seed)
    assert [args[2].dtype for args, _ in calls] == [np.float32] * trials
    spectra = _embedding_one_trial_at_a_time(n, k, ell, trials, seed)
    size = exp_mod.embedding_sample_size(k, n)
    assert s.empirical_frequency * trials == np.count_nonzero(_embedding_violations(spectra, size))
    assert abs(s.extreme_sigma_min - spectra[:, -1].min()) <= 1e-7
    assert abs(s.extreme_sigma_max - spectra[:, 0].max()) <= 1e-7


@pytest.mark.parametrize("edge", ["sigma_min", "sigma_max"])
@pytest.mark.parametrize("seed", [0, 12345])
def test_embedding_rechecks_a_near_threshold_trial_in_float64(edge, seed):
    # The window edge is planted 5e-10 inside the float64 sigma of the trial
    # with the extreme sigma_k (or sigma_1): the oracle counts it a
    # violation, and its float32 sigma, about 1e-8 away, may fall either side.
    import dataclasses

    n, k, ell, trials = 4096, 17, 700, 4
    spectra = _embedding_one_trial_at_a_time(n, k, ell, trials, seed)
    side = ("sigma_min", "sigma_max").index(edge)
    sigmas = spectra[:, -1 + side]  # sigma_k, or sigma_1
    planted = int((np.argmin, np.argmax)[side](sigmas))
    size = dataclasses.replace(
        exp_mod.embedding_sample_size(k, n), **{edge: sigmas[planted] + (5e-10, -5e-10)[side]}
    )
    s, calls = _recorded_embedding(n, k, ell, trials, seed, size)
    rechecks = [args for args, _ in calls if args[2].dtype == np.float64]
    assert len(rechecks) == 1 and len(calls) == trials + 1
    signs, indices = exp_mod.draw_stack(n, ell, [(seed, 1, 0, planted)])
    assert np.array_equal(rechecks[0][0], signs) and np.array_equal(rechecks[0][1], indices)
    violations = _embedding_violations(spectra, size)
    assert violations[planted] and s.empirical_frequency * trials == np.count_nonzero(violations)
    extremes = (s.extreme_sigma_min, s.extreme_sigma_max)
    oracle_extremes = (spectra[:, -1].min(), spectra[:, 0].max())
    assert extremes[side] == oracle_extremes[side]
    assert abs(extremes[1 - side] - oracle_extremes[1 - side]) <= 1e-7


def _rownorm_one_trial_at_a_time(n, k, trials, seed):
    """Fixture Gaussians and largest row norms, one trial at a time: a fresh
    generator from derived_rng(seed, 0, 0, i), signs from (seed, 1, 0, i),
    Cholesky QR around the in-place transform, and the squared row norms as
    np.sum(w * w, axis=1)."""
    from srhtlab.linalg import _cholesky_qr, gram
    from srhtlab.srht import derived_rng
    from srhtlab.wht import fwht_inplace

    gaussians, norms = [], []
    for i in range(trials):
        g = derived_rng(seed, 0, 0, i).standard_normal((n, k))
        gaussians.append(g.copy())
        gram1 = gram(g)
        g *= oracle.signs(n, (seed, 1, 0, i))[:, None]
        w = _cholesky_qr(fwht_inplace(g), gram1)
        norms.append(float(np.sqrt(np.max(np.sum(w * w, axis=1)))))
    return gaussians, norms


@given(
    shape=_rownorm_shapes(),
    block=st.integers(1, 6),
    spare=st.floats(0.0, 0.99),
    count=st.sampled_from(["B-1", "B", "B+1", "2B+3"]),
    log_beta_n=st.floats(-5.0, 1.6).map(lambda e: 10.0**e),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(4096, 16), block=8, spare=0.0, count="2B+3", log_beta_n=0.9, seed=0)
@example(shape=(2, 1), block=3, spare=0.5, count="B+1", log_beta_n=0.02, seed=1)
@settings(max_examples=30)
def test_blocked_rownorm_equals_one_trial_at_a_time(shape, block, spare, count, log_beta_n, seed):
    # the fixture normals and the signs are drawn once per block of trials,
    # each trial's Gaussian is the one derived_rng gives, and the counts and
    # extremes are the per-trial oracle's
    from srhtlab.bounds import row_norm_bound

    n, k = shape
    budget, trials = _trial_counts(block, spare, count, n * 8)
    beta = math.exp(log_beta_n) / n
    gaussians = _Recorder(exp_mod.gram)
    normals = _Recorder(exp_mod.standard_normals)
    signs = _Recorder(exp_mod.rademacher_signs)
    with mock.patch.object(exp_mod, "_BLOCK_BYTES", budget), \
            mock.patch.object(exp_mod, "gram", gaussians), \
            mock.patch.object(exp_mod, "standard_normals", normals), \
            mock.patch.object(exp_mod, "rademacher_signs", signs):
        s = run_row_norm_trials(n, k, beta, trials=trials, seed=seed)
    drawn, norms = _rownorm_one_trial_at_a_time(n, k, trials, seed)
    # the shares run their blocks side by side, so calls come in no fixed
    # order: each trial's Gaussian, and each block's keys, must be recorded
    # exactly once, in any order
    assert len(gaussians.calls) == trials
    assert sorted(g.tobytes() for (g,), _ in gaussians.calls) == sorted(
        want.tobytes() for want in drawn
    )
    blocks = [range(first, min(first + block, trials)) for first in range(0, trials, block)]
    keys = [[(seed, 0, 0, i) for i in b] for b in blocks]
    assert sorted(seeds for (seeds, _), _ in normals.calls) == keys
    assert sorted(args for args, _ in signs.calls) == [
        (n, [(seed, 1, 0, i) for i in b]) for b in blocks
    ]
    level = row_norm_bound(n, k, beta).value
    assert round(s.empirical_frequency * trials) == sum(m >= level for m in norms)
    assert abs(s.extreme_sigma_min - min(norms)) <= 1e-15
    assert abs(s.extreme_sigma_max - max(norms)) <= 1e-15


# --- the block engine and its shares --------------------------------------

def _engine_items(source):
    """A fresh iterator of the items ``source`` names, and their count: an
    int m gives a generator of m ints, a pair (n, r) gives
    ``itertools.combinations(range(n), r)``."""
    if isinstance(source, int):
        return (3 * i + 1 for i in range(source)), source
    n, r = source
    return itertools.combinations(range(n), r), math.comb(n, r)


def _engine_rows(block, width):
    """One row of ``width`` floats per item, distinct for distinct items."""
    keys = [
        item if isinstance(item, int) else sum(x * 10**i for i, x in enumerate(item))
        for item in block
    ]
    return np.sqrt(np.add.outer(np.asarray(keys, dtype=float), np.arange(width) / 7))


class _HandOverLock:
    """A lock after whose every release the thread that made it, the
    caller, sleeps a moment, so that a helper takes the next block, and
    reads what it reads next, before the caller goes on."""

    def __init__(self):
        self._lock = threading.Lock()
        self._caller = threading.current_thread()

    def __enter__(self):
        self._lock.acquire()

    def __exit__(self, *exc):
        self._lock.release()
        if threading.current_thread() is self._caller:
            time.sleep(2e-4)


@given(
    source=st.one_of(
        st.integers(1, 40),
        st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, min(n, 3)))),
    ),
    width=st.integers(1, 3),
    size=st.integers(1, 9),
    shares=st.integers(1, 3),
    planted=st.integers(0, 40),
)
@settings(max_examples=80)
def test_fill_blocks_equals_a_per_item_loop_in_any_shares(source, width, size, shares, planted):
    # the workers take each block and its row offset under one lock; each
    # block spends a moment off the GIL, as the runners' numpy calls do, and
    # the caller lets a helper run ahead each time it releases that lock, so
    # an offset read outside it would put the helper's rows on the caller's
    items, count = _engine_items(source)
    want = list(items)
    expected = np.array([_engine_rows([item], width)[0] for item in want])
    position = {item: i for i, item in enumerate(want)}
    seen = []

    def fn(block):
        seen.append(list(block))
        time.sleep(1e-4)
        return _engine_rows(block, width)

    def fill(fn):
        return exp_mod._fill_blocks(_engine_items(source)[0], count, width, size, fn, shares)

    before = threading.active_count()
    engine_threading = types.SimpleNamespace(**{**vars(threading), "Lock": _HandOverLock})
    with mock.patch.object(exp_mod, "threading", engine_threading):
        out = fill(fn)
        assert threading.active_count() == before
        assert out.tobytes() == expected.tobytes()
        seen.sort(key=lambda block: position[block[0]])
        assert [item for block in seen for item in block] == want
        assert all(len(block) == size for block in seen[:-1])
        assert 1 <= len(seen[-1]) <= size

        # an error planted in one block, on whichever worker takes it,
        # reaches the caller once every helper is joined
        bad = want[min(planted, count - 1) // size * size]

        def planted_fn(block):
            if block[0] == bad:
                raise RuntimeError("planted")
            return fn(block)

        with pytest.raises(RuntimeError, match="planted"):
            fill(planted_fn)
        assert threading.active_count() == before


def _shares_of(count):
    """Stands in for ``experiments._share_count``: ``count`` shares, never
    more than the blocks."""
    return lambda blocks: min(blocks, count)


def _rownorm_outputs(shares, trials, seed):
    """Timing-free record, exceedances and per-trial largest row norms of a
    headline-shape run split into ``shares`` shares, the arrays as bytes."""
    summaries = _Recorder(exp_mod._one_sided_summary)
    with mock.patch.object(exp_mod, "_share_count", _shares_of(shares)), \
            mock.patch.object(exp_mod, "_one_sided_summary", summaries):
        s = run_row_norm_trials(4096, 16, 16.0, trials=trials, seed=seed)
    (((_, _, events, _, norms, _, _), _),) = summaries.calls
    return s.to_record(include_timing=False), events.tobytes(), norms.tobytes()


@pytest.mark.parametrize("seed", [0, 12345])
def test_rownorm_shares_give_the_one_share_record_bit_for_bit(seed):
    # each trial keeps its own substreams and arithmetic whichever share runs
    # it; 2B + 3 trials make three blocks, so three shares run one each
    block = exp_mod._block_size(8 * 4096)
    for trials in (1, block - 1, block, block + 1, 2 * block + 3):
        want = _rownorm_outputs(1, trials, seed)
        for shares in (2, 3):
            assert _rownorm_outputs(shares, trials, seed) == want, (trials, shares)


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_an_error_in_a_share_reaches_the_caller_after_every_helper_is_joined(where):
    # in two shares of 8-trial blocks each thread takes the next block that
    # no one has taken, so over 20 blocks the helper takes some; the error is
    # planted on the first trial the named thread runs
    caller = threading.current_thread()
    before = threading.active_count()

    def planted(w, gram1):
        if (threading.current_thread() is caller) == (where == "caller"):
            raise RuntimeError(f"planted on the {where}")
        return linalg_mod._cholesky_qr(w, gram1)

    with mock.patch.object(exp_mod, "_share_count", _shares_of(2)):
        run_row_norm_trials(4096, 16, trials=160)
        assert threading.active_count() == before
        with mock.patch.object(exp_mod, "_cholesky_qr", planted), \
                pytest.raises(RuntimeError, match=f"planted on the {where}"):
            run_row_norm_trials(4096, 16, trials=160)
    assert threading.active_count() == before


def test_an_interrupted_caller_stops_the_helper_after_its_block():
    # 20 blocks of 8 trials, each thread taking the next block that no one
    # has taken; the caller is interrupted on its first trial once the
    # helper has begun its first, and the helper must stop after that block
    # or the next, not run the other 150 trials or so
    caller = threading.current_thread()
    before = threading.active_count()
    helper_began = threading.Event()
    helper_trials = []

    def planted(w, gram1):
        if threading.current_thread() is caller:
            assert helper_began.wait(60)
            raise KeyboardInterrupt
        helper_trials.append(1)
        helper_began.set()
        return linalg_mod._cholesky_qr(w, gram1)

    with mock.patch.object(exp_mod, "_share_count", _shares_of(2)), \
            mock.patch.object(exp_mod, "_cholesky_qr", planted), \
            pytest.raises(KeyboardInterrupt):
        run_row_norm_trials(4096, 16, trials=160)
    assert threading.active_count() == before
    assert 1 <= len(helper_trials) <= 16


def test_an_error_on_the_helper_stops_the_caller_after_its_block():
    # 20 blocks of 8 trials; the helper raises on its first trial once the
    # caller has begun its first, and the caller must stop after that block
    # or the next, not run the other 150 trials or so
    caller = threading.current_thread()
    before = threading.active_count()
    caller_began = threading.Event()
    caller_trials = []

    def planted(w, gram1):
        if threading.current_thread() is not caller:
            assert caller_began.wait(60)
            raise RuntimeError("planted on the helper")
        caller_trials.append(1)
        caller_began.set()
        return linalg_mod._cholesky_qr(w, gram1)

    with mock.patch.object(exp_mod, "_share_count", _shares_of(2)), \
            mock.patch.object(exp_mod, "_cholesky_qr", planted), \
            pytest.raises(RuntimeError, match="planted on the helper"):
        run_row_norm_trials(4096, 16, trials=160)
    assert threading.active_count() == before
    assert 1 <= len(caller_trials) <= 16


@pytest.mark.parametrize("blas, cpus, shares", [
    # one BLAS thread and two usable CPUs or more: two shares, never more
    ({"OPENBLAS_NUM_THREADS": "1"}, {0, 1, 2}, [1, 2, 2, 2]),
    ({"MKL_NUM_THREADS": "1"}, {0, 1}, [1, 2, 2, 2]),
    ({"OMP_NUM_THREADS": " 1 "}, {0, 1}, [1, 2, 2, 2]),
    # the first variable that is set decides
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, {0, 1, 2, 3}, [1, 1, 1, 1]),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, {0, 1}, [1, 2, 2, 2]),
    # a BLAS left at its default, one thread per CPU, or one usable CPU
    ({}, {0, 1, 2, 3}, [1, 1, 1, 1]),
    ({"OPENBLAS_NUM_THREADS": "4"}, {0, 1, 2, 3}, [1, 1, 1, 1]),
    ({"OPENBLAS_NUM_THREADS": "1"}, {0}, [1, 1, 1, 1]),
])
def test_share_count_is_two_only_beside_a_one_thread_blas(monkeypatch, blas, cpus, shares):
    for var in exp_mod._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert [exp_mod._share_count(blocks) for blocks in (1, 2, 3, 25)] == shares


def test_share_count_without_an_affinity_mask_counts_every_cpu(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, shares in ((4, 2), (1, 1), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda count=count: count)
        assert exp_mod._share_count(25) == shares


@pytest.mark.parametrize("blas, cpus", [
    ({"OPENBLAS_NUM_THREADS": "1"}, {0}),  # one usable CPU
    ({}, {0, 1, 2, 3}),  # the BLAS at its default, one thread per CPU
])
def test_one_share_starts_no_thread(monkeypatch, blas, cpus):
    want = _rownorm_outputs(1, 20, 0)
    for var in exp_mod._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    start = mock.Mock(side_effect=AssertionError("a thread was started"))
    monkeypatch.setattr(threading.Thread, "start", start)
    summaries = _Recorder(exp_mod._one_sided_summary)
    with mock.patch.object(exp_mod, "_one_sided_summary", summaries):
        s = run_row_norm_trials(4096, 16, 16.0, trials=20, seed=0)
    assert not start.called
    (((_, _, _, _, norms, _, _), _),) = summaries.calls
    assert (s.to_record(include_timing=False), norms.tobytes()) == (want[0], want[2])


def test_import_srhtlab_leaves_concurrent_futures_unimported():
    # concurrent.futures imports logging, about 5 ms at start-up; the
    # row-norm shares run on threading, which numpy already imports
    script = "import sys, srhtlab; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(exp_mod.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert done.stdout.split() == ["False"]


# The runners' block budget, experiments._BLOCK_BYTES, as the memory tests
# hold them to it.
BLOCK_BUDGET = 256 * 1024


def test_rownorm_memory_is_one_trial_and_a_block_of_signs():
    # Peak traced allocation of a 20-trial run at the headline shape, per
    # share: the 512 KiB Gaussian buffer beside either numpy's copy of it
    # while Cholesky QR writes its basis over it (512 KiB) or a block of
    # signs being drawn next to the last block (256 KiB each, plus the
    # draw's own arrays).  A fresh Gaussian per trial, or an n x k
    # temporary for the squared row norms, would add another 512 KiB.  The
    # shares each hold their own: about 1290 KiB at one share and 2580 KiB
    # at two, the most a run splits into.
    n, k, trials = 4096, 16, 20
    for count in (1, exp_mod._MAX_SHARES):
        with mock.patch.object(exp_mod, "_share_count", _shares_of(count)):
            run_row_norm_trials(n, k, trials=2)  # first-use allocations out of the way
            tracemalloc.start()
            try:
                run_row_norm_trials(n, k, trials=trials)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < count * (2 * n * k * 8 + 2 * BLOCK_BUDGET), count


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


def test_embedding_memory_is_the_basis_and_one_sketch_array():
    # At the headline shape a block is one trial: the 8 MiB basis, its 4 MiB
    # float32 copy, its 4 MiB float32 sign-flipped copy transformed in place,
    # and small pieces beside them.  The basis draw holds two 8 MiB arrays.
    # A full-size transform scratch, or a third array in the basis draw,
    # would add another 8 MiB.
    n, k, ell = 65536, 16, 2342
    run_embedding_trials(n, k, ell, trials=1)  # first-use allocations out of the way
    tracemalloc.start()
    try:
        run_embedding_trials(n, k, ell, trials=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * k * 8 + 2 * 1024 * 1024


# --- headline configurations ------------------------------------------------

# The acceptance configurations, as literals; each runner's keyword defaults
# must be these, since a runner called with only a seed runs its headline.
HEADLINE_DEFAULTS = {
    run_embedding_trials: {"n": 65536, "k": 16, "ell": None, "trials": 200},
    run_row_norm_trials: {"n": 4096, "k": 16, "beta": None, "trials": 2000},
    run_coupon_trials: {"k": 8, "ell_grid": (8, 12, 17, 24), "trials": 10000},
    run_chernoff_validation: {
        "n": 16,
        "k": 2,
        "ell": 6,
        "deviation_grid": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    },
    run_mgf_domination: {
        "n": 8,
        "k": 2,
        "ell": 3,
        "theta_grid": (0.5, 1.0, 2.0),
    },
}


@pytest.mark.parametrize(
    "runner", [run_chernoff_validation, run_mgf_domination], ids=lambda r: r.__name__
)
def test_chernoff_and_mgf_only_enumerate(runner):
    # no mode and no trial count to choose, and no operator draw: every
    # sampler in srht is patched to raise
    assert not {"mode", "trials"} & set(inspect.signature(runner).parameters)
    with mock.patch.object(srht_mod, "draw_integers", side_effect=AssertionError("drew")):
        out = runner(seed=0)
    assert {s.plan.mode for s in out} == {"exhaustive"}


@pytest.mark.parametrize("runner", HEADLINE_DEFAULTS, ids=lambda r: r.__name__)
def test_runner_defaults_are_the_headline_configuration(runner):
    params = inspect.signature(runner).parameters
    expected = HEADLINE_DEFAULTS[runner]
    assert {name: params[name].default for name in expected} == expected
    assert params["seed"].default == 0
