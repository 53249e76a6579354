import inspect
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from srhtlab import bounds
from srhtlab.bounds import (
    EMBEDDING_SIGMA_MAX,
    EMBEDDING_SIGMA_MIN,
    ChernoffParams,
    chernoff_lower_tail,
    chernoff_upper_tail,
    coupon_coverage_probability,
    embedding_sample_size,
    row_norm_bound,
    row_sampling_failure_bound,
    row_sampling_worst_ratio,
)
from srhtlab.bounds import _row_sampling_powers
from srhtlab.experiments import run_chernoff_validation

HEADLINE = (4.0, 5 / 6, 7 / 6)


def coverage_by_enumeration(k, ell):
    """Exhaustive oracle: walk every ell-subset of k*k items and count the
    ones that hit all k classes {j : j // k == c}.  Exact rational."""
    items = range(k * k)
    total = 0
    covered = 0
    for subset in itertools.combinations(items, ell):
        total += 1
        if len({j // k for j in subset}) == k:
            covered += 1
    return Fraction(covered, total)


# --- sample-size rules ------------------------------------------------------

def test_embedding_sample_size_headline():
    out = embedding_sample_size(16, 65536)
    assert out.ell == 2342  # ceil of 4*(4 + sqrt(8 ln 2^20))^2 * ln 16
    assert out.applicable
    assert out.failure_bound == pytest.approx(3 / 16)


def test_embedding_window_constants():
    assert EMBEDDING_SIGMA_MIN == pytest.approx(1 / math.sqrt(6), rel=1e-15)
    assert EMBEDDING_SIGMA_MAX == pytest.approx(math.sqrt(13 / 6), rel=1e-15)
    # the coarser advertised window rounds outward to [0.40, 1.48]
    assert 0.40 <= EMBEDDING_SIGMA_MIN
    assert EMBEDDING_SIGMA_MAX <= 1.48
    assert EMBEDDING_SIGMA_MIN == pytest.approx(0.4082, abs=5e-5)
    assert EMBEDDING_SIGMA_MAX == pytest.approx(1.4720, abs=5e-5)


def test_embedding_degenerate_k1():
    out = embedding_sample_size(1, 16)
    assert out.ell == 1
    assert not out.applicable


def test_embedding_inapplicable_when_n_small():
    out = embedding_sample_size(16, 64)
    assert out.ell > 64
    assert not out.applicable


@pytest.mark.parametrize(
    "k,n", [(2, math.inf), (math.nan, 100), (2, math.nan), (math.inf, math.inf)]
)
def test_embedding_sample_size_rejects_non_finite_dimensions(k, n):
    # (2, inf) raised OverflowError and (nan, 100) failed converting NaN
    # to an integer, past the range check; a float is not an integer
    with pytest.raises(TypeError, match="must be an integer"):
        embedding_sample_size(k, n)


# each id names the arguments alone
@pytest.mark.parametrize(
    "k,n,error",
    [
        pytest.param(2.5, 100, TypeError, id="2.5-100"),
        pytest.param(2, 100.5, TypeError, id="2-100.5"),
        pytest.param(4, 2, ValueError, id="4-2"),
    ],
)
def test_embedding_sample_size_rejects_fractional_dimensions_and_k_above_n(k, n, error):
    # (2.5, 100) returned ell = 249
    with pytest.raises(error, match="must be an integer|need 1 <= k <= n"):
        embedding_sample_size(k, n)


@given(st.integers(2, 64), st.integers(0, 10), st.integers(0, 3))
def test_embedding_size_monotone(k, dk, dlogn):
    n = 1 << 20
    base = embedding_sample_size(k, n).ell
    assert embedding_sample_size(k + dk, n).ell >= base
    assert embedding_sample_size(k, n << dlogn).ell >= base


# --- row-norm level -----------------------------------------------------------

def test_row_norm_bound_value():
    out = row_norm_bound(4096, 16, 16.0)
    # sqrt(16/4096) + sqrt(8 ln 65536 / 4096), frozen from 50-digit evaluation
    assert out.value == pytest.approx(0.20967625281443434, rel=1e-12)
    assert out.exceedance_probability == pytest.approx(1 / 16)


def test_row_norm_bound_k_equals_n():
    out = row_norm_bound(128, 128, 2.0)
    assert out.value >= 1.0  # first term alone is already 1


def test_row_norm_bound_rejects_tiny_beta():
    with pytest.raises(ValueError):
        row_norm_bound(4, 2, 0.25)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_row_norm_bound_rejects_non_finite_beta(beta):
    # NaN slipped past "beta * n <= 1" and +inf gave an infinite level that
    # nothing exceeds
    with pytest.raises(ValueError, match="finite beta"):
        row_norm_bound(4096, 16, beta)


@pytest.mark.parametrize(
    "n,k", [(16, math.nan), (math.inf, 4), (math.nan, 4), (16, math.inf)]
)
def test_row_norm_bound_rejects_non_finite_dimensions(n, k):
    # each returned a RowNormBound with value nan; a float is not an integer
    with pytest.raises(TypeError, match="must be an integer"):
        row_norm_bound(n, k, 4.0)


@pytest.mark.parametrize(
    "n,k,error",
    [
        pytest.param(16, 32, ValueError, id="16-32"),
        pytest.param(16.5, 2, TypeError, id="16.5-2"),
        pytest.param(16, 2.5, TypeError, id="16-2.5"),
        pytest.param(16, 0, ValueError, id="16-0"),
    ],
)
def test_row_norm_bound_rejects_k_above_n_and_fractional_dimensions(n, k, error):
    # (16, 32) and (16.5, 2) each returned a level
    with pytest.raises(error, match="must be an integer|need 1 <= k <= n"):
        row_norm_bound(n, k, 4.0)


@pytest.mark.parametrize("k,n", [(True, 4), (2, True), (False, 4), (1, True)])
def test_embedding_sample_size_rejects_bool_dimensions(k, n):
    # (True, 4) returned the k < 2 sentinel and (1, True) a size for n = 1
    with pytest.raises(TypeError, match="not a bool"):
        embedding_sample_size(k, n)


@pytest.mark.parametrize("n,k", [(16, True), (True, True), (True, 1)])
def test_row_norm_bound_rejects_bool_dimensions(n, k):
    # (16, True) returned the level of k = 1
    with pytest.raises(TypeError, match="not a bool"):
        row_norm_bound(n, k, 4.0)


@pytest.mark.parametrize("k,n", [(4, 1024), (16, 65536), (32, 4096)])
def test_embedding_size_composes_row_norm_level(k, n):
    # the sample-size rule is 4 * (sqrt(n) * row-norm level at beta=k)^2 * ln k
    level = row_norm_bound(n, k, float(k)).value
    raw = 4.0 * (math.sqrt(n) * level) ** 2 * math.log(k)
    assert embedding_sample_size(k, n).ell == math.ceil(raw)


# --- matrix Chernoff tails ------------------------------------------------

def test_chernoff_lower_examples():
    k = 5
    assert chernoff_lower_tail(ChernoffParams(k, 1.0, 3.0, 3.0, 0.0)) == k
    limit = chernoff_lower_tail(ChernoffParams(2, 1.0, 10.0, 10.0, 1.0))
    assert limit == pytest.approx(2 * math.exp(-10), rel=1e-12)
    mid = chernoff_lower_tail(ChernoffParams(2, 1.0, 10.0, 10.0, 0.5))
    assert mid == pytest.approx(64 * math.exp(-5), rel=1e-12)  # == 0.43122860...


def test_chernoff_upper_examples():
    k = 3
    assert chernoff_upper_tail(ChernoffParams(k, 1.0, 3.0, 3.0, 0.0)) == k
    ex = chernoff_upper_tail(ChernoffParams(2, 1.0, 10.0, 10.0, 1.0))
    assert ex == pytest.approx(2 * (math.e / 4) ** 10, rel=1e-12)  # == 0.04201214...


def test_chernoff_upper_e_minus_one_parameterization():
    # eta = e - 1 turns the base into exactly 1/e
    out = chernoff_upper_tail(ChernoffParams(4, 1.0, 7.0, 7.0, math.e - 1.0))
    assert out == pytest.approx(4 * math.exp(-7.0), rel=1e-12)


def test_chernoff_deviation_ranges():
    with pytest.raises(ValueError):
        chernoff_lower_tail(ChernoffParams(2, 1.0, 1.0, 1.0, 1.5))
    with pytest.raises(ValueError):
        chernoff_lower_tail(ChernoffParams(2, 1.0, 1.0, 1.0, -0.1))
    with pytest.raises(ValueError):
        chernoff_upper_tail(ChernoffParams(2, 1.0, 1.0, 1.0, -0.1))
    with pytest.raises(ValueError):
        ChernoffParams(2, 0.0, 1.0, 1.0, 0.5)
    # b_max = inf made the lower tail exactly k, a vacuous bound as a value
    with pytest.raises(ValueError, match="b_max must be positive and finite"):
        ChernoffParams(2, math.inf, 1.0, 1.0, 0.5)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_chernoff_upper_tail_rejects_non_finite_deviation(eta):
    # a NaN eta once returned nan, and inf gives inf - inf in the log-base
    with pytest.raises(ValueError, match="upper-tail deviation"):
        chernoff_upper_tail(ChernoffParams(2, 0.5, 0.3, 0.3, eta))


# a NaN k is not an integer
@pytest.mark.parametrize(
    "k,mu_min,mu_max,error",
    [
        pytest.param(2, math.nan, math.nan, ValueError, id="2-nan-nan"),
        pytest.param(2, 0.5, math.nan, ValueError, id="2-0.5-nan"),
        pytest.param(2, 0.5, math.inf, ValueError, id="2-0.5-inf"),
        pytest.param(math.nan, 0.5, 0.5, TypeError, id="nan-0.5-0.5"),
    ],
)
def test_chernoff_params_reject_nan_and_infinite_mu(k, mu_min, mu_max, error):
    with pytest.raises(error):
        ChernoffParams(k, 0.5, mu_min, mu_max, 0.5)


@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_chernoff_params_reject_non_finite_k(k):
    # k = inf was accepted
    with pytest.raises(TypeError, match="k must be an integer"):
        ChernoffParams(k, 0.5, 0.5, 0.5, 0.5)


@pytest.mark.parametrize("k, error", [(2.5, TypeError), (True, TypeError), (False, TypeError)])
def test_chernoff_params_reject_fractional_and_bool_k(k, error):
    # k = 2.5 gave a lower tail of 2.06, and True passed as k = 1
    with pytest.raises(error, match="k must be"):
        ChernoffParams(k, 0.3, 0.375, 0.375, 0.5)


def test_chernoff_params_store_k_as_a_plain_int():
    params = ChernoffParams(np.int16(2), 0.3, 0.375, 0.375, 0.5)
    assert type(params.k) is int and params == ChernoffParams(2, 0.3, 0.375, 0.375, 0.5)


# (lower, upper) at ChernoffParams(2, 0.3, 0.375, 0.375, d), taken from the
# k * exp(exposure * log_base) arithmetic; any change to it moves last bits
DEFAULT_GRID_TAILS = {
    0.1: (1.987102923513818, 1.987933552398606),
    0.2: (1.9470019576785123, 1.9535824586940178),
    0.3: (1.878057046469067, 1.8999075950400603),
    0.4: (1.7793825077937617, 1.8300087833247507),
    0.5: (1.650971938970611, 1.7470001252690195),
    0.6: (1.4937541971436594, 1.6539062629786518),
    0.7: (1.3094889966012913, 1.5535803136790804),
    0.8: (1.10021614798412, 1.4486428962177402),
    0.9: (0.8658620464541266, 1.3414407204475505),
}


def test_chernoff_tails_bit_identical_on_default_grid():
    assert tuple(DEFAULT_GRID_TAILS) == inspect.signature(
        run_chernoff_validation
    ).parameters["deviation_grid"].default
    for d, (lower, upper) in DEFAULT_GRID_TAILS.items():
        params = ChernoffParams(2, 0.3, 0.375, 0.375, d)
        assert chernoff_lower_tail(params) == lower, d
        assert chernoff_upper_tail(params) == upper, d


@given(
    st.floats(0.1, 50.0),
    st.floats(1.0, 3.0),
    st.floats(0.05, 0.95),
)
def test_chernoff_tails_nonincreasing_in_exposure(mu, factor, d):
    lo1 = chernoff_lower_tail(ChernoffParams(3, 1.0, mu, mu, d))
    lo2 = chernoff_lower_tail(ChernoffParams(3, 1.0, mu * factor, mu * factor, d))
    assert lo2 <= lo1 * (1 + 1e-12)
    hi1 = chernoff_upper_tail(ChernoffParams(3, 1.0, mu, mu, d))
    hi2 = chernoff_upper_tail(ChernoffParams(3, 1.0, mu * factor, mu * factor, d))
    assert hi2 <= hi1 * (1 + 1e-12)


# --- combined row-sampling failure -----------------------------------------

def test_row_sampling_failure_value():
    # k^-1.1388... + k^-1.0343... at k=16, frozen from 50-digit evaluation
    got = row_sampling_failure_bound(16, 4.0, 5 / 6, 7 / 6)
    assert got == pytest.approx(0.09936017125991976, rel=1e-12)


def test_row_sampling_failure_vacuous_at_zero():
    assert row_sampling_failure_bound(9, 4.0, 0.0, 0.0) == pytest.approx(18.0)


def test_row_sampling_failure_headline_constants_spot():
    for k in (2, 3, 10, 100, 10**4, 10**6):
        assert row_sampling_failure_bound(k, 4.0, 5 / 6, 7 / 6) <= 2.0 / k


def test_row_sampling_failure_requires_k2():
    with pytest.raises(ValueError):
        row_sampling_failure_bound(1, 4.0, 0.5, 0.5)


def test_row_sampling_failure_rejects_bad_arguments():
    for alpha, delta, eta in ((0.0, 0.5, 0.5), (4.0, 1.5, 0.5), (4.0, -0.1, 0.5), (4.0, 0.5, -0.1)):
        with pytest.raises(ValueError):
            row_sampling_failure_bound(16, alpha, delta, eta)


@pytest.mark.parametrize(
    "k,alpha,eta",
    [(math.nan, 4.0, 0.5), (4, math.nan, 0.5), (4, 4.0, math.nan), (4, math.inf, 0.5)],
)
def test_row_sampling_failure_rejects_nan_and_infinite_arguments(k, alpha, eta):
    # each once returned nan, and alpha = inf returned 0.0
    with pytest.raises(ValueError):
        row_sampling_failure_bound(k, alpha, 0.5, eta)


@pytest.mark.parametrize("k", [math.inf, math.nan, -math.inf])
def test_row_sampling_failure_rejects_non_finite_k(k):
    # k = inf returned 0.0
    with pytest.raises(ValueError, match="finite k"):
        row_sampling_failure_bound(k, *HEADLINE)


def test_row_sampling_failure_matches_50_digit_values():
    # k^(1 + 4 a(5/6)) + k^(1 + 4 b(7/6)) at the float inputs, evaluated once
    # with 60-digit mpmath arithmetic and rounded to 50 digits
    expected = {
        2: 0.94237719578038268709856091578840317522755199890285,
        3: 0.60718330064177949370612038172354189252835487807958,
        1000: 0.0011722568433178685578357299336158050741322295577892,
        999983: 7.6939981616056100087175699111819848663450456340131e-07,
        10**6: 7.6938602655230632848725301254300050676252661386775e-07,
    }
    for k, value in expected.items():
        got = row_sampling_failure_bound(k, 4.0, 5 / 6, 7 / 6)
        assert got == pytest.approx(value, rel=1e-13), k


def test_row_sampling_exponents_at_the_headline_constants():
    # p + 1 and q + 1 at the float inputs, from 50-digit mpmath arithmetic
    p, q = _row_sampling_powers(4.0, 5 / 6, 7 / 6)
    assert p + 1 == pytest.approx(-0.13882702051462999946, abs=1e-13)
    assert q + 1 == pytest.approx(-0.03431236469017503876, abs=1e-13)


def test_row_sampling_worst_ratio_is_the_ratio_at_two_and_below_one():
    worst = row_sampling_worst_ratio(4.0, 5 / 6, 7 / 6)
    assert worst == row_sampling_failure_bound(2, 4.0, 5 / 6, 7 / 6)
    assert worst == 0.9423771957803826
    assert worst < 1


@given(st.integers(2, 10**15))
@example(2)
@example(3)
@example(10**15)
def test_row_sampling_ratio_never_exceeds_the_worst_ratio(k):
    worst = row_sampling_worst_ratio(4.0, 5 / 6, 7 / 6)
    assert row_sampling_failure_bound(k, 4.0, 5 / 6, 7 / 6) * k / 2 <= worst


@pytest.mark.parametrize("alpha", [1, 1.0, 2.0])
def test_row_sampling_worst_ratio_refuses_a_ratio_that_does_not_decrease(alpha):
    p, q = _row_sampling_powers(alpha, 5 / 6, 7 / 6)
    assert max(p, q) + 1 >= 0
    with pytest.raises(ValueError, match="does not decrease"):
        row_sampling_worst_ratio(alpha, 5 / 6, 7 / 6)


@pytest.fixture
def reset_memo(monkeypatch):
    # NaN equals nothing, so the next call recomputes the powers
    def reset():
        monkeypatch.setattr(bounds, "_row_sampling_memo", (math.nan,) * 5)

    reset()
    return reset


def test_row_sampling_powers_computed_once_per_sweep(reset_memo, monkeypatch):
    calls = []

    def counting(*constants):
        calls.append(constants)
        return _row_sampling_powers(*constants)

    monkeypatch.setattr(bounds, "_row_sampling_powers", counting)
    for k in range(2, 10**4 + 2):
        row_sampling_failure_bound(k, *HEADLINE)
    assert calls == [HEADLINE]


def test_row_sampling_bad_delta_raises_every_call():
    # an exception is never cached, and it leaves the cache usable
    for _ in range(2):
        with pytest.raises(ValueError, match="lower-tail deviation"):
            row_sampling_failure_bound(16, 4.0, 1.5, 7 / 6)
    got = row_sampling_failure_bound(16, 4.0, 5 / 6, 7 / 6)
    assert got == pytest.approx(0.09936017125991976, rel=1e-12)


def test_row_sampling_int_and_float_alpha_agree(reset_memo):
    from_int = row_sampling_failure_bound(1000, 4, 5 / 6, 7 / 6)
    reset_memo()
    from_float = row_sampling_failure_bound(1000, 4.0, 5 / 6, 7 / 6)
    assert from_int == from_float
    assert row_sampling_failure_bound(1000, 4, 5 / 6, 7 / 6) == from_float


def test_row_sampling_alternating_constants_use_their_own_powers():
    triples = (HEADLINE, (2, 0.5, 0.5))
    powers = {t: _row_sampling_powers(*t) for t in triples}
    for k in range(2, 200):
        for t in triples:
            p, q = powers[t]
            assert row_sampling_failure_bound(k, *t) == k**p + k**q, (k, t)


def test_row_sampling_bad_constants_between_good_calls():
    good = row_sampling_failure_bound(1000, *HEADLINE)
    for bad, message in (((4.0, 1.5, 7 / 6), "lower-tail"), ((math.nan, 5 / 6, 7 / 6), "alpha")):
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                row_sampling_failure_bound(1000, *bad)
    assert row_sampling_failure_bound(1000, *HEADLINE).hex() == good.hex()


def test_row_sampling_sweep_is_the_direct_expression_bit_for_bit():
    p, q = _row_sampling_powers(*HEADLINE)
    for k in range(2, 10**5 + 1):
        assert row_sampling_failure_bound(k, *HEADLINE) == k**p + k**q, k


def test_row_sampling_memo_under_threads_switching_constants():
    # more threads than cores, each alternating two triples, with a short
    # switch interval: a torn memo entry would pair one triple's constants
    # with the other's powers
    triples = (HEADLINE, (2, 0.5, 0.5))
    powers = [_row_sampling_powers(*t) for t in triples]
    ks = range(2, 2000)
    wrong = []

    def worker(offset):
        for k in ks:
            i = (k + offset) % 2
            p, q = powers[i]
            if row_sampling_failure_bound(k, *triples[i]) != k**p + k**q:
                wrong.append((k, i))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@given(
    st.integers(2, 10**6),
    st.floats(0.5, 8.0),
    st.floats(0.0, 0.99),
    st.floats(0.0, 4.0),
)
def test_row_sampling_failure_is_sum_of_tails(k, alpha, delta, eta):
    mu = alpha * math.log(k)
    expected = chernoff_lower_tail(ChernoffParams(k, 1.0, mu, mu, delta)) + chernoff_upper_tail(
        ChernoffParams(k, 1.0, mu, mu, eta)
    )
    got = row_sampling_failure_bound(k, alpha, delta, eta)
    assert got == pytest.approx(expected, rel=1e-12)


# --- coupon coverage --------------------------------------------------------

def test_coupon_trivial_cases():
    assert coupon_coverage_probability(3, 2) == 0.0
    assert coupon_coverage_probability(3, 9) == 1.0
    assert coupon_coverage_probability(1, 1) == 1.0


def test_coupon_k2_ell2():
    assert coupon_coverage_probability(2, 2) == pytest.approx(Fraction(2, 3), rel=1e-15)


@pytest.mark.parametrize("k", [2, 3])
def test_coupon_matches_enumeration_exactly(k):
    for ell in range(1, k * k + 1):
        exact = coverage_by_enumeration(k, ell)
        assert coupon_coverage_probability(k, ell) == float(exact), (k, ell)


def test_coupon_monotone_in_ell():
    values = [coupon_coverage_probability(8, ell) for ell in range(1, 65)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


def test_coupon_klogk_scale_is_material():
    # at ell = k the coverage is negligible; at ell = ceil(k ln k) it is
    # order one
    p_k = coupon_coverage_probability(8, 8)
    p_klogk = coupon_coverage_probability(8, math.ceil(8 * math.log(8)))
    assert p_k < 0.01
    assert p_klogk > 0.5


@pytest.mark.parametrize("k", [25, 64])
def test_coupon_large_k_equals_exact_rationals(k):
    # above k = 20 a log-space branch was once off by up to 1.3e-5 at k = 64;
    # every k now gets the float nearest the exact rational
    n = k * k
    for ell in (k, 2 * k + 10, 5 * k, n // 2, n - 1, n):
        total = math.comb(n, ell)
        exact = sum(
            Fraction((-1) ** i * math.comb(k, i) * math.comb(n - i * k, ell), total)
            for i in range(k + 1)
        )
        assert coupon_coverage_probability(k, ell) == float(exact), (k, ell)


# each id names the class of refusal; each message names its argument
@pytest.mark.parametrize(
    "k, ell, message",
    [
        pytest.param(2.5, 3, "k must be an integer", id="2.5-3-must be integers"),
        pytest.param(2, 2.5, "ell must be an integer", id="2-2.5-must be integers"),
        pytest.param(2.0, 2, "k must be an integer", id="2.0-2-must be integers"),
        pytest.param(3, 4.0, "ell must be an integer", id="3-4.0-must be integers"),
        (True, 1, "k must be a number, not a bool"),
        (2, True, "ell must be a number, not a bool"),
    ],
)
def test_coupon_rejects_non_integer_and_bool_arguments(k, ell, message):
    # 2.5 raised from inside math.comb, and k = True returned 1.0
    with pytest.raises(TypeError, match=message):
        coupon_coverage_probability(k, ell)


def test_coupon_takes_numpy_integers():
    assert coupon_coverage_probability(np.int64(2), np.int32(2)) == coupon_coverage_probability(2, 2)


def test_sample_size_of_numpy_integers_is_plain():
    # applicable was np.True_ and failure_bound an np.float64
    size = embedding_sample_size(np.int64(16), np.int64(65536))
    assert size == embedding_sample_size(16, 65536)
    assert size.applicable is True and type(size.failure_bound) is float


def test_coupon_rejects_bad_ell():
    with pytest.raises(ValueError):
        coupon_coverage_probability(4, 0)
    with pytest.raises(ValueError):
        coupon_coverage_probability(4, 17)
