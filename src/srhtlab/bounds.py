"""Closed-form tail bounds and the embedding sample-size rule for SRHT sketching.

All logarithms are natural.  The row-norm bound is calibrated by the
Rademacher tail exp(-t^2/8) of a convex 1-Lipschitz function of random
signs: at t^2 = 8*log(beta*n) it is exp(-8*log(beta*n)/8) = 1/(beta*n), an
identity that holds only in base e, and every other formula follows that
convention.

Raw bound values are returned unclamped (they may exceed 1) so that
dominance comparisons see the actual expressions.  Range checks are written
so that NaN fails them.

Every integer argument of the package, a dimension, a sample size or a
count, follows one rule, kept here: ``_integers`` takes a Python or numpy
integer as a plain int and refuses anything else, a float even when whole,
with a TypeError that names the argument; ``_dimensions`` adds
1 <= k <= n and ``_sample_size`` 1 <= ell <= n, each with one ValueError
message.  So the arithmetic runs in Python ints, and a small numpy integer
type cannot wrap.  A bool is not a number: True and False would pass every
numeric check as 1 and 0, so ``_refuse_bools`` makes them a TypeError, for
the float parameters too.  The k of ``row_sampling_failure_bound`` is the
one exception: it is checked per call, only as 2 <= k < inf, on the
criterion-8 sweep's hot path.

The row-sampling failure bound is evaluated as two powers k^p + k^q; p and
q are checked and computed for the last valid (alpha, delta, eta) and kept
in a one-entry memo.  A sweep over k at fixed constants then costs about
0.25 us per call, against about 0.4 us with a cache keyed by the tuple of
constants, which builds and hashes that tuple on every call (one core of a
2-core Xeon VM).  Calls that alternate constants recompute the powers each
time, about 0.9 us.
"""

import math
import operator
from dataclasses import dataclass

__all__ = [
    "ChernoffParams",
    "EMBEDDING_SIGMA_MAX",
    "EMBEDDING_SIGMA_MIN",
    "RowNormBound",
    "SampleSizeBound",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "coupon_coverage_probability",
    "embedding_sample_size",
    "row_norm_bound",
    "row_sampling_failure_bound",
    "row_sampling_worst_ratio",
]

# Guaranteed singular-value window for sketches at the explicit-constant
# sample size: [1/sqrt(6), sqrt(13/6)], rounded in coarser statements to
# [0.40, 1.48].
EMBEDDING_SIGMA_MIN = 1.0 / math.sqrt(6.0)
EMBEDDING_SIGMA_MAX = math.sqrt(13.0 / 6.0)


@dataclass(frozen=True)
class SampleSizeBound:
    """A minimum sketch size plus the guarantee it buys.

    ``applicable`` is False when the rule degenerates (k < 2) or when the
    required size exceeds the ambient dimension n.
    """

    ell: int
    applicable: bool
    sigma_min: float
    sigma_max: float
    failure_bound: float


def _refuse_bools(**values):
    """A TypeError for the first of ``values`` that is a bool, which
    ``operator.index`` and arithmetic would take as 0 or 1: a Python bool, or
    anything of numpy's bool dtype."""
    for name, value in values.items():
        if isinstance(value, bool) or getattr(value, "dtype", None) == bool:
            raise TypeError(f"{name} must be a number, not a bool, got {value!r}")


def _integers(**values) -> list:
    """``values`` as plain ints, in order: Python or numpy integers.  A bool,
    numpy's included, or any other type, a float even when whole, is a
    TypeError that names the argument.  Every integer argument of the
    package, a dimension, a sample size or a count, is taken through it
    before any arithmetic, so a small numpy integer type cannot wrap."""
    _refuse_bools(**values)
    out = []
    for name, value in values.items():
        try:
            out.append(operator.index(value))
        except TypeError:
            raise TypeError(f"{name} must be an integer, got {value!r}") from None
    return out


def _dimensions(n, k) -> tuple:
    """(n, k) as plain ints with 1 <= k <= n, through ``_integers``."""
    n, k = _integers(n=n, k=k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return n, k


def _sample_size(n, ell) -> tuple:
    """(n, ell) as plain ints with 1 <= ell <= n, through ``_integers``."""
    n, ell = _integers(n=n, ell=ell)
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    return n, ell


def embedding_sample_size(k: int, n: int) -> SampleSizeBound:
    """Smallest ell with 4*(sqrt(k) + sqrt(8 log(k n)))^2 * log(k) <= ell.

    Sampling at least this many coordinates keeps every singular value of the
    sketched orthonormal matrix inside [1/sqrt(6), sqrt(13/6)] except with
    probability 3/k.  For k < 2 the log(k) factor vanishes and the result is
    the flagged sentinel ell=1.  k and n must be integers with 1 <= k <= n.
    """
    n, k = _dimensions(n, k)
    if k < 2:
        return SampleSizeBound(1, False, EMBEDDING_SIGMA_MIN, EMBEDDING_SIGMA_MAX, 3.0)
    raw = 4.0 * (math.sqrt(k) + math.sqrt(8.0 * math.log(k * n))) ** 2 * math.log(k)
    ell = max(1, math.ceil(raw))
    return SampleSizeBound(
        ell=ell,
        applicable=bool(ell <= n),
        sigma_min=EMBEDDING_SIGMA_MIN,
        sigma_max=EMBEDDING_SIGMA_MAX,
        failure_bound=3.0 / float(k),
    )


@dataclass(frozen=True)
class RowNormBound:
    value: float
    exceedance_probability: float


def row_norm_bound(n: int, k: int, beta: float) -> RowNormBound:
    """Row-norm equilibration level sqrt(k/n) + sqrt(8 log(beta n) / n).

    After a random sign flip and the orthogonal Walsh-Hadamard transform, the
    largest row norm of an n x k orthonormal-column matrix exceeds this value
    with probability at most 1/beta, a vacuous guarantee when beta <= 1.
    n and k must be integers with 1 <= k <= n, and beta not a bool.
    """
    n, k = _dimensions(n, k)
    _refuse_bools(beta=beta)
    if not (math.isfinite(beta) and float(beta) * n > 1.0):
        raise ValueError(f"need a finite beta with beta * n > 1, got beta={beta}, n={n}")
    beta = float(beta)
    value = math.sqrt(k / n) + math.sqrt(8.0 * math.log(beta * n) / n)
    return RowNormBound(value=value, exceedance_probability=1.0 / beta)


@dataclass(frozen=True)
class ChernoffParams:
    """Inputs to the matrix Chernoff tails for a sum of ell random psd
    matrices of dimension k sampled without replacement.

    ``b_max`` uniformly bounds the summands' largest eigenvalue; ``mu_min``
    and ``mu_max`` are ell times the extreme eigenvalues of the expected
    summand; ``deviation`` is the relative deviation (delta for the lower
    tail, eta for the upper).  ``k`` must be an integer >= 1, stored as a
    plain int, and no field a bool.
    """

    k: int
    b_max: float
    mu_min: float
    mu_max: float
    deviation: float

    def __post_init__(self):
        _refuse_bools(**vars(self))
        (k,) = _integers(k=self.k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "k", k)
        if not 0 < self.b_max < math.inf:
            raise ValueError(f"b_max must be positive and finite, got {self.b_max}")
        if not 0 <= self.mu_min <= self.mu_max < math.inf:
            raise ValueError(f"need 0 <= mu_min <= mu_max < inf, got {self.mu_min, self.mu_max}")


def chernoff_lower_tail(params: ChernoffParams) -> float:
    """k * [e^-d / (1-d)^(1-d)]^(mu_min / b_max) for deviation d in [0, 1].

    Bounds the probability that the smallest eigenvalue of the sum drops to
    (1-d) * mu_min or below.  At d=1 the continuous limit k * e^(-mu/b) is
    returned.  The raw value is not clamped at 1.
    """
    exposure = params.mu_min / params.b_max
    return params.k * math.exp(exposure * _lower_log_base(params.deviation))


def chernoff_upper_tail(params: ChernoffParams) -> float:
    """k * [e^d / (1+d)^(1+d)]^(mu_max / b_max) for deviation d >= 0.

    Bounds the probability that the largest eigenvalue of the sum reaches
    (1+d) * mu_max or above.
    """
    exposure = params.mu_max / params.b_max
    return params.k * math.exp(exposure * _upper_log_base(params.deviation))


# Natural logs of the two tails' bases, with the only range checks for a
# deviation.  A tail is k * exp(exposure * log_base).
def _lower_log_base(d):
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"lower-tail deviation must be in [0, 1], got {d}")
    return -d if d == 1.0 else -d - (1.0 - d) * math.log1p(-d)


def _upper_log_base(d):
    if not 0.0 <= d < math.inf:
        raise ValueError(f"upper-tail deviation must be finite and >= 0, got {d}")
    return d - (1.0 + d) * math.log1p(d)


def _row_sampling_powers(alpha, delta, eta):
    """The exponents (p, q) of ``row_sampling_failure_bound``.  A bool
    constant is a TypeError here, off the bound's per-call path, so a bool
    equal to the memo's last valid constant (True to 1.0) still hits the
    memo until the memo is dropped."""
    _refuse_bools(alpha=alpha, delta=delta, eta=eta)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return 1.0 + alpha * _lower_log_base(delta), 1.0 + alpha * _upper_log_base(eta)


# (alpha, delta, eta, p, q) of the last valid constants.  Replaced whole and
# only after _row_sampling_powers returns, so a reader on another thread
# never sees a torn entry and bad constants are never stored.  NaN equals
# nothing, so the first call, and every call with a NaN constant, misses.
_row_sampling_memo = (math.nan,) * 5


def row_sampling_failure_bound(k: int, alpha: float, delta: float, eta: float) -> float:
    """Failure probability for row sampling at size ell >= alpha * M * log(k):
    the two Chernoff tails evaluated with exponent alpha * log(k).

    Since k * exp(alpha * log(k) * log_base) = k^(1 + alpha * log_base), this
    is k^p + k^q with p = 1 + alpha * a(delta) and q = 1 + alpha * b(eta),
    where a and b are the lower and upper tails' log-bases.  The powers of
    the last valid (alpha, delta, eta) are kept in a one-entry memo that
    equal constants hit (4 and 4.0 alike), so a sweep over k at fixed
    constants costs one check of k, three comparisons and two powers per
    call: about 0.25 us, against about 0.4 us with a tuple-keyed cache and
    0.65 us for evaluating both tails (one core of a 2-core Xeon VM).  Calls
    that alternate constants recompute the powers each time, about 0.9 us.
    Bad constants are never stored, so they raise on every call.

    With alpha=4, delta=5/6, eta=7/6 this is at most 2/k for every k >= 2:
    ``row_sampling_worst_ratio`` gives sup bound * k / 2 = 0.94.
    """
    global _row_sampling_memo
    if not 2 <= k < math.inf:
        raise ValueError(f"need a finite k >= 2 so log(k) > 0, got {k}")
    a, d, e, p, q = _row_sampling_memo
    if not (alpha == a and delta == d and eta == e):
        p, q = _row_sampling_powers(alpha, delta, eta)
        _row_sampling_memo = (alpha, delta, eta, p, q)
    return k**p + k**q


def row_sampling_worst_ratio(alpha: float, delta: float, eta: float) -> float:
    """sup over k >= 2 of row_sampling_failure_bound(k, ...) * k / 2.

    With p and q the bound's exponents, bound(k) * k / 2 is
    (k^(p+1) + k^(q+1)) / 2.  When p + 1 and q + 1 are both negative it
    decreases in k, so the supremum is bound(2), and a value below 1
    certifies bound(k) <= 2/k for every k >= 2, not only those a sweep
    reaches.  ValueError when p + 1 or q + 1 is >= 0 (alpha = 1 is one such
    case): the ratio then does not decrease, and grows without bound when an
    exponent is positive.
    """
    p, q = _row_sampling_powers(alpha, delta, eta)
    if not (p + 1.0 < 0.0 and q + 1.0 < 0.0):
        raise ValueError(
            f"bound * k / 2 does not decrease in k: exponents p+1={p + 1.0}, q+1={q + 1.0}"
        )
    return row_sampling_failure_bound(2, alpha, delta, eta)


def coupon_coverage_probability(k: int, ell: int) -> float:
    """Probability that a uniform ell-subset of k*k items split into k
    classes of size k hits every class.

    Inclusion-exclusion over the missed classes:
    sum_i (-1)^i C(k, i) C(k^2 - i k, ell) / C(k^2, ell), summed in exact
    integers for every k and divided once, which Python rounds correctly, so
    the result is the float nearest the true probability.  The integers
    grow with k, and so does the cost: one call took up to about 0.5 ms at
    k=32, 10 ms at k=64 and 250 ms at k=128, the most near ell = k^2 / 2
    (one core of a 2-core Xeon VM).  k and ell must be integers with k >= 1
    and 1 <= ell <= k^2.
    """
    (k,) = _integers(k=k)
    n, k = _dimensions(k * k, k)
    n, ell = _sample_size(n, ell)
    covered = sum((-1) ** i * math.comb(k, i) * math.comb(n - i * k, ell) for i in range(k + 1))
    return covered / math.comb(n, ell)
