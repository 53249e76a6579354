"""Closed-form tail bounds and the embedding sample-size rule for SRHT sketching.

All logarithms are natural: the Rademacher tail identity
exp(-8*log(beta*n)/8) = 1/(beta*n) used to calibrate the row-norm bound only
works in base e, and every other formula follows that convention.

Raw bound values are returned unclamped (they may exceed 1) so that
dominance comparisons see the actual expressions.
"""

import math
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
    "hoeffding_component_tail",
    "rademacher_tail",
    "row_norm_bound",
    "row_sampling_failure_bound",
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


def embedding_sample_size(k: int, n: int) -> SampleSizeBound:
    """Smallest ell with 4*(sqrt(k) + sqrt(8 log(k n)))^2 * log(k) <= ell.

    Sampling at least this many coordinates keeps every singular value of the
    sketched orthonormal matrix inside [1/sqrt(6), sqrt(13/6)] except with
    probability 3/k.  For k < 2 the log(k) factor vanishes and the result is
    the flagged sentinel ell=1.
    """
    if k < 1 or n < k:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if k < 2:
        return SampleSizeBound(1, False, EMBEDDING_SIGMA_MIN, EMBEDDING_SIGMA_MAX, 3.0)
    raw = 4.0 * (math.sqrt(k) + math.sqrt(8.0 * math.log(k * n))) ** 2 * math.log(k)
    ell = max(1, math.ceil(raw))
    return SampleSizeBound(
        ell=ell,
        applicable=ell <= n,
        sigma_min=EMBEDDING_SIGMA_MIN,
        sigma_max=EMBEDDING_SIGMA_MAX,
        failure_bound=3.0 / k,
    )


@dataclass(frozen=True)
class RowNormBound:
    value: float
    exceedance_probability: float


def row_norm_bound(n: int, k: int, beta: float) -> RowNormBound:
    """Row-norm equilibration level sqrt(k/n) + sqrt(8 log(beta n) / n).

    After a random sign flip and the orthogonal Walsh-Hadamard transform, the
    largest row norm of an n x k orthonormal-column matrix exceeds this value
    with probability at most 1/beta.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if not (math.isfinite(beta) and beta * n > 1.0):
        raise ValueError(f"need a finite beta with beta * n > 1, got beta={beta}, n={n}")
    value = math.sqrt(k / n) + math.sqrt(8.0 * math.log(beta * n) / n)
    return RowNormBound(value=value, exceedance_probability=1.0 / beta)


def rademacher_tail(lipschitz: float, t: float) -> float:
    """Tail bound exp(-t^2 / 8) for a convex L-Lipschitz function of random
    signs deviating by L*t above its mean.  L shapes the event, not the
    bound, but is validated for interface hygiene."""
    if lipschitz <= 0:
        raise ValueError(f"Lipschitz constant must be positive, got {lipschitz}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return math.exp(-t * t / 8.0)


def hoeffding_component_tail(n: int, t: float) -> float:
    """Hoeffding bound 2*exp(-n t^2 / 2) for one component of a sign-flipped,
    Hadamard-transformed unit vector to exceed t in magnitude."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return 2.0 * math.exp(-n * t * t / 2.0)


@dataclass(frozen=True)
class ChernoffParams:
    """Inputs to the matrix Chernoff tails for a sum of ell random psd
    matrices of dimension k sampled without replacement.

    ``b_max`` uniformly bounds the summands' largest eigenvalue; ``mu_min``
    and ``mu_max`` are ell times the extreme eigenvalues of the expected
    summand; ``deviation`` is the relative deviation (delta for the lower
    tail, eta for the upper).
    """

    k: int
    b_max: float
    mu_min: float
    mu_max: float
    deviation: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.b_max > 0:
            raise ValueError(f"b_max must be positive, got {self.b_max}")
        if self.mu_min < 0 or self.mu_max < self.mu_min:
            raise ValueError("need 0 <= mu_min <= mu_max")


def chernoff_lower_tail(params: ChernoffParams) -> float:
    """k * [e^-d / (1-d)^(1-d)]^(mu_min / b_max) for deviation d in [0, 1].

    Bounds the probability that the smallest eigenvalue of the sum drops to
    (1-d) * mu_min or below.  At d=1 the continuous limit k * e^(-mu/b) is
    returned.  The raw value is not clamped at 1.
    """
    return _lower_tail(params.k, params.mu_min / params.b_max, params.deviation)


def chernoff_upper_tail(params: ChernoffParams) -> float:
    """k * [e^d / (1+d)^(1+d)]^(mu_max / b_max) for deviation d >= 0.

    Bounds the probability that the largest eigenvalue of the sum reaches
    (1+d) * mu_max or above.
    """
    return _upper_tail(params.k, params.mu_max / params.b_max, params.deviation)


# Scalar forms of the two tails, with exposure = mu / b_max.  The public
# tails and the row-sampling bound share them; the latter skips building
# ChernoffParams because its own checks already imply that validation.
def _lower_tail(k, exposure, d):
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"lower-tail deviation must be in [0, 1], got {d}")
    log_base = -d if d == 1.0 else -d - (1.0 - d) * math.log1p(-d)
    return k * math.exp(exposure * log_base)


def _upper_tail(k, exposure, d):
    if d < 0:
        raise ValueError(f"upper-tail deviation must be >= 0, got {d}")
    log_base = d - (1.0 + d) * math.log1p(d)
    return k * math.exp(exposure * log_base)


def row_sampling_failure_bound(k: int, alpha: float, delta: float, eta: float) -> float:
    """Failure probability for row sampling at size ell >= alpha * M * log(k):
    the two Chernoff tails evaluated with exponent alpha * log(k).

    With alpha=4, delta=5/6, eta=7/6 this is at most 2/k for every k >= 2.
    """
    if k < 2:
        raise ValueError(f"need k >= 2 so log(k) > 0, got {k}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    exponent = alpha * math.log(k)
    return _lower_tail(k, exponent, delta) + _upper_tail(k, exponent, eta)


def coupon_coverage_probability(k: int, ell: int) -> float:
    """Probability that a uniform ell-subset of k*k items split into k
    classes of size k hits every class.

    Inclusion-exclusion over the missed classes:
    sum_i (-1)^i C(k, i) C(k^2 - i k, ell) / C(k^2, ell), summed in exact
    integers for every k and divided once, which Python rounds correctly, so
    the result is the float nearest the true probability.  The integers
    grow with k, and so does the cost: one call took up to about 0.5 ms at
    k=32, 10 ms at k=64 and 250 ms at k=128, the most near ell = k^2 / 2
    (one core of a 2-core Xeon VM).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= ell <= k * k:
        raise ValueError(f"need 1 <= ell <= k^2, got ell={ell}, k={k}")
    n = k * k
    covered = sum((-1) ** i * math.comb(k, i) * math.comb(n - i * k, ell) for i in range(k + 1))
    return covered / math.comb(n, ell)
