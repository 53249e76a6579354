"""Monte Carlo and exhaustive validation of the sketching guarantees.

Each runner draws its randomness from substreams keyed as
(master_seed, domain, stream, index), domain 0 for fixtures (test matrices,
directions) and domain 1 for per-trial draws, so reruns and any trial
ordering produce identical numbers.  Exhaustive runs enumerate subsets in
lexicographic order and are seed-independent except for the fixture matrix.

Every bound check (embedding, row norms, flatten, both Chernoff tails)
passes by one one-sided rule, ``_one_sided_summary``: over every subset
(exhaustive) the frequency must not exceed the bound; by Monte Carlo it may
exceed it by four binomial standard deviations at the bound capped at 1
(``monte_carlo_slack``), which keeps spurious failures around the 1e-4
level while leaving real violations detectable.  Coupon compares with an
exact probability, so its rule is two-sided: |frequency - exact| within the
same slack at the exact probability.  mgf compares two means, not a
frequency with a bound: the without-replacement mean must not exceed the
with-replacement one, up to 1e-10 relative over every subset or four
standard errors of the two means by Monte Carlo.

Every runner except the row-norm one computes its trials in blocks.  One
loop cuts the trials into blocks of about ``_BLOCK_BYTES`` (256 KiB) of
working array each, whatever the trial count, up to ``EXHAUSTIVE_CAP``
subsets, and fills one row of a per-trial result array (a spectrum, or a
largest component) per trial.  Every trial still draws from its own
substream in the same call layout.  Embedding and coupon stack a block of
operator draws into one ``sketch_stack`` call; flatten is the ell = n case
of that map (every index kept, scale 1), one sign vector per trial.
Chernoff and both sides of mgf turn a block of ell-row lists into one Gram
stack and one eigensolve; the with-replacement side of mgf lists a row once
per draw, so a repeated row counts twice with no weight.  The block size
never changes a count: each trial's arithmetic is the one it would get
alone, except that extremes may move by a few ulp where the transform's
matrix products run at a different width.

The row-norm runner is the one that goes trial by trial: one of its trials
is over the block budget (512 KiB at the headline shape), and a stacked
transform was measured slower there, its array falling out of cache.  It
never forms a Householder basis.  Each trial draws its Gaussian and its
signs from the same substreams a ``random_orthonormal`` basis would use,
and orthonormalizes by two passes of Cholesky QR (CholeskyQR2) wrapped
around the in-place transform; the per-trial orthonormality check on the
transformed matrix is kept.

Each runner's keyword defaults are its headline configuration, the one the
acceptance suite checks; called with only a seed, it runs that configuration.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    ChernoffParams,
    chernoff_lower_tail,
    chernoff_upper_tail,
    coupon_coverage_probability,
    embedding_sample_size,
    hoeffding_component_tail,
    row_norm_bound,
)
from .linalg import (
    RANK_RTOL,
    decimated_identity,
    gram,
    orthonormality_defect,
    random_orthonormal,
    singular_values,
    symmetric_eigenvalues,
)
from .srht import (
    derived_rng,
    draw_signs_and_indices,
    rademacher_signs,
    sample_without_replacement,
    sketch_stack,
)
from .wht import HadamardDim, fwht_inplace

__all__ = [
    "CSV_COLUMNS",
    "EXHAUSTIVE_CAP",
    "ExperimentSummary",
    "SCHEMA_VERSION",
    "TrialPlan",
    "monte_carlo_slack",
    "run_chernoff_validation",
    "run_coupon_trials",
    "run_embedding_trials",
    "run_flattening_trials",
    "run_mgf_domination",
    "run_row_norm_trials",
    "summaries_to_csv",
    "summaries_to_json",
]

EXHAUSTIVE_CAP = 10**7
MODES = ("monte_carlo", "exhaustive")
SLACK_SIGMAS = 4.0
SCHEMA_VERSION = 1
# Bytes of working array per block of stacked trials.  Small on purpose: on
# the k=8 coupon benchmark (1000 trials per ell) a 1 MiB block was no faster
# and raised peak resident memory from 40.6 to 43.0 MB.
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class TrialPlan:
    """What an experiment ran: dimensions, trial count, seed, and mode.

    Dimensions that do not apply to a given experiment are recorded as 0.
    In exhaustive mode ``trials`` is the number of enumerated subsets.
    """

    n: int
    k: int
    ell: int
    trials: int
    seed: int
    mode: str = "monte_carlo"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "exhaustive" and not 1 <= self.ell <= self.n:
            raise ValueError(f"need 1 <= ell <= n, got ell={self.ell}, n={self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.mode == "exhaustive":
            if math.comb(self.n, self.ell) > EXHAUSTIVE_CAP:
                raise ValueError(
                    f"C({self.n}, {self.ell}) exceeds the exhaustive cap {EXHAUSTIVE_CAP}"
                )


@dataclass
class ExperimentSummary:
    """Aggregate result of one experiment (or one grid point of one).

    ``extreme_sigma_min`` / ``extreme_sigma_max`` hold (min sigma_k, max
    sigma_1) for singular-value experiments; other runners document what they
    store there.  ``passed`` is a pure function of the recorded numbers, with
    one exception: a Monte Carlo mgf allowance uses standard errors that are
    not recorded.
    ``elapsed_seconds`` is the wall-clock time of the work behind this summary
    (a grid point's own trials, or the enumeration a Chernoff or mgf grid
    shares) and is excluded from equality.
    """

    name: str
    plan: TrialPlan
    empirical_frequency: float
    analytic_bound: float
    extreme_sigma_min: float
    extreme_sigma_max: float
    passed: bool
    elapsed_seconds: float = field(compare=False, default=0.0)

    def to_record(self, include_timing: bool = True) -> dict:
        record = {
            "name": self.name,
            "n": self.plan.n,
            "k": self.plan.k,
            "ell": self.plan.ell,
            "trials": self.plan.trials,
            "seed": self.plan.seed,
            "mode": self.plan.mode,
            "empirical": self.empirical_frequency,
            "bound": self.analytic_bound,
            "extreme_sigma_min": self.extreme_sigma_min,
            "extreme_sigma_max": self.extreme_sigma_max,
            "passed": self.passed,
        }
        if include_timing:
            record["elapsed_seconds"] = self.elapsed_seconds
        return record


def monte_carlo_slack(bound: float, trials: int) -> float:
    """Four binomial standard deviations at success probability min(bound, 1)."""
    b = min(bound, 1.0)
    return SLACK_SIGMAS * math.sqrt(b * (1.0 - b) / trials)


def _one_sided_summary(name, plan, events, bound, lows, highs, elapsed):
    """Summary of per-trial ``events`` (booleans) in ``plan.trials`` trials
    whose probability is at most ``bound``: passes when the frequency is at
    most the bound, plus ``monte_carlo_slack`` in Monte Carlo mode.  Extremes
    are the least of the per-trial ``lows`` and the greatest of the
    ``highs``."""
    # a Python int keeps the frequency, and so ``passed``, plain JSON values
    frequency = int(np.count_nonzero(events)) / plan.trials
    slack = 0.0 if plan.mode == "exhaustive" else monte_carlo_slack(bound, plan.trials)
    return ExperimentSummary(
        name=name,
        plan=plan,
        empirical_frequency=frequency,
        analytic_bound=bound,
        extreme_sigma_min=float(np.min(lows)),
        extreme_sigma_max=float(np.max(highs)),
        passed=frequency <= bound + slack,
        elapsed_seconds=elapsed,
    )


def _fill_blocks(items, count, width, item_bytes, fn):
    """``count`` x ``width`` array whose rows are ``fn`` of consecutive blocks
    of max(1, _BLOCK_BYTES // item_bytes) of the ``count`` ``items``, ``fn``
    giving one row per item of its list."""
    out = np.empty((count, width))
    size = max(1, _BLOCK_BYTES // item_bytes)
    items = iter(items)
    offset = 0
    while block := list(itertools.islice(items, size)):
        out[offset : offset + len(block)] = fn(block)
        offset += len(block)
    return out


def _sketch_spectra(v, ell, stream, trials, seed, spectrum):
    """``trials`` x k stack of ``spectrum`` of the ell x k sketches of ``v``:
    trial i under the operator ``draw_signs_and_indices(n, ell, (seed, 1,
    stream, i))`` draws, one ``sketch_stack`` per block of draws."""
    n, k = v.shape
    draws = (draw_signs_and_indices(n, ell, (seed, 1, stream, i)) for i in range(trials))

    def block_spectra(block):
        signs, indices = (np.array(parts) for parts in zip(*block))
        return spectrum(sketch_stack(signs, indices, v))

    return _fill_blocks(draws, trials, k, v.nbytes, block_spectra)


def run_embedding_trials(n=65536, k=16, ell=None, trials=200, seed=0):
    """Check the singular-value window of sketched orthonormal columns.

    One orthonormal V is fixed per run; each trial applies an independent
    SRHT, drawn from substream (seed, 1, 0, i) as ``draw_srht`` would, and
    records sigma_k and sigma_1 of the sketch.  A trial is a violation when
    sigma_k < 1/sqrt(6) or sigma_1 > sqrt(13/6); the analytic bound on the
    violation frequency is 3/k.  If ``ell`` is omitted the explicit-constant
    sample size is used.  Trials are sketched in blocks, one
    ``sketch_stack`` and one stacked SVD per block; the block size never
    changes a count.
    """
    start = time.perf_counter()
    size = embedding_sample_size(k, n)
    if ell is None:
        if k < 2:
            raise ValueError(f"the sample-size rule needs k >= 2, got k={k}; give ell (--l)")
        if not size.applicable:
            raise ValueError(f"required sample size {size.ell} exceeds n={n}")
        ell = size.ell
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    plan = TrialPlan(n=n, k=k, ell=ell, trials=trials, seed=seed)
    basis = random_orthonormal(n, k, (seed, 0, 0, 0))
    spectra = _sketch_spectra(basis, ell, 0, trials, seed, singular_values)
    sigma_top, sigma_bot = spectra[:, 0], spectra[:, -1]
    violations = (sigma_bot < size.sigma_min) | (sigma_top > size.sigma_max)
    return _one_sided_summary(
        "embedding", plan, violations, size.failure_bound, sigma_bot, sigma_top,
        time.perf_counter() - start,
    )


def _cholesky_r(a):
    """Upper-triangular R with positive diagonal and R^T R = A^T A."""
    return np.linalg.cholesky(gram(a)).T


def run_row_norm_trials(n=4096, k=16, beta=None, trials=2000, seed=0):
    """Check the row-norm equilibration level of sign-flipped transforms.

    Each trial draws a Gaussian n x k matrix G from substream (seed, 0, 0, i)
    and signs D from (seed, 1, 0, i), and records the largest row norm of
    H D V, where V = G R^-1 is G's orthonormal factor (R with positive
    diagonal: the basis a sign-fixed Householder QR gives).  V is not formed.
    Two passes of Cholesky QR (CholeskyQR2) run around the in-place
    transform: R_1 from the Gram of G, W_1 = H D G R_1^-1, R_2 from the Gram
    of W_1, and W = W_1 R_2^-1.  H D is orthogonal, so the second pass may be
    measured after it, and it also corrects the transform's own rounding; one
    pass alone leaves square inputs visibly non-orthonormal.
    The exceedance frequency of the analytic level is compared against
    1/beta (``beta`` defaults to k).  Extremes hold the (min, max) observed
    max row norm.  Column orthonormality of the transformed matrix is
    verified every trial.
    """
    start = time.perf_counter()
    HadamardDim.of_size(n)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    level = row_norm_bound(n, k, float(k) if beta is None else beta)
    plan = TrialPlan(n=n, k=k, ell=0, trials=trials, seed=seed)
    norms = np.empty(trials)
    for i in range(trials):
        g = derived_rng(seed, 0, 0, i).standard_normal((n, k))
        r1 = _cholesky_r(g)
        g *= rademacher_signs(derived_rng(seed, 1, 0, i), n)[:, None]
        w1 = fwht_inplace(g) @ np.linalg.inv(r1)
        w = w1 @ np.linalg.inv(_cholesky_r(w1))
        defect = orthonormality_defect(w)
        if defect > 1e-8:
            raise RuntimeError(f"transformed basis lost orthonormality: defect {defect}")
        norms[i] = np.sqrt(np.max(np.sum(w * w, axis=1)))
    return _one_sided_summary(
        "rownorm", plan, norms >= level.value, level.exceedance_probability, norms, norms,
        time.perf_counter() - start,
    )


def run_flattening_trials(n=1024, trials=1000, seed=0, direction=None):
    """Check how well random signs plus the transform flatten one vector.

    For a fixed unit vector x (random unless ``direction`` is supplied), each
    trial draws fresh signs from substream (seed, 1, 0, i) and records
    max_i |(H D x)_i|.  The exceedance frequency of t = sqrt(log(n)/n) is
    compared against the union bound n * 2 exp(-n t^2 / 2), recorded as-is
    even when it is vacuous (> 1).  Extremes hold the (min, max) observed max
    component magnitude.  H D x is the sketch with every index kept (ell = n,
    scale 1), so blocks of trials share one ``sketch_stack``; the block size
    never changes a count.  A direction that is not finite, is zero, or
    whose norm leaves the float64 range is a ValueError.
    """
    start = time.perf_counter()
    HadamardDim.of_size(n)
    plan = TrialPlan(n=n, k=0, ell=0, trials=trials, seed=seed)
    if direction is None:
        g = derived_rng(seed, 0, 0, 0).standard_normal(n)
    else:
        g = np.asarray(direction, dtype=np.float64)
        if g.shape != (n,):
            raise ValueError(f"direction must have shape ({n},), got {g.shape}")
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        x = g / np.linalg.norm(g)
    if not (np.isfinite(x).all() and x.any()):
        raise ValueError("direction must be finite and nonzero, with a finite norm")
    threshold = math.sqrt(math.log(n) / n)
    bound = n * hoeffding_component_tail(n, threshold)
    every_index = np.arange(n)
    signs = (rademacher_signs(derived_rng(seed, 1, 0, i), n) for i in range(trials))

    def block_peaks(block):
        indices = np.broadcast_to(every_index, (len(block), n))
        return np.max(np.abs(sketch_stack(np.array(block), indices, x)), axis=1)[:, None]

    peaks = _fill_blocks(signs, trials, 1, x.nbytes, block_peaks)[:, 0]
    return _one_sided_summary(
        "flatten", plan, peaks >= threshold, bound, peaks, peaks, time.perf_counter() - start
    )


def run_coupon_trials(k=8, ell_grid=(8, 12, 17, 24), trials=10000, seed=0):
    """Sketch the decimated identity and compare full-rank frequency with the
    exact class-coverage probability.

    The worst-case n x k input (n = k^2) has k distinct row classes; the
    sketch keeps rank k exactly when the sample hits every class, so the
    full-rank frequency must track the coupon-coverage oracle.  One summary
    per ell; passes when |empirical - exact| <= 4 binomial sigmas at the
    exact probability.  Trial i at grid point gi draws the operator
    ``draw_srht(n, ell, (seed, 1, gi, i))`` would; blocks of trials share one
    ``sketch_stack``, one Gram stack and one eigensolve, and the block size
    never changes a count.
    """
    basis = decimated_identity(k)
    n = k * k
    summaries = []
    for gi, ell in enumerate(ell_grid):
        start = time.perf_counter()
        exact = coupon_coverage_probability(k, ell)
        plan = TrialPlan(n=n, k=k, ell=ell, trials=trials, seed=seed)
        eig = _sketch_spectra(
            basis, ell, gi, trials, seed, lambda s: symmetric_eigenvalues(gram(s))
        )
        spectra = np.sqrt(np.clip(eig, 0.0, None))
        sigma_top, sigma_bot = spectra[:, 0], spectra[:, -1]
        full_rank = sigma_bot > RANK_RTOL * np.maximum(sigma_top, 1.0)
        frequency = int(np.count_nonzero(full_rank)) / trials
        summaries.append(
            ExperimentSummary(
                name=f"coupon(ell={ell})",
                plan=plan,
                empirical_frequency=frequency,
                analytic_bound=exact,
                extreme_sigma_min=float(sigma_bot.min()),
                extreme_sigma_max=float(sigma_top.max()),
                passed=abs(frequency - exact) <= monte_carlo_slack(exact, trials),
                elapsed_seconds=time.perf_counter() - start,
            )
        )
    return summaries


def _sampled_gram_eigenvalues(w, rows):
    """Descending eigenvalues of the Gram matrix of the rows of ``w`` listed
    in ``rows``, a row listed twice counting twice.  A B x ell stack of row
    lists gives B spectra."""
    return symmetric_eigenvalues(gram(w[np.asarray(rows, dtype=np.int64), :]))


def _gram_spectra(w, ell, row_lists, count):
    """``count`` x k stack of descending Gram spectra of ``w``, one per
    ell-row list in ``row_lists``, with one stacked eigensolve per block."""
    return _fill_blocks(
        row_lists, count, w.shape[1], ell * w.shape[1] * 8,
        lambda block: _sampled_gram_eigenvalues(w, block),
    )


def _subsets(n, ell, mode, count, seed):
    """The ell-subsets a run samples without replacement: every one in
    lexicographic order (exhaustive), or ``count`` draws, draw i from
    substream (seed, 1, 0, i) (Monte Carlo)."""
    if mode == "exhaustive":
        return itertools.combinations(range(n), ell)
    return (
        sample_without_replacement(n, ell, derived_rng(seed, 1, 0, i)) for i in range(count)
    )


def run_chernoff_validation(
    n=16,
    k=2,
    ell=6,
    deviation_grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    seed=0,
    mode="exhaustive",
    trials=2000,
):
    """Tail probabilities of the sampled Gram spectrum vs the Chernoff bounds.

    Fixes an orthonormal W, so the summands w_j w_j^T have mean I/n and
    mu_min = mu_max = ell/n; b_max is the largest squared row norm of the
    realized W.  For each deviation d in the grid, emits a lower-tail summary
    (P{lambda_min <= (1-d) ell/n}) and an upper-tail one
    (P{lambda_max >= (1+d) ell/n}), both by the one-sided rule: exact
    dominance over every ell-subset, four binomial sigmas of slack by Monte
    Carlo.  Every tail is evaluated before any subset, so a deviation outside
    a tail's domain is a ValueError at once.  Extremes hold the observed
    extreme singular values (square roots of the extreme Gram eigenvalues).
    Both modes feed their subsets, enumerated or drawn one substream each,
    through the same loop, one stacked eigensolve per block.
    """
    start = time.perf_counter()
    plan_trials = math.comb(n, ell) if mode == "exhaustive" else trials
    plan = TrialPlan(n=n, k=k, ell=ell, trials=plan_trials, seed=seed, mode=mode)
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    b_max = float(np.max(np.sum(w * w, axis=1)))
    mu = ell / n
    params = [ChernoffParams(k, b_max, mu, mu, d) for d in deviation_grid]
    tails = [(chernoff_lower_tail(p), chernoff_upper_tail(p)) for p in params]
    eig = _gram_spectra(w, ell, _subsets(n, ell, mode, plan_trials, seed), plan_trials)
    lam_min, lam_max = eig[:, -1], eig[:, 0]
    lows, highs = np.sqrt(np.clip(lam_min, 0.0, None)), np.sqrt(lam_max)
    elapsed = time.perf_counter() - start
    summaries = []
    for d, (lower, upper) in zip(deviation_grid, tails):
        summaries += [
            _one_sided_summary(
                f"chernoff_lower(delta={d:g})", plan, lam_min <= (1.0 - d) * mu, lower,
                lows, highs, elapsed,
            ),
            _one_sided_summary(
                f"chernoff_upper(eta={d:g})", plan, lam_max >= (1.0 + d) * mu, upper,
                lows, highs, elapsed,
            ),
        ]
    return summaries


def run_mgf_domination(
    n=8, k=2, ell=3, theta_grid=(0.5, 1.0, 2.0), seed=0, mode="exhaustive", trials=2000
):
    """Trace of the matrix moment generating function: sampling without
    replacement vs with replacement.

    For the same rank-one family as the Chernoff validation, computes
    E tr exp(theta * sum X_j) under both sampling models.  Exhaustive mode
    averages over all ell-subsets and, for the with-replacement side, over
    the sorted multisets, weighted by their multinomial counts (reduced from
    the n^ell sequences by exchangeability).  Monte Carlo mode draws subset i
    as the Chernoff runner does and sequence i from substream (seed, 1, 1, i).
    Both sides, in both modes, are ell-row lists (repeats included on the
    with-replacement side) fed through the Chernoff runner's block loop.
    One summary per theta with empirical = without/with ratio against the
    domination threshold 1; extremes hold (without, with).  Exhaustive passes
    need without <= with up to 1e-10 relative; Monte Carlo replaces that with
    a four-standard-error allowance on the estimated means, which needs at
    least two trials.  A non-finite theta, or one at which the traces or
    their variance overflow float64 or the traces underflow to 0, is a
    ValueError.
    """
    start = time.perf_counter()
    if mode == "monte_carlo" and trials < 2:
        raise ValueError(f"Monte Carlo mgf needs trials >= 2 for a standard error, got {trials}")
    if mode == "exhaustive" and n**ell > EXHAUSTIVE_CAP:
        raise ValueError(f"{n}^{ell} sequences exceed the exhaustive cap {EXHAUSTIVE_CAP}")
    if not all(math.isfinite(theta) for theta in theta_grid):
        raise ValueError(f"theta must be finite, got {list(theta_grid)}")
    plan_trials = math.comb(n, ell) if mode == "exhaustive" else trials
    plan = TrialPlan(n=n, k=k, ell=ell, trials=plan_trials, seed=seed, mode=mode)
    w = random_orthonormal(n, k, (seed, 0, 0, 0))

    without_eigs = _gram_spectra(w, ell, _subsets(n, ell, mode, plan_trials, seed), plan_trials)
    if mode == "exhaustive":
        log_seq = ell * math.log(n)
        with_weights = []
        for multiset in itertools.combinations_with_replacement(range(n), ell):
            log_weight = math.lgamma(ell + 1) - log_seq
            for _, run in itertools.groupby(multiset):
                log_weight -= math.lgamma(len(list(run)) + 1)
            with_weights.append(math.exp(log_weight))
        total = math.fsum(with_weights)
        if abs(total - 1.0) > 1e-12:
            raise RuntimeError(f"multinomial weights sum to {total}, expected 1")
        with_weights = np.array(with_weights)
        sequences = itertools.combinations_with_replacement(range(n), ell)
    else:
        with_weights = np.full(trials, 1.0 / trials)
        sequences = (derived_rng(seed, 1, 1, i).integers(0, n, size=ell) for i in range(trials))
    with_eigs = _gram_spectra(w, ell, sequences, len(with_weights))
    elapsed = time.perf_counter() - start

    summaries = []
    for theta in theta_grid:
        # an overflowed trace, or overflowed squared deviations in a standard
        # error, make the mean or the limit inf or nan; an underflowed one
        # makes the with-replacement mean 0
        with np.errstate(over="ignore", invalid="ignore"):
            wo_values = np.exp(theta * without_eigs).sum(axis=1)
            wi_values = np.exp(theta * with_eigs).sum(axis=1)
            without = float(np.mean(wo_values))
            with_repl = float(with_weights @ wi_values)
            if mode == "exhaustive":
                limit = with_repl * (1.0 + 1e-10)
            else:
                se_wo = float(np.std(wo_values, ddof=1)) / math.sqrt(len(wo_values))
                se_wi = float(np.std(wi_values, ddof=1)) / math.sqrt(len(wi_values))
                limit = with_repl + SLACK_SIGMAS * math.hypot(se_wo, se_wi)
        if not (math.isfinite(without) and math.isfinite(limit) and with_repl > 0.0):
            raise ValueError(f"tr exp(theta * lambda) leaves the float64 range at theta={theta:g}")
        summaries.append(
            ExperimentSummary(
                name=f"mgf_domination(theta={theta:g})",
                plan=plan,
                empirical_frequency=without / with_repl,
                analytic_bound=1.0,
                extreme_sigma_min=without,
                extreme_sigma_max=with_repl,
                passed=without <= limit,
                elapsed_seconds=elapsed,
            )
        )
    return summaries


CSV_COLUMNS = (
    "name",
    "n",
    "k",
    "ell",
    "trials",
    "mode",
    "seed",
    "empirical",
    "bound",
    "extreme_sigma_min",
    "extreme_sigma_max",
    "passed",
    "elapsed_seconds",
)


def summaries_to_json(summaries, config: dict, include_timing: bool = True) -> str:
    """The report document ``{"schema": 1, "config": config, "summaries":
    [record, ...]}``, keys sorted; ``config`` echoes what was run."""
    doc = {
        "schema": SCHEMA_VERSION,
        "config": config,
        "summaries": [s.to_record(include_timing=include_timing) for s in summaries],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def summaries_to_csv(summaries, include_timing: bool = True) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    columns = [c for c in CSV_COLUMNS if include_timing or c != "elapsed_seconds"]
    writer.writerow(columns)
    for s in summaries:
        record = s.to_record(include_timing=include_timing)
        writer.writerow([record[c] for c in columns])
    return buf.getvalue()
