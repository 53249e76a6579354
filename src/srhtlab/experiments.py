"""Monte Carlo and exhaustive validation of the sketching guarantees.

Each runner draws its randomness from substreams keyed as
(master_seed, domain, stream, index), domain 0 for fixtures (test matrices,
directions) and domain 1 for per-trial draws, so reruns and any trial
ordering produce identical numbers.  Exhaustive runs enumerate subsets in
lexicographic order and are seed-independent except for the fixture matrix.

Monte Carlo pass rules all have the same shape: the empirical frequency must
not exceed the analytic bound by more than four binomial standard deviations
(computed from the bound capped at 1), which keeps spurious failures around
the 1e-4 level while leaving real violations of the bounds detectable.
"""

import itertools
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
from .srht import apply_to_matrix, derived_rng, draw_srht, sample_without_replacement
from .wht import fwht

__all__ = [
    "CSV_COLUMNS",
    "EXHAUSTIVE_CAP",
    "ExperimentSummary",
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
    store there.  ``passed`` is a pure function of the recorded numbers.
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


def _rademacher_signs(rng, n):
    return 2.0 * rng.integers(0, 2, size=n).astype(np.float64) - 1.0


def run_embedding_trials(n, k, ell=None, trials=200, seed=0, fresh_basis=False):
    """Check the singular-value window of sketched orthonormal columns.

    One orthonormal V is fixed per run (``fresh_basis=True`` redraws it every
    trial); each trial applies an independent SRHT and records sigma_k and
    sigma_1 of the sketch.  A trial is a violation when sigma_k < 1/sqrt(6)
    or sigma_1 > sqrt(13/6); the analytic bound on the violation frequency is
    3/k.  If ``ell`` is omitted the explicit-constant sample size is used.
    """
    start = time.perf_counter()
    size = embedding_sample_size(k, n)
    if ell is None:
        if not size.applicable:
            raise ValueError(f"required sample size {size.ell} exceeds n={n}")
        ell = size.ell
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    plan = TrialPlan(n=n, k=k, ell=ell, trials=trials, seed=seed)
    basis = random_orthonormal(n, k, (seed, 0, 0, 0))
    violations = 0
    sigma_min_seen = math.inf
    sigma_max_seen = -math.inf
    for i in range(trials):
        if fresh_basis:
            basis = random_orthonormal(n, k, (seed, 0, 0, i))
        op = draw_srht(n, ell, (seed, 1, 0, i))
        spectrum = singular_values(apply_to_matrix(op, basis))
        sigma_top, sigma_bot = float(spectrum[0]), float(spectrum[-1])
        sigma_min_seen = min(sigma_min_seen, sigma_bot)
        sigma_max_seen = max(sigma_max_seen, sigma_top)
        if sigma_bot < size.sigma_min or sigma_top > size.sigma_max:
            violations += 1
    frequency = violations / trials
    bound = size.failure_bound
    return ExperimentSummary(
        name="embedding",
        plan=plan,
        empirical_frequency=frequency,
        analytic_bound=bound,
        extreme_sigma_min=sigma_min_seen,
        extreme_sigma_max=sigma_max_seen,
        passed=frequency <= bound + monte_carlo_slack(bound, trials),
        elapsed_seconds=time.perf_counter() - start,
    )


def run_row_norm_trials(n, k, beta, trials=2000, seed=0):
    """Check the row-norm equilibration level of sign-flipped transforms.

    Each trial draws fresh signs and a fresh orthonormal V, transforms, and
    records the largest row norm; the exceedance frequency of the analytic
    level is compared against 1/beta.  Extremes hold the (min, max) observed
    max row norm.  Column orthonormality of the transformed matrix is
    verified every trial.
    """
    start = time.perf_counter()
    level = row_norm_bound(n, k, beta)
    plan = TrialPlan(n=n, k=k, ell=0, trials=trials, seed=seed)
    exceedances = 0
    lo, hi = math.inf, -math.inf
    for i in range(trials):
        basis = random_orthonormal(n, k, (seed, 0, 0, i))
        signs = _rademacher_signs(derived_rng(seed, 1, 0, i), n)
        w = fwht(signs[:, None] * basis)
        defect = orthonormality_defect(w)
        if defect > 1e-8:
            raise RuntimeError(f"transformed basis lost orthonormality: defect {defect}")
        max_norm = float(np.sqrt(np.max(np.sum(w * w, axis=1))))
        lo, hi = min(lo, max_norm), max(hi, max_norm)
        if max_norm >= level.value:
            exceedances += 1
    frequency = exceedances / trials
    bound = level.exceedance_probability
    return ExperimentSummary(
        name="rownorm",
        plan=plan,
        empirical_frequency=frequency,
        analytic_bound=bound,
        extreme_sigma_min=lo,
        extreme_sigma_max=hi,
        passed=frequency <= bound + monte_carlo_slack(bound, trials),
        elapsed_seconds=time.perf_counter() - start,
    )


def run_flattening_trials(n, trials=1000, seed=0, direction=None):
    """Check how well random signs plus the transform flatten one vector.

    For a fixed unit vector x (random unless ``direction`` is supplied), each
    trial draws fresh signs and records max_i |(H D x)_i|.  The exceedance
    frequency of t = sqrt(log(n)/n) is compared against the union bound
    n * 2 exp(-n t^2 / 2), recorded as-is even when it is vacuous (> 1).
    Extremes hold the (min, max) observed max component magnitude.
    """
    start = time.perf_counter()
    plan = TrialPlan(n=n, k=0, ell=0, trials=trials, seed=seed)
    if direction is None:
        g = derived_rng(seed, 0, 0, 0).standard_normal(n)
    else:
        g = np.asarray(direction, dtype=np.float64)
        if g.shape != (n,):
            raise ValueError(f"direction must have shape ({n},), got {g.shape}")
    x = g / np.linalg.norm(g)
    threshold = math.sqrt(math.log(n) / n)
    bound = n * hoeffding_component_tail(n, threshold)
    exceedances = 0
    lo, hi = math.inf, -math.inf
    for i in range(trials):
        signs = _rademacher_signs(derived_rng(seed, 1, 0, i), n)
        peak = float(np.max(np.abs(fwht(signs * x))))
        lo, hi = min(lo, peak), max(hi, peak)
        if peak >= threshold:
            exceedances += 1
    frequency = exceedances / trials
    return ExperimentSummary(
        name="flatten",
        plan=plan,
        empirical_frequency=frequency,
        analytic_bound=bound,
        extreme_sigma_min=lo,
        extreme_sigma_max=hi,
        passed=frequency <= bound + monte_carlo_slack(bound, trials),
        elapsed_seconds=time.perf_counter() - start,
    )


def run_coupon_trials(k, ell_grid, trials=10000, seed=0):
    """Sketch the decimated identity and compare full-rank frequency with the
    exact class-coverage probability.

    The worst-case n x k input (n = k^2) has k distinct row classes; the
    sketch keeps rank k exactly when the sample hits every class, so the
    full-rank frequency must track the coupon-coverage oracle.  One summary
    per ell; passes when |empirical - exact| <= 4 binomial sigmas at the
    exact probability.
    """
    basis = decimated_identity(k)
    n = k * k
    summaries = []
    for gi, ell in enumerate(ell_grid):
        start = time.perf_counter()
        exact = coupon_coverage_probability(k, ell)
        plan = TrialPlan(n=n, k=k, ell=ell, trials=trials, seed=seed)
        grams = np.empty((trials, k, k))
        for i in range(trials):
            op = draw_srht(n, ell, (seed, 1, gi, i))
            grams[i] = gram(apply_to_matrix(op, basis))
        eig = symmetric_eigenvalues(grams)
        spectra = np.sqrt(np.clip(eig, 0.0, None))
        sigma_top, sigma_bot = spectra[:, 0], spectra[:, -1]
        full_rank = sigma_bot > RANK_RTOL * np.maximum(sigma_top, 1.0)
        frequency = float(np.mean(full_rank))
        slack = SLACK_SIGMAS * math.sqrt(exact * (1.0 - exact) / trials)
        summaries.append(
            ExperimentSummary(
                name=f"coupon(ell={ell})",
                plan=plan,
                empirical_frequency=frequency,
                analytic_bound=exact,
                extreme_sigma_min=float(sigma_bot.min()),
                extreme_sigma_max=float(sigma_top.max()),
                passed=abs(frequency - exact) <= slack,
                elapsed_seconds=time.perf_counter() - start,
            )
        )
    return summaries


def _sampled_gram_eigenvalues(w, rows, counts=None):
    sub = w[np.asarray(rows, dtype=np.int64), :]
    if counts is not None:
        sub = np.sqrt(np.asarray(counts, dtype=np.float64))[:, None] * sub
    return symmetric_eigenvalues(gram(sub))


def run_chernoff_validation(n, k, ell, deviation_grid, seed=0, mode="exhaustive", trials=2000):
    """Tail probabilities of the sampled Gram spectrum vs the Chernoff bounds.

    Fixes an orthonormal W, so the summands w_j w_j^T have mean I/n and
    mu_min = mu_max = ell/n; b_max is the largest squared row norm of the
    realized W.  For each deviation d in the grid, emits a lower-tail summary
    (P{lambda_min <= (1-d) ell/n}) and an upper-tail one
    (P{lambda_max >= (1+d) ell/n}).  Exhaustive mode enumerates every
    ell-subset and requires exact dominance; Monte Carlo mode allows the
    usual four-sigma slack.  Extremes hold the observed extreme singular
    values (square roots of the extreme Gram eigenvalues).
    """
    start = time.perf_counter()
    plan_trials = math.comb(n, ell) if mode == "exhaustive" else trials
    plan = TrialPlan(n=n, k=k, ell=ell, trials=plan_trials, seed=seed, mode=mode)
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    b_max = float(np.max(np.sum(w * w, axis=1)))
    mu = ell / n
    lam_min, lam_max = [], []
    if mode == "exhaustive":
        for subset in itertools.combinations(range(n), ell):
            eig = _sampled_gram_eigenvalues(w, subset)
            lam_min.append(float(eig[-1]))
            lam_max.append(float(eig[0]))
    else:
        for i in range(plan_trials):
            subset = sample_without_replacement(n, ell, derived_rng(seed, 1, 0, i))
            eig = _sampled_gram_eigenvalues(w, subset)
            lam_min.append(float(eig[-1]))
            lam_max.append(float(eig[0]))
    lam_min = np.asarray(lam_min)
    lam_max = np.asarray(lam_max)
    sigma_lo = math.sqrt(max(0.0, float(lam_min.min())))
    sigma_hi = math.sqrt(float(lam_max.max()))
    elapsed = time.perf_counter() - start
    summaries = []
    for d in deviation_grid:
        p_lower = float(np.mean(lam_min <= (1.0 - d) * mu))
        bound_lower = chernoff_lower_tail(ChernoffParams(k, b_max, ell / n, ell / n, d))
        p_upper = float(np.mean(lam_max >= (1.0 + d) * mu))
        bound_upper = chernoff_upper_tail(ChernoffParams(k, b_max, ell / n, ell / n, d))
        if mode == "exhaustive":
            ok_lower = p_lower <= bound_lower
            ok_upper = p_upper <= bound_upper
        else:
            ok_lower = p_lower <= bound_lower + monte_carlo_slack(bound_lower, plan_trials)
            ok_upper = p_upper <= bound_upper + monte_carlo_slack(bound_upper, plan_trials)
        summaries.append(
            ExperimentSummary(
                name=f"chernoff_lower(delta={d:g})",
                plan=plan,
                empirical_frequency=p_lower,
                analytic_bound=bound_lower,
                extreme_sigma_min=sigma_lo,
                extreme_sigma_max=sigma_hi,
                passed=ok_lower,
                elapsed_seconds=elapsed,
            )
        )
        summaries.append(
            ExperimentSummary(
                name=f"chernoff_upper(eta={d:g})",
                plan=plan,
                empirical_frequency=p_upper,
                analytic_bound=bound_upper,
                extreme_sigma_min=sigma_lo,
                extreme_sigma_max=sigma_hi,
                passed=ok_upper,
                elapsed_seconds=elapsed,
            )
        )
    return summaries


def run_mgf_domination(n, k, ell, theta_grid, seed=0, mode="exhaustive", trials=2000):
    """Trace of the matrix moment generating function: sampling without
    replacement vs with replacement.

    For the same rank-one family as the Chernoff validation, computes
    E tr exp(theta * sum X_j) under both sampling models.  Exhaustive mode
    averages over all ell-subsets and, for the with-replacement side, over
    multisets weighted by multinomial counts (reduced from the n^ell
    sequences by exchangeability).  One summary per theta with
    empirical = without/with ratio against the domination threshold 1;
    extremes hold (without, with).  Exhaustive passes need without <= with
    up to 1e-10 relative; Monte Carlo replaces that with a four-standard-
    error allowance on the estimated means.
    """
    start = time.perf_counter()
    if mode == "exhaustive" and n**ell > EXHAUSTIVE_CAP:
        raise ValueError(f"{n}^{ell} sequences exceed the exhaustive cap {EXHAUSTIVE_CAP}")
    plan_trials = math.comb(n, ell) if mode == "exhaustive" else trials
    plan = TrialPlan(n=n, k=k, ell=ell, trials=plan_trials, seed=seed, mode=mode)
    w = random_orthonormal(n, k, (seed, 0, 0, 0))

    without_eigs, with_eigs, with_weights = [], [], []
    if mode == "exhaustive":
        for subset in itertools.combinations(range(n), ell):
            without_eigs.append(_sampled_gram_eigenvalues(w, subset))
        log_seq = ell * math.log(n)
        for multiset in itertools.combinations_with_replacement(range(n), ell):
            rows, counts = np.unique(multiset, return_counts=True)
            log_weight = math.lgamma(ell + 1) - log_seq
            for c in counts:
                log_weight -= math.lgamma(c + 1)
            with_weights.append(math.exp(log_weight))
            with_eigs.append(_sampled_gram_eigenvalues(w, rows, counts))
        total = math.fsum(with_weights)
        if abs(total - 1.0) > 1e-12:
            raise RuntimeError(f"multinomial weights sum to {total}, expected 1")
    else:
        for i in range(plan_trials):
            subset = sample_without_replacement(n, ell, derived_rng(seed, 1, 0, i))
            without_eigs.append(_sampled_gram_eigenvalues(w, subset))
            rows = derived_rng(seed, 1, 1, i).integers(0, n, size=ell)
            uniq, counts = np.unique(rows, return_counts=True)
            with_eigs.append(_sampled_gram_eigenvalues(w, uniq, counts))
            with_weights.append(1.0 / plan_trials)
    elapsed = time.perf_counter() - start

    summaries = []
    for theta in theta_grid:
        wo_values = [math.fsum(math.exp(theta * v) for v in eig) for eig in without_eigs]
        wi_values = [math.fsum(math.exp(theta * v) for v in eig) for eig in with_eigs]
        without = math.fsum(wo_values) / len(wo_values)
        with_repl = math.fsum(wt * v for wt, v in zip(with_weights, wi_values))
        if mode == "exhaustive":
            ok = without <= with_repl * (1.0 + 1e-10)
        else:
            se_wo = float(np.std(wo_values, ddof=1)) / math.sqrt(len(wo_values))
            se_wi = float(np.std(wi_values, ddof=1)) / math.sqrt(len(wi_values))
            ok = without <= with_repl + SLACK_SIGMAS * math.hypot(se_wo, se_wi)
        summaries.append(
            ExperimentSummary(
                name=f"mgf_domination(theta={theta:g})",
                plan=plan,
                empirical_frequency=without / with_repl,
                analytic_bound=1.0,
                extreme_sigma_min=without,
                extreme_sigma_max=with_repl,
                passed=ok,
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


def summaries_to_json(summaries, include_timing: bool = True) -> str:
    import json

    records = [s.to_record(include_timing=include_timing) for s in summaries]
    return json.dumps(records, indent=2, sort_keys=True)


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
