"""Monte Carlo and exhaustive validation of the sketching guarantees.

Each runner draws its randomness from substreams keyed as
(master_seed, domain, stream, index), domain 0 for fixtures (test
matrices) and domain 1 for per-trial draws, so reruns and any trial
ordering produce identical numbers.  Embedding, rownorm and coupon run
Monte Carlo trials.  Chernoff and mgf are exhaustive only: they enumerate
row lists in lexicographic order (the ell-subsets, and every ell-sequence
on the with-replacement side of mgf), draw no operator, and are
seed-independent except for the fixture matrix.  So they cannot run a
configuration with more than ``EXHAUSTIVE_CAP`` (10^7) ell-subsets, or, for
mgf, n^ell sequences.

Every bound check (embedding, row norms, both Chernoff tails) passes by
one one-sided rule, ``_one_sided_summary``: over every subset
(exhaustive) the frequency must not exceed the bound; by Monte Carlo it may
exceed it by four binomial standard deviations at the bound capped at 1
(``monte_carlo_slack``), which keeps spurious failures around the 1e-4
level while leaving real violations detectable.  Coupon compares with an
exact probability, so its rule is two-sided: |frequency - exact| within the
same slack at the exact probability.  mgf compares two means, not a
frequency with a bound: over every row list, the without-replacement mean
must not exceed the with-replacement one, up to 1e-10 relative.

Every runner computes its trials in blocks.  One loop, ``_fill_blocks``,
cuts the trials into blocks of about ``_BLOCK_BYTES`` (256 KiB) of working
array each, whatever the trial count, up to ``EXHAUSTIVE_CAP`` row lists,
and fills one row of a per-trial result array per trial.  Every trial still
draws from its own substream, and each block's draws are one call of each
``srht`` sampler it uses.  Embedding and coupon sketch a block of trials
whose n x B x k transform fits the budget with one ``sketch_stack`` call,
and take its singular values, the square roots of its Gram spectrum, with
one ``linalg.singular_values`` call.  They draw ahead: one ``draw_stack``
call draws as many whole sketch blocks of operators as fit the budget
(three of 64 trials at coupon's n = 64, and one trial at the embedding
headline), since a draw has a fixed cost per call that a sketch block of
64 would pay alone.
Chernoff and both sides of mgf get their ell-row lists from one helper,
``_row_list_spectra``, which turns a block of them into one Gram stack and
one eigensolve.  A with-replacement list holds a row once per draw, so a
repeated row counts twice.  The block size never changes a
count: each trial's arithmetic is the one it would get alone, except that
extremes may move by a few ulp where the transform's matrix products run at
a different width.

The embedding runner sketches in float32 when its float64 basis is larger
than the transform's piece size, ``wht._PIECE_BYTES`` (512 KiB).  The basis
is cast to float32 once per run, and each trial's sign flip and transform
run in float32, on half the bytes; the gather, the scaling, the Gram
eigensolve and the basis itself stay float64.  Float32 singular values
measured within 3e-8 of the float64 ones at n = 4096 and 65536 but up to
8e-8 at n = 64, near the 1e-7 that the tests and the reference comparisons
allow, so a smaller basis stays float64 and its outputs are unchanged.  Counts stay the float64
counts: a trial whose float32 sigma_k lies within ``_FLOAT32_MARGIN`` (1e-6)
of 1/sqrt(6), or whose sigma_1 lies that close to sqrt(13/6), is redrawn
from its own substream and sketched again from the float64 basis, and its
float64 spectrum replaces the float32 one.

The row-norm runner draws a block at a time, per ``_BLOCK_BYTES`` of
signs, but transforms one trial at a time: a trial is over the block budget
(512 KiB at the headline shape), and a stacked transform was measured
slower there, its array falling out of cache.  Each trial draws its
Gaussian into one n x k buffer kept for the whole run, from the stream a
``random_orthonormal`` basis would use, and runs that function's Cholesky
QR routine, ``linalg._cholesky_qr``, around the in-place transform; it never
forms its basis.  A tall trial takes one pass, a square one two.

Each runner's keyword defaults are its headline configuration, the one the
acceptance suite checks; called with only a seed, it runs that configuration.
Its dimensions, trial count and seed are integers, numpy's included, taken
as plain ints before any arithmetic by the package's one integer rule,
``bounds._integers``; a float, even a whole one, or a bool is a TypeError
that names the argument, and ``bounds._dimensions`` and
``bounds._sample_size`` hold k and ell to [1, n].
Runners only compute.  A result is a list of ``ExperimentSummary`` (or one),
whose ``to_record`` gives the fields of ``CSV_COLUMNS`` in that order, and
is the one place that drops ``elapsed_seconds`` from a timing-free record.
Writing records as JSON or CSV is ``cli.write_report``'s job.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    ChernoffParams,
    _dimensions,
    _integers,
    _refuse_bools,
    _sample_size,
    chernoff_lower_tail,
    chernoff_upper_tail,
    coupon_coverage_probability,
    embedding_sample_size,
    row_norm_bound,
)
from .linalg import (
    RANK_RTOL,
    _cholesky_qr,
    decimated_identity,
    gram,
    random_orthonormal,
    singular_values,
    symmetric_eigenvalues,
)
from .srht import (
    draw_stack,
    rademacher_signs,
    sketch_stack,
    standard_normals,
)
from .wht import _PIECE_BYTES, fwht_inplace, hadamard_size

__all__ = [
    "CSV_COLUMNS",
    "EXHAUSTIVE_CAP",
    "ExperimentSummary",
    "TrialPlan",
    "monte_carlo_slack",
    "run_chernoff_validation",
    "run_coupon_trials",
    "run_embedding_trials",
    "run_mgf_domination",
    "run_row_norm_trials",
]

EXHAUSTIVE_CAP = 10**7
MODES = ("monte_carlo", "exhaustive")
SLACK_SIGMAS = 4.0
# Bytes of working array per block of stacked trials, and of draw arrays per
# draw as ``_draw_bytes`` counts them (a draw's passing arrays peak higher:
# about 415 KiB for coupon's 192-trial draw at n = 64, ell = 24).  A larger
# block is faster on small trials.  On the k=8 coupon run (1000 trials per
# ell, in-process, 2-core Xeon) a 1 MiB block took about 20 % less time
# than this one while every sketch block made its own draw, and 7-8 % less
# (50 against 54 ms) once each draw took three sketch blocks.  It stays
# 256 KiB: the memory tests hold the runners to it, and a 1 MiB block once
# raised that run's peak resident memory from 40.6 to 43.0 MB.
_BLOCK_BYTES = 256 * 1024
# An embedding trial sketched in float32 is sketched again in float64 when
# its sigma_k or sigma_1 lies this close to its edge of the window.  Float32
# singular values measured within 3e-8 of the float64 ones at n = 4096 and
# 65536 (seeds 0 and 12345); the margin is over 30 times that.
_FLOAT32_MARGIN = 1e-6


@dataclass(frozen=True)
class TrialPlan:
    """What an experiment ran: dimensions, trial count, seed, and mode.

    The runner sets ``mode``: "exhaustive" for Chernoff and mgf,
    "monte_carlo" for the rest.  Dimensions that do not apply to a given
    experiment are recorded as 0.  In exhaustive mode ``trials`` is the
    number of enumerated subsets, and 1 <= ell <= n.  Every field but
    ``mode`` goes through ``bounds._integers`` (a float, even a whole one,
    or a bool is a TypeError that names it) and is stored as a plain int, so
    a record can be written as JSON; a negative n, k, ell or seed is a
    ValueError.  A bad plan is refused before anything is drawn.
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
        names = ("n", "k", "ell", "trials", "seed")
        for name, value in zip(names, _integers(**{name: getattr(self, name) for name in names})):
            object.__setattr__(self, name, value)
        if min(self.n, self.k, self.ell) < 0:
            raise ValueError(
                f"n, k and ell must be >= 0, got n={self.n}, k={self.k}, ell={self.ell}"
            )
        if self.mode == "exhaustive":
            _sample_size(self.n, self.ell)
            if math.comb(self.n, self.ell) > EXHAUSTIVE_CAP:
                raise ValueError(
                    f"C({self.n}, {self.ell}) exceeds the exhaustive cap {EXHAUSTIVE_CAP}"
                )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


# The fields of a summary record, in the order of a CSV row.
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


@dataclass
class ExperimentSummary:
    """Aggregate result of one experiment (or one grid point of one).

    ``extreme_sigma_min`` / ``extreme_sigma_max`` hold (min sigma_k, max
    sigma_1) for singular-value experiments; other runners document what they
    store there.  ``passed`` is a pure function of the recorded numbers.
    ``elapsed_seconds`` is the wall-clock time of the work behind this summary
    (a grid point's own trials, or the enumeration a Chernoff or mgf grid
    shares) and is excluded from equality.  The numbers and ``passed`` are
    stored as plain floats and a bool, whatever numpy scalars a runner's
    arithmetic gave, so a record can be written as JSON.
    """

    name: str
    plan: TrialPlan
    empirical_frequency: float
    analytic_bound: float
    extreme_sigma_min: float
    extreme_sigma_max: float
    passed: bool
    elapsed_seconds: float = field(compare=False, default=0.0)

    def __post_init__(self):
        for name in ("empirical_frequency", "analytic_bound", "extreme_sigma_min",
                     "extreme_sigma_max"):
            setattr(self, name, float(getattr(self, name)))
        self.passed = bool(self.passed)

    def to_record(self, include_timing: bool = True) -> dict:
        """The record of ``CSV_COLUMNS``, in that order, without
        ``elapsed_seconds`` unless ``include_timing``."""
        p = self.plan
        values = (
            self.name, p.n, p.k, p.ell, p.trials, p.mode, p.seed,
            self.empirical_frequency, self.analytic_bound,
            self.extreme_sigma_min, self.extreme_sigma_max, self.passed,
            self.elapsed_seconds,
        )
        return dict(zip(CSV_COLUMNS[: None if include_timing else -1], values))


def monte_carlo_slack(bound: float, trials: int) -> float:
    """Four binomial standard deviations at success probability min(bound, 1).
    A NaN or negative bound, or fewer than one trial, is a ValueError; a
    bool bound, or a trial count that is not an integer, is a TypeError."""
    _refuse_bools(bound=bound)
    (trials,) = _integers(trials=trials)
    if not (bound >= 0.0 and trials >= 1):
        raise ValueError(f"need bound >= 0 and trials >= 1, got bound={bound}, trials={trials}")
    b = min(bound, 1.0)
    return SLACK_SIGMAS * math.sqrt(b * (1.0 - b) / trials)


def _one_sided_summary(name, plan, events, bound, lows, highs, elapsed):
    """Summary of per-trial ``events`` (booleans) in ``plan.trials`` trials
    whose probability is at most ``bound``: passes when the frequency is at
    most the bound, plus ``monte_carlo_slack`` in Monte Carlo mode.  Extremes
    are the least of the per-trial ``lows`` and the greatest of the
    ``highs``."""
    frequency = int(np.count_nonzero(events)) / plan.trials
    slack = 0.0 if plan.mode == "exhaustive" else monte_carlo_slack(bound, plan.trials)
    return ExperimentSummary(
        name=name,
        plan=plan,
        empirical_frequency=frequency,
        analytic_bound=bound,
        extreme_sigma_min=np.min(lows),
        extreme_sigma_max=np.max(highs),
        passed=frequency <= bound + slack,
        elapsed_seconds=elapsed,
    )


def _block_size(item_bytes):
    """Items per block: as many as fit ``_BLOCK_BYTES`` at ``item_bytes``
    each, and at least one."""
    return max(1, _BLOCK_BYTES // item_bytes)


def _fill_blocks(items, count, width, size, fn):
    """``count`` x ``width`` array whose rows are ``fn`` of consecutive blocks
    of ``size`` of the ``count`` ``items``, ``fn`` giving one row per item of
    its list."""
    out = np.empty((count, width))
    items = iter(items)
    offset = 0
    while block := list(itertools.islice(items, size)):
        out[offset : offset + len(block)] = fn(block)
        offset += len(block)
    return out


def _draw_bytes(n, ell):
    """Bytes per operator that the draw budget counts for a ``draw_stack``
    call: the n + ell int64 words and n float64 signs (16 n + 8 ell), and
    the array shuffle's n positions, of the smallest unsigned type that
    holds n - 1.  It is that accounting, not the peak a draw holds, which
    is larger: the seed hash and the Lemire pass hold passing arrays of
    their own, and the shuffle its ell swap targets and ell picks per
    operator.  At n = 64, ell = 24 it counts 1280 bytes, and tracemalloc
    measured a 192-operator draw's peak at about 2210 bytes an operator, in
    the Lemire pass.  The dict shuffle makes no positions."""
    return 16 * n + 8 * ell + n * np.min_scalar_type(n - 1).itemsize


def _sketch_spectra(v, ell, seed, stream, trials):
    """len(trials) x k stack of the descending singular values of the ell x k
    sketches of ``v``, one row per trial index i in ``trials``, sketched
    under the operator drawn from seed (seed, 1, stream, i).

    A sketch block is ``_block_size(v.nbytes)`` trials, and each gets one
    ``sketch_stack`` and one ``singular_values`` call.  Operators are drawn
    ahead, one ``draw_stack`` call per draw block: the largest whole number
    of sketch blocks, at least one, whose draw arrays fit ``_BLOCK_BYTES``
    as ``_draw_bytes(n, ell)`` counts them a trial (the draw's words and
    signs and the shuffle's positions).  Sketch blocks start where they
    would without the draw blocks, so every sketch, and every output, is
    the same bit for bit.
    """
    n, k = v.shape
    size = _block_size(v.nbytes)
    draw = size * max(1, _block_size(_draw_bytes(n, ell)) // size)

    def spectra(block):
        signs, indices = draw_stack(n, ell, [(seed, 1, stream, i) for i in block])
        return np.concatenate([
            singular_values(sketch_stack(signs[lo : lo + size], indices[lo : lo + size], v))
            for lo in range(0, len(block), size)
        ])

    return _fill_blocks(trials, len(trials), k, draw, spectra)


def run_embedding_trials(n=65536, k=16, ell=None, trials=200, seed=0):
    """Check the singular-value window of sketched orthonormal columns.

    One orthonormal V is fixed per run; each trial applies an independent
    SRHT, row 0 of ``draw_stack(n, ell, [(seed, 1, 0, i)])``, and records
    sigma_k and sigma_1 of the sketch.  A trial is a violation when
    sigma_k < 1/sqrt(6) or sigma_1 > sqrt(13/6); the analytic bound on the
    violation frequency is 3/k.  If ``ell`` is omitted the explicit-constant
    sample size is used.  Trials are sketched in blocks, one
    ``sketch_stack`` and one stacked Gram eigensolve per block; the block
    size never changes a count.  A basis above ``wht._PIECE_BYTES`` as
    float64 is flipped and transformed in float32 (see the module
    docstring); a trial whose sigma_k or sigma_1 then lies within
    ``_FLOAT32_MARGIN`` of its window edge is sketched again in float64,
    through the same ``_sketch_spectra``, so counts equal the float64 ones
    and extremes move by a few 1e-8 at most.
    """
    start = time.perf_counter()
    n, k, trials, seed = _integers(n=n, k=k, trials=trials, seed=seed)
    size = embedding_sample_size(k, n)
    if ell is None:
        if k < 2:
            raise ValueError(f"the sample-size rule needs k >= 2, got k={k}; give ell (--l)")
        if not size.applicable:
            raise ValueError(f"required sample size {size.ell} exceeds n={n}")
        ell = size.ell
    n, ell = _sample_size(n, ell)
    plan = TrialPlan(n=n, k=k, ell=ell, trials=trials, seed=seed)
    basis = random_orthonormal(n, k, (seed, 0, 0, 0))
    sketched = basis if basis.nbytes <= _PIECE_BYTES else basis.astype(np.float32)
    spectra = _sketch_spectra(sketched, ell, seed, 0, range(trials))
    if sketched is not basis:
        edges = np.abs(spectra[:, [-1, 0]] - (size.sigma_min, size.sigma_max))
        near = np.flatnonzero(edges.min(axis=1) <= _FLOAT32_MARGIN)
        spectra[near] = _sketch_spectra(basis, ell, seed, 0, near)
    sigma_top, sigma_bot = spectra[:, 0], spectra[:, -1]
    violations = (sigma_bot < size.sigma_min) | (sigma_top > size.sigma_max)
    return _one_sided_summary(
        "embedding", plan, violations, size.failure_bound, sigma_bot, sigma_top,
        time.perf_counter() - start,
    )


def run_row_norm_trials(n=4096, k=16, beta=None, trials=2000, seed=0):
    """Check the row-norm equilibration level of sign-flipped transforms.

    Each trial draws a Gaussian n x k matrix G from substream (seed, 0, 0, i)
    and signs D from (seed, 1, 0, i), and records the largest row norm of
    H D V, where V = G R^-1 is G's orthonormal factor (R with positive
    diagonal: the basis ``random_orthonormal`` returns).  V is not formed.
    Trials run through ``_fill_blocks``: each block of trials draws its
    signs with one ``rademacher_signs`` call and its Gaussians with one
    ``standard_normals`` call, into one n x k buffer kept for the run.
    Cholesky QR (``linalg._cholesky_qr``) runs around the in-place
    transform: R_1 from the Gram of G and W_1 = H D G R_1^-1.  W_1 is W
    when its orthonormality defect is at most ``linalg.ONE_PASS_DEFECT``
    (1e-14), as at every tall shape measured, the transform's own rounding
    included (at most 1.1e-15 at 4096 x 16).  Else, as for square inputs,
    which one pass leaves visibly non-orthonormal, R_2 comes from the Gram
    of W_1 and W = W_1 R_2^-1; H D is orthogonal, so that second pass may
    be measured after it.
    The exceedance frequency of the analytic level is compared against
    1/beta (``beta`` defaults to k).  Extremes hold the (min, max) observed
    max row norm, each row's squared norm summed in one ``einsum`` pass.
    Column orthonormality of the transformed matrix is verified every trial.
    At k = 1 a trial flattens one unit vector x = G / |G| and records
    max_i |(H D x)_i|, the single-vector check; a beta <= 1, the default at
    k = 1, makes its bound 1/beta >= 1 vacuous.
    """
    start = time.perf_counter()
    n, k, trials, seed = _integers(n=n, k=k, trials=trials, seed=seed)
    hadamard_size(n)
    level = row_norm_bound(n, k, float(k) if beta is None else beta)
    plan = TrialPlan(n=n, k=k, ell=0, trials=trials, seed=seed)
    buffer = np.empty((n, k))

    def max_row_norms(block):
        signs = rademacher_signs(n, [(seed, 1, 0, i) for i in block])
        gaussians = standard_normals([(seed, 0, 0, i) for i in block], buffer)
        return [[_max_row_norm(g, trial_signs)] for g, trial_signs in zip(gaussians, signs)]

    norms = _fill_blocks(range(trials), trials, 1, _block_size(8 * n), max_row_norms)[:, 0]
    return _one_sided_summary(
        "rownorm", plan, norms >= level.value, level.exceedance_probability, norms, norms,
        time.perf_counter() - start,
    )


def _max_row_norm(g, signs):
    """Largest row norm of W = H D G R^-1, computed over ``g``: one or two
    passes of Cholesky QR around the in-place sign flip and transform, and
    each row's squared norm summed in one ``einsum`` pass, with no n x k
    temporary."""
    gram1 = gram(g)
    g *= signs[:, None]
    w = _cholesky_qr(fwht_inplace(g), gram1)
    return np.sqrt(np.max(np.einsum("ij,ij->i", w, w)))


def run_coupon_trials(k=8, ell_grid=(8, 12, 17, 24), trials=10000, seed=0):
    """Sketch the decimated identity and compare full-rank frequency with the
    exact class-coverage probability.

    The worst-case n x k input (n = k^2) has k distinct row classes; the
    sketch keeps rank k exactly when the sample hits every class, so the
    full-rank frequency must track the coupon-coverage oracle.  One summary
    per ell; passes when |empirical - exact| <= 4 binomial sigmas at the
    exact probability.  Trial i at grid point gi draws the operator in row 0
    of ``draw_stack(n, ell, [(seed, 1, gi, i)])``; blocks of trials share one
    ``sketch_stack``, one Gram stack and one eigensolve, and the block size
    never changes a count.  An empty grid is a ValueError.

    Each column of this input has one nonzero, so D V = V S for a diagonal
    sign matrix S, and rank depends only on the sampled rows: this check
    cannot see the signs D, and with every sign +1 the counts are
    identical.  It sees a gross sampler defect (every Fisher-Yates swap into
    the lower half of [i, n) leaves no sketch full rank at any ell), but a
    subtle one passes: with every swap kept short of the last position,
    seed 0 reads 0.0033, 0.1428, 0.5196 and 0.8621 against exact 0.0038,
    0.1433, 0.5142 and 0.8646, all within the slack.
    """
    _check_grid("ell_grid", ell_grid)
    k, trials, seed = _integers(k=k, trials=trials, seed=seed)
    basis = decimated_identity(k)
    n = k * k
    summaries = []
    for gi, ell in enumerate(ell_grid):
        start = time.perf_counter()
        (ell,) = _integers(ell=ell)
        exact = coupon_coverage_probability(k, ell)
        plan = TrialPlan(n=n, k=k, ell=ell, trials=trials, seed=seed)
        spectra = _sketch_spectra(basis, ell, seed, gi, range(trials))
        sigma_top, sigma_bot = spectra[:, 0], spectra[:, -1]
        full_rank = sigma_bot > RANK_RTOL * np.maximum(sigma_top, 1.0)
        frequency = int(np.count_nonzero(full_rank)) / trials
        summaries.append(
            ExperimentSummary(
                name=f"coupon(ell={ell})",
                plan=plan,
                empirical_frequency=frequency,
                analytic_bound=exact,
                extreme_sigma_min=sigma_bot.min(),
                extreme_sigma_max=sigma_top.max(),
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


def _row_list_spectra(w, ell, replace=False):
    """Stack of descending Gram spectra of ``w``, one per ell-row list in
    lexicographic order, with one stacked eigensolve per block of lists: the
    ell-subsets of range(n), or with ``replace`` all n^ell sequences."""
    n, k = w.shape
    if replace:
        items, count = itertools.product(range(n), repeat=ell), n**ell
    else:
        items, count = itertools.combinations(range(n), ell), math.comb(n, ell)
    return _fill_blocks(
        items, count, k, _block_size(ell * k * 8),
        lambda block: _sampled_gram_eigenvalues(w, block),
    )


def _check_grid(name, grid):
    if len(grid) == 0:
        raise ValueError(f"{name} must not be empty: a run would check nothing")


def run_chernoff_validation(
    n=16,
    k=2,
    ell=6,
    deviation_grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    seed=0,
):
    """Tail probabilities of the sampled Gram spectrum vs the Chernoff bounds,
    over every ell-subset.

    Fixes an orthonormal W, so the summands w_j w_j^T have mean I/n and
    mu_min = mu_max = ell/n; b_max is the largest squared row norm of the
    realized W.  For each deviation d in the grid, emits a lower-tail summary
    (P{lambda_min <= (1-d) ell/n}) and an upper-tail one
    (P{lambda_max >= (1+d) ell/n}), both by the one-sided rule with no
    slack: the frequency over the C(n, ell) subsets must not exceed the
    bound.  Every tail is evaluated before any subset, so a deviation outside
    a tail's domain is a ValueError at once.  Extremes hold the observed
    extreme singular values (square roots of the extreme Gram eigenvalues).
    The subsets come from ``_row_list_spectra``, one stacked eigensolve per
    block.  An empty grid, an ell outside [1, n], or more than
    ``EXHAUSTIVE_CAP`` subsets is a ValueError before the fixture is drawn.
    """
    _check_grid("deviation_grid", deviation_grid)
    n, k, ell, seed = _integers(n=n, k=k, ell=ell, seed=seed)
    _sample_size(n, ell)
    _dimensions(n, k)
    start = time.perf_counter()
    plan = TrialPlan(n=n, k=k, ell=ell, trials=math.comb(n, ell), seed=seed, mode="exhaustive")
    w = random_orthonormal(n, k, (seed, 0, 0, 0))
    b_max = float(np.max(np.sum(w * w, axis=1)))
    mu = ell / n
    params = [ChernoffParams(k, b_max, mu, mu, d) for d in deviation_grid]
    tails = [(chernoff_lower_tail(p), chernoff_upper_tail(p)) for p in params]
    eig = _row_list_spectra(w, ell)
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


def run_mgf_domination(n=8, k=2, ell=3, theta_grid=(0.5, 1.0, 2.0), seed=0):
    """Trace of the matrix moment generating function: sampling without
    replacement vs with replacement, over every row list.

    For the same rank-one family as the Chernoff validation, computes
    E tr exp(theta * sum X_j) under both sampling models, each side the
    plain mean over its ell-row lists: every ell-subset, and every one of
    the n^ell ordered sequences (at most ``EXHAUSTIVE_CAP``).  Both sides go
    through the Chernoff runner's ``_row_list_spectra``, repeats included on
    the with-replacement side.
    One summary per theta with empirical = without/with ratio against the
    domination threshold 1; extremes hold (without, with).  A summary passes
    when without <= with up to 1e-10 relative.  A non-finite theta, or one
    at which the traces overflow float64 or underflow to 0, is a ValueError,
    as are an empty grid, an ell outside [1, n] and more than
    ``EXHAUSTIVE_CAP`` sequences, all before the fixture is drawn.
    """
    _check_grid("theta_grid", theta_grid)
    n, k, ell, seed = _integers(n=n, k=k, ell=ell, seed=seed)
    _sample_size(n, ell)
    _dimensions(n, k)
    start = time.perf_counter()
    if n**ell > EXHAUSTIVE_CAP:
        raise ValueError(f"{n}^{ell} sequences exceed the exhaustive cap {EXHAUSTIVE_CAP}")
    if not all(math.isfinite(theta) for theta in theta_grid):
        raise ValueError(f"theta must be finite, got {list(theta_grid)}")
    plan = TrialPlan(n=n, k=k, ell=ell, trials=math.comb(n, ell), seed=seed, mode="exhaustive")
    w = random_orthonormal(n, k, (seed, 0, 0, 0))

    without_eigs = _row_list_spectra(w, ell)
    with_eigs = _row_list_spectra(w, ell, replace=True)
    elapsed = time.perf_counter() - start

    summaries = []
    for theta in theta_grid:
        # an overflowed trace makes a mean inf or nan; an underflowed one
        # makes the with-replacement mean 0
        with np.errstate(over="ignore", invalid="ignore"):
            without = float(np.mean(np.exp(theta * without_eigs).sum(axis=1)))
            with_repl = float(np.mean(np.exp(theta * with_eigs).sum(axis=1)))
        limit = with_repl * (1.0 + 1e-10)
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

