"""Planted defects: each row plants one defect with a patch on one function
and names the runner and configuration where it must read ``passed=False``.

A row shows that a guarantee the lab checks can fail: a check that passes
on a broken sampler or transform shows nothing.  Each defect is planted at
the lowest point every path of the code it breaks goes through, so that no
faster path added later can step round it.  Known misses, defects that no
criterion sees yet, are rows too: they must read ``passed=True``, so that a
fixture change that starts catching one shows up here.
"""

import math

import numpy as np
import pytest

from srhtlab import experiments, srht
from srhtlab.experiments import (
    run_coupon_trials,
    run_embedding_trials,
    run_mgf_domination,
    run_row_norm_trials,
)


def _lower_half_swaps(subsets):
    # every Fisher-Yates swap lands in the lower half of [i, n): the offsets
    # are halved before either shuffle path sees them
    return lambda offsets, n, ell: subsets(offsets // 2, n, ell)


def _short_of_last_swaps(subsets):
    # no Fisher-Yates swap reaches the last position: the offsets are capped
    # at n - 2 - i before either shuffle path sees them
    return lambda offsets, n, ell: subsets(np.minimum(offsets, n - 2 - np.arange(ell)), n, ell)


def _even_rows(sample):
    # a uniform ell-subset of the even rows only
    return lambda n, ell, seeds: 2 * sample(n // 2, ell, seeds)


def _no_sketch_reaches_full_rank(out):
    # exact 0.0038, 0.1433, 0.5142 and 0.8646; ell = 8 needs the full 10 000
    # trials, since at 1000 its slack exceeds 0.0038
    assert [s.plan.ell for s in out] == [8, 12, 17, 24]
    assert [s.empirical_frequency for s in out] == [0.0] * 4


def _every_coverage_within_the_slack(out):
    # exact 0.0038, 0.1433, 0.5142 and 0.8646; one position never picked
    # moves a coverage frequency less than the slack
    assert [s.plan.ell for s in out] == [8, 12, 17, 24]
    assert [s.empirical_frequency for s in out] == [0.0033, 0.1428, 0.5196, 0.8621]


def _every_ratio_above_one(out):
    # seed 0 reads 1.067, 1.120 and 1.139; at 500 trials one summary passes
    assert [s.plan.trials for s in out] == [2000] * 3
    assert all(s.empirical_frequency > 1.0 for s in out)


def _unscaled(sketch):
    # the sketch without its sqrt(n/ell) scale, on every path that sketches,
    # the float32 embedding's float64 recheck included
    return lambda signs, indices, v: sketch(signs, indices, v) / math.sqrt(
        len(v) / np.shape(indices)[-1]
    )


def _plus_one_signs(signs):
    # D = I: every Rademacher sign is +1
    return lambda bits: np.ones(bits.shape)


def _every_trial_outside_the_window(out):
    # sigma near sqrt(ell/n) = 0.19, far below 1/sqrt(6) = 0.41
    (s,) = out
    assert (s.plan.n, s.plan.k, s.plan.ell, s.plan.trials) == (65536, 16, 2342, 20)
    assert s.empirical_frequency == 1.0
    assert 0.17 < s.extreme_sigma_min and s.extreme_sigma_max < 0.21


def _no_trial_leaves_the_window(out):
    # seed 0 reads sigma in [0.907, 1.090], inside [0.408, 1.472]
    (s,) = out
    assert (s.plan.n, s.plan.k, s.plan.ell, s.plan.trials) == (65536, 16, 2342, 20)
    assert s.empirical_frequency == 0.0
    assert 0.9 < s.extreme_sigma_min and s.extreme_sigma_max < 1.1


def _no_row_norm_exceeds_the_level(out):
    # seed 0 reads a largest row norm of 0.122, below the level 0.210
    (s,) = out
    assert (s.plan.n, s.plan.k, s.plan.trials) == (4096, 16, 200)
    assert s.empirical_frequency == 0.0 and s.extreme_sigma_max < 0.13


# name: (module, function, defect made from the function, run, readings)
DEFECTS = {
    "lower-half-swaps-fail-coupon": (
        srht, "_subsets", _lower_half_swaps,
        lambda: run_coupon_trials(seed=0), _no_sketch_reaches_full_rank,
    ),
    "even-rows-fail-monte-carlo-mgf": (
        experiments, "sample_without_replacement", _even_rows,
        lambda: run_mgf_domination(mode="monte_carlo", seed=0), _every_ratio_above_one,
    ),
    "unscaled-sketch-fails-embedding": (
        experiments, "sketch_stack", _unscaled,
        lambda: [run_embedding_trials(trials=20, seed=0)], _every_trial_outside_the_window,
    ),
}

# Known misses, in the same form.  A Gaussian basis is already flat, so H
# alone keeps it flat and neither check can see the signs D (blind spot 1 in
# ROADMAP.md).  A fixed basis of the first k columns of H (ROADMAP.md item 11)
# should turn both into failures; move them to DEFECTS then.  Coupon counts
# only whether every row class is hit, and a sampler that never picks
# position n - 1 misses one row of one class of k, so it passes at 10 000
# trials.
KNOWN_MISSES = {
    "short-of-last-swaps-pass-coupon": (
        srht, "_subsets", _short_of_last_swaps,
        lambda: run_coupon_trials(seed=0), _every_coverage_within_the_slack,
    ),
    "plus-one-signs-pass-embedding": (
        srht, "_signs", _plus_one_signs,
        lambda: [run_embedding_trials(trials=20, seed=0)], _no_trial_leaves_the_window,
    ),
    "plus-one-signs-pass-rownorm": (
        srht, "_signs", _plus_one_signs,
        lambda: [run_row_norm_trials(trials=200, seed=0)], _no_row_norm_exceeds_the_level,
    ),
}


def _run_planted(row, monkeypatch):
    module, name, plant, run, readings = row
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    out = run()
    readings(out)
    return out


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_fails_its_criterion(defect, monkeypatch):
    out = _run_planted(DEFECTS[defect], monkeypatch)
    assert out and not any(s.passed for s in out)


@pytest.mark.parametrize("defect", sorted(KNOWN_MISSES))
def test_known_miss_still_passes_its_criterion(defect, monkeypatch):
    out = _run_planted(KNOWN_MISSES[defect], monkeypatch)
    assert out and all(s.passed for s in out)
