"""Planted defects: each row plants one defect with a patch on one function
and names the runner and configuration where it must read ``passed=False``.

A row shows that a guarantee the lab checks can fail: a check that passes
on a broken sampler or transform shows nothing.  Each defect is planted at
the lowest point every path of the code it breaks goes through, so that no
faster path added later can step round it.
"""

import pytest

from srhtlab import experiments, srht
from srhtlab.experiments import run_coupon_trials, run_mgf_domination


def _lower_half_swaps(subsets):
    # every Fisher-Yates swap lands in the lower half of [i, n): the offsets
    # are halved before either shuffle path sees them
    return lambda offsets, n, ell: subsets(offsets // 2, n, ell)


def _even_rows(sample):
    # a uniform ell-subset of the even rows only
    return lambda n, ell, seeds: 2 * sample(n // 2, ell, seeds)


def _no_sketch_reaches_full_rank(out):
    # exact 0.0038, 0.1433, 0.5142 and 0.8646; ell = 8 needs the full 10 000
    # trials, since at 1000 its slack exceeds 0.0038
    assert [s.plan.ell for s in out] == [8, 12, 17, 24]
    assert [s.empirical_frequency for s in out] == [0.0] * 4


def _every_ratio_above_one(out):
    # seed 0 reads 1.067, 1.120 and 1.139; at 500 trials one summary passes
    assert [s.plan.trials for s in out] == [2000] * 3
    assert all(s.empirical_frequency > 1.0 for s in out)


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
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_planted_defect_fails_its_criterion(defect, monkeypatch):
    module, name, plant, run, readings = DEFECTS[defect]
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    out = run()
    assert out and not any(s.passed for s in out)
    readings(out)
