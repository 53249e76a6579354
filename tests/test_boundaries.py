"""Bad inputs at the public entry points: each is refused with the package's
own ValueError or TypeError, with no other exception or warning (the test
configuration turns warnings into errors)."""

import numpy as np
import pytest

import srhtlab
from srhtlab.experiments import TrialPlan, monte_carlo_slack, run_row_norm_trials
from srhtlab.srht import draw_stack, rademacher_signs, sketch_stack


def _float32_ones_with(value):
    """A float32 64 x 2 matrix of ones with ``value`` at (5, 1)."""
    v = np.ones((64, 2), dtype=np.float32)
    v[5, 1] = value
    return v


# operator.index(True) is 1, so a bool has to be refused before an integer
# is taken from it.
BAD_INPUTS = {
    "hadamard_entry-bool-n": (lambda: srhtlab.hadamard_entry(0, 0, True), TypeError, "not a bool"),
    "hadamard_entry-bool-index": (
        lambda: srhtlab.hadamard_entry(True, 1, 2), TypeError, "not a bool"
    ),
    "draw_srht-bool-n": (lambda: srhtlab.draw_srht(True, 1, 0), TypeError, "not a bool"),
    "draw_srht-bool-seed": (lambda: srhtlab.draw_srht(4, 2, True), TypeError, "not bools"),
    "draw_srht-bool-seed-entry": (
        lambda: srhtlab.draw_srht(4, 2, (0, 1, False, 3)), TypeError, "not bools"
    ),
    "sample_without_replacement-bool-n": (
        lambda: srhtlab.sample_without_replacement(True, 1, [0]), TypeError, "not a bool"
    ),
    "sample_without_replacement-bool-ell": (
        lambda: srhtlab.sample_without_replacement(4, True, [0]), TypeError, "not a bool"
    ),
    "rademacher_signs-bool-n": (lambda: rademacher_signs(True, [0]), TypeError, "not a bool"),
    "TrialPlan-bool-seed": (
        lambda: TrialPlan(8, 2, 3, trials=5, seed=True), TypeError, "not a bool"
    ),
    "row_norm_bound-bool-beta": (
        lambda: srhtlab.row_norm_bound(4096, 16, True), TypeError, "not a bool"
    ),
    "row_norm_bound-numpy-bool-beta": (
        lambda: srhtlab.row_norm_bound(16, 2, np.True_), TypeError, "not a bool"
    ),
    "run_row_norm_trials-numpy-bool-beta": (
        lambda: run_row_norm_trials(16, 1, np.True_, trials=3), TypeError, "not a bool"
    ),
    "embedding_sample_size-numpy-bool-k": (
        lambda: srhtlab.embedding_sample_size(np.True_, 16), TypeError, "not a bool"
    ),
    "ChernoffParams-numpy-bool-k": (
        lambda: srhtlab.ChernoffParams(np.True_, 0.5, 1.0, 1.0, 0.5), TypeError, "not a bool"
    ),
    "ChernoffParams-bool-b_max": (
        lambda: srhtlab.ChernoffParams(2, True, 1.0, 1.0, 0.5), TypeError, "not a bool"
    ),
    "ChernoffParams-bool-deviation": (
        lambda: srhtlab.ChernoffParams(2, 0.5, 1.0, 1.0, True), TypeError, "not a bool"
    ),
    # the first call leaves alpha = 4 in the memo, so True (1) misses it
    "row_sampling_failure_bound-bool-alpha": (
        lambda: [
            srhtlab.row_sampling_failure_bound(4, alpha, 5 / 6, 7 / 6) for alpha in (4.0, True)
        ],
        TypeError, "not a bool",
    ),
    "monte_carlo_slack-bool-bound": (lambda: monte_carlo_slack(True, 5), TypeError, "not a bool"),
    "sketch_stack-float32-nan": (
        lambda: sketch_stack(*draw_stack(64, 8, [0, 1]), _float32_ones_with(np.nan)),
        ValueError, "non-finite",
    ),
    "sketch_stack-float32-inf": (
        lambda: sketch_stack(*draw_stack(64, 8, [0, 1]), _float32_ones_with(-np.inf)),
        ValueError, "non-finite",
    ),
    # finite in float32, but all +1 signs sum each column into row 0 of the
    # float32 transform: 8 * 3e38 is past float32's 3.4e38
    "sketch_stack-float32-overflow": (
        lambda: sketch_stack(np.ones((1, 64)), [[0]], np.full((64, 2), 3e38, dtype=np.float32)),
        ValueError, "its sketch overflows",
    ),
    "symmetric_eigenvalues-0x0": (
        lambda: srhtlab.symmetric_eigenvalues(np.zeros((0, 0))), ValueError, "at least 1 x 1"
    ),
    "symmetric_eigenvalues-stack-of-0x0": (
        lambda: srhtlab.symmetric_eigenvalues(np.zeros((3, 0, 0))), ValueError, "at least 1 x 1"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_refused(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
