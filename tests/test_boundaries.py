"""Bad inputs at the public entry points: each is refused with the package's
own ValueError or TypeError, with no other exception or warning (the test
configuration turns warnings into errors).  Dimensions of a small numpy
integer type are not bad inputs: each gives the plain-int call's result."""

import numpy as np
import pytest

import srhtlab
from srhtlab.experiments import (
    TrialPlan,
    monte_carlo_slack,
    run_chernoff_validation,
    run_mgf_domination,
    run_row_norm_trials,
)
from srhtlab.srht import MATERIALIZE_CAP, draw_stack, rademacher_signs, sketch_stack


def _ones_with(n, value, dtype=np.float64):
    """An n x 2 matrix of ones with ``value`` at (5, 1)."""
    v = np.ones((n, 2), dtype=dtype)
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
    "draw_srht-bool-ell": (lambda: srhtlab.draw_srht(4, True, 0), TypeError, "not a bool"),
    "draw_srht-fractional-ell": (lambda: srhtlab.draw_srht(16, 2.5, 0), TypeError, "integer"),
    "draw_srht-n-12": (lambda: srhtlab.draw_srht(12, 4, 0), ValueError, "power of two"),
    # one operator is a 1 x n and 1 x ell pair; the (signs, indices) of a
    # stack of two is not one
    "apply_to_matrix-two-row-op": (
        lambda: srhtlab.apply_to_matrix(draw_stack(16, 4, [0, 1]), np.eye(16)),
        ValueError, "one operator",
    ),
    "apply_to_matrix-n-12": (
        lambda: srhtlab.apply_to_matrix((np.ones((1, 12)), [[0, 5]]), np.eye(12)),
        ValueError, "power of two",
    ),
    "apply_to_matrix-fractional-indices": (
        lambda: srhtlab.apply_to_matrix((np.ones((1, 16)), [[0.0, 5.0]]), np.eye(16)),
        TypeError, "integers",
    ),
    "apply_to_matrix-nan-matrix": (
        lambda: srhtlab.apply_to_matrix(srhtlab.draw_srht(16, 4, 0), _ones_with(16, np.nan)),
        ValueError, "non-finite",
    ),
    "apply_to_matrix-vector": (
        lambda: srhtlab.apply_to_matrix(srhtlab.draw_srht(16, 4, 0), np.ones(16)),
        ValueError, "n x k matrix",
    ),
    "apply_to_matrix-wrong-rows": (
        lambda: srhtlab.apply_to_matrix(srhtlab.draw_srht(16, 4, 0), np.ones((8, 2))),
        ValueError, "16 rows",
    ),
    "materialize-two-row-op": (
        lambda: srhtlab.materialize(draw_stack(16, 4, [0, 1])), ValueError, "one operator"
    ),
    "materialize-n-12": (
        lambda: srhtlab.materialize((np.ones((1, 12)), [[0, 5]])), ValueError, "power of two"
    ),
    "materialize-fractional-indices": (
        lambda: srhtlab.materialize((np.ones((1, 16)), [[0.5, 5.0]])), TypeError, "integers"
    ),
    "materialize-bad-sign": (
        lambda: srhtlab.materialize((np.full((1, 16), 0.5), [[0, 5]])), ValueError, "exactly"
    ),
    "materialize-above-cap": (
        lambda: srhtlab.materialize(srhtlab.draw_srht(2 * MATERIALIZE_CAP, 4, 0)),
        ValueError, "capped",
    ),
    "sample_without_replacement-bool-n": (
        lambda: srhtlab.sample_without_replacement(True, 1, [0]), TypeError, "not a bool"
    ),
    "sample_without_replacement-bool-ell": (
        lambda: srhtlab.sample_without_replacement(4, True, [0]), TypeError, "not a bool"
    ),
    "rademacher_signs-bool-n": (lambda: rademacher_signs(True, [0]), TypeError, "not a bool"),
    # a two-seed block of plain-looking entries builds its words as one
    # array; a bad entry must still meet the per-seed refusal
    "draw_stack-two-seed-block-bool": (
        lambda: draw_stack(8, 3, [(0, 1, 0, 0), (0, 1, 0, True)]), TypeError, "not bools"
    ),
    "sample_without_replacement-two-seed-block-bool": (
        lambda: srhtlab.sample_without_replacement(8, 3, [0, False]), TypeError, "not bools"
    ),
    "draw_stack-two-seed-block-numpy-bool": (
        lambda: draw_stack(8, 3, [(0, 1, 0, 0), (0, 1, 0, np.True_)]),
        TypeError, "'numpy.bool' object cannot be interpreted as an integer",
    ),
    "rademacher_signs-two-seed-block-float": (
        lambda: rademacher_signs(8, [1, 2.0]),
        TypeError, "'float' object cannot be interpreted as an integer",
    ),
    "draw_stack-two-seed-block-negative": (
        lambda: draw_stack(8, 3, [(0, 1, 0, 0), (0, 1, -1, 0)]), ValueError, "non-negative"
    ),
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
    # 2.5 trials once gave a slack of 1.26, and infinitely many gave 0.0
    "monte_carlo_slack-fractional-trials": (
        lambda: monte_carlo_slack(0.5, 2.5), TypeError, "integer"
    ),
    "monte_carlo_slack-inf-trials": (
        lambda: monte_carlo_slack(0.5, float("inf")), TypeError, "integer"
    ),
    # ell = 0 by Monte Carlo once divided by zero in the block-size rule
    "run_chernoff_validation-monte-carlo-ell-0": (
        lambda: run_chernoff_validation(ell=0, mode="monte_carlo"), ValueError, "1 <= ell <= n"
    ),
    "run_mgf_domination-monte-carlo-ell-0": (
        lambda: run_mgf_domination(ell=0, mode="monte_carlo"), ValueError, "1 <= ell <= n"
    ),
    # math.comb's own message once answered this
    "run_chernoff_validation-exhaustive-ell-negative": (
        lambda: run_chernoff_validation(ell=-1), ValueError, "1 <= ell <= n"
    ),
    "sketch_stack-float32-nan": (
        lambda: sketch_stack(*draw_stack(64, 8, [0, 1]), _ones_with(64, np.nan, np.float32)),
        ValueError, "non-finite",
    ),
    "sketch_stack-float32-inf": (
        lambda: sketch_stack(*draw_stack(64, 8, [0, 1]), _ones_with(64, -np.inf, np.float32)),
        ValueError, "non-finite",
    ),
    # finite in float32, but all +1 signs sum each column into row 0 of the
    # float32 transform: 8 * 3e38 is past float32's 3.4e38
    "sketch_stack-float32-overflow": (
        lambda: sketch_stack(np.ones((1, 64)), [[0]], np.full((64, 2), 3e38, dtype=np.float32)),
        ValueError, "its sketch overflows",
    ),
    "random_orthonormal-bool-n": (
        lambda: srhtlab.random_orthonormal(True, 1, 0), TypeError, "not a bool"
    ),
    "random_orthonormal-numpy-bool-k": (
        lambda: srhtlab.random_orthonormal(4, np.True_, 0), TypeError, "not a bool"
    ),
    "random_orthonormal-fractional-n": (
        lambda: srhtlab.random_orthonormal(16.5, 2, 0), ValueError, "whole numbers"
    ),
    "random_orthonormal-fractional-k": (
        lambda: srhtlab.random_orthonormal(16, 2.5, 0), ValueError, "whole numbers"
    ),
    "random_orthonormal-inf-n": (
        lambda: srhtlab.random_orthonormal(np.inf, 2, 0), ValueError, "whole numbers"
    ),
    "random_orthonormal-nan-k": (
        lambda: srhtlab.random_orthonormal(16, np.nan, 0), ValueError, "whole numbers"
    ),
    "orthonormality_defect-no-columns": (
        lambda: srhtlab.orthonormality_defect(np.zeros((4, 0))), ValueError, "one column"
    ),
    "symmetric_eigenvalues-0x0": (
        lambda: srhtlab.symmetric_eigenvalues(np.zeros((0, 0))), ValueError, "at least 1 x 1"
    ),
    "symmetric_eigenvalues-stack-of-0x0": (
        lambda: srhtlab.symmetric_eigenvalues(np.zeros((3, 0, 0))), ValueError, "at least 1 x 1"
    ),
    # a swapaxes on one axis once raised a bare AxisError
    "singular_values-vector": (
        lambda: srhtlab.singular_values(np.ones(3)), ValueError, "k >= 1"
    ),
    # stacked along one axis only, as the eigensolver takes them
    "singular_values-4d-stack": (
        lambda: srhtlab.singular_values(np.ones((2, 2, 3, 2))), ValueError, "k >= 1"
    ),
    # a 3 x 0 input once returned an empty spectrum
    "singular_values-no-columns": (
        lambda: srhtlab.singular_values(np.zeros((3, 0))), ValueError, "k >= 1"
    ),
    "singular_values-nan": (
        lambda: srhtlab.singular_values(_ones_with(8, np.nan)), ValueError, "non-finite"
    ),
    "singular_values-inf": (
        lambda: srhtlab.singular_values(_ones_with(8, np.inf)), ValueError, "non-finite"
    ),
    "singular_values-minus-inf": (
        lambda: srhtlab.singular_values(_ones_with(8, -np.inf)), ValueError, "non-finite"
    ),
    # finite, but each Gram entry is 3e400, past float64's 1.8e308
    "singular_values-gram-overflow": (
        lambda: srhtlab.singular_values(np.full((3, 2), 1e200)), ValueError, "overflows"
    ),
    # a complex input was cast to float64 with only a ComplexWarning, its
    # imaginary part dropped: fwht([1j, 0, 0, 0]) gave zeros
    "fwht-complex": (lambda: srhtlab.fwht([1j, 0, 0, 0]), TypeError, "real input"),
    "sketch_stack-complex": (
        lambda: sketch_stack(*draw_stack(16, 4, [0, 1]), np.ones((16, 2)) * (1 + 2j)),
        TypeError, "real input",
    ),
    "apply_to_matrix-complex": (
        lambda: srhtlab.apply_to_matrix(srhtlab.draw_srht(16, 4, 0), np.eye(16, 2) * 1j),
        TypeError, "real input",
    ),
    "gram-complex": (lambda: srhtlab.gram(np.ones((3, 2)) * 1j), TypeError, "real input"),
    # gave [0, 0]
    "singular_values-complex": (
        lambda: srhtlab.singular_values(1j * np.ones((3, 2))), TypeError, "real input"
    ),
    "symmetric_eigenvalues-complex": (
        lambda: srhtlab.symmetric_eigenvalues(np.eye(2, dtype=complex)), TypeError, "real input"
    ),
    "orthonormality_defect-complex": (
        lambda: srhtlab.orthonormality_defect(np.eye(4, 2) * 1j), TypeError, "real input"
    ),
    # raised numpy's "an integer is required" from np.zeros
    "decimated_identity-bool-k": (
        lambda: srhtlab.decimated_identity(True), TypeError, "not a bool"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_refused(case):
    call, error, message = BAD_INPUTS[case]
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error


# Each pair is a call with numpy integer dimensions and the same call with
# plain ints.  The arithmetic once ran in the numpy type and wrapped: k * k
# = 40000 or k * n = 65536 past int16, beta * n = 65536 past int16, k * k =
# 256 past int8.
NUMPY_INTEGER_DIMENSIONS = {
    # refused with "need 1 <= ell <= k^2"
    "coupon_coverage_probability-int16-k": (
        lambda: srhtlab.coupon_coverage_probability(np.int16(200), 3),
        lambda: srhtlab.coupon_coverage_probability(200, 3),
    ),
    # raised "math domain error" from log(k * n)
    "embedding_sample_size-int16": (
        lambda: srhtlab.embedding_sample_size(np.int16(16), np.int16(4096)),
        lambda: srhtlab.embedding_sample_size(16, 4096),
    ),
    "row_norm_bound-int16": (
        lambda: srhtlab.row_norm_bound(np.int16(4096), np.int16(16), 16.0),
        lambda: srhtlab.row_norm_bound(4096, 16, 16.0),
    ),
    # refused with "need a finite beta with beta * n > 1"
    "row_norm_bound-int16-beta": (
        lambda: srhtlab.row_norm_bound(np.int16(4096), np.int16(16), np.int16(16)),
        lambda: srhtlab.row_norm_bound(4096, 16, 16),
    ),
    "decimated_identity-int8": (
        lambda: srhtlab.decimated_identity(np.int8(16)),
        lambda: srhtlab.decimated_identity(16),
    ),
}


@pytest.mark.parametrize("case", sorted(NUMPY_INTEGER_DIMENSIONS))
def test_numpy_integer_dimensions_give_the_plain_result(case):
    call, plain = NUMPY_INTEGER_DIMENSIONS[case]
    got, want = call(), plain()
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    else:
        assert got == want
