"""Bad inputs at the public entry points: each is refused with the package's
own ValueError or TypeError, with no other exception or warning (the test
configuration turns warnings into errors).  Every callable name in
``srhtlab.__all__`` has rows, and so have the runners and the samplers'
integer arguments.  Dimensions of a small numpy integer type are not bad
inputs: each gives the plain-int call's result."""

import ast
import math
import pathlib

import numpy as np
import pytest

import srhtlab
from srhtlab.experiments import (
    TrialPlan,
    monte_carlo_slack,
    run_chernoff_validation,
    run_coupon_trials,
    run_embedding_trials,
    run_mgf_domination,
    run_row_norm_trials,
)
from srhtlab.srht import (
    MATERIALIZE_CAP,
    draw_integers,
    draw_stack,
    rademacher_signs,
    sketch_stack,
)
from srhtlab.wht import hadamard_size


def _ones_with(n, value, dtype=np.float64):
    """An n x 2 matrix of ones with ``value`` at (5, 1)."""
    v = np.ones((n, 2), dtype=dtype)
    v[5, 1] = value
    return v


# operator.index(True) is 1, so a bool has to be refused before an integer
# is taken from it.
BAD_INPUTS = {
    "hadamard_entry-bool-index": (
        lambda: srhtlab.hadamard_entry(True, 1, 2), TypeError, "not a bool"
    ),
    "draw_srht-bool-seed": (lambda: srhtlab.draw_srht(4, 2, True), TypeError, "not bools"),
    "draw_srht-bool-seed-entry": (
        lambda: srhtlab.draw_srht(4, 2, (0, 1, False, 3)), TypeError, "not bools"
    ),
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
    # 0 records a dimension that does not apply; a negative one built a plan
    "TrialPlan-negative-n": (lambda: TrialPlan(-1, 2, 3, 5, 0), ValueError, "must be >= 0"),
    "TrialPlan-negative-k": (lambda: TrialPlan(8, -1, 3, 5, 0), ValueError, "must be >= 0"),
    "TrialPlan-negative-ell": (lambda: TrialPlan(8, 2, -1, 5, 0), ValueError, "must be >= 0"),
    # built plans whose records claimed 20 columns, or 30 sampled rows, of 8
    "TrialPlan-k-above-n": (
        lambda: TrialPlan(8, 20, 3, 5, 0), ValueError, "k and ell must be at most n, got n=8, k=20"
    ),
    "TrialPlan-ell-above-n": (
        lambda: TrialPlan(8, 2, 30, 5, 0), ValueError, "k and ell must be at most n, got .* ell=30"
    ),
    # built a plan whose record claimed one subset of C(16, 6) = 8008
    "TrialPlan-exhaustive-trials-not-the-subset-count": (
        lambda: TrialPlan(16, 2, 6, 1, 0, mode="exhaustive"), ValueError,
        r"trials must be C\(16, 6\) = 8008, got 1",
    ),
    "rademacher_signs-two-seed-block-float": (
        lambda: rademacher_signs(8, [1, 2.0]),
        TypeError, "'float' object cannot be interpreted as an integer",
    ),
    "draw_stack-two-seed-block-negative": (
        lambda: draw_stack(8, 3, [(0, 1, 0, 0), (0, 1, -1, 0)]), ValueError, "non-negative"
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
    "random_orthonormal-numpy-bool-k": (
        lambda: srhtlab.random_orthonormal(4, np.True_, 0), TypeError, "not a bool"
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
    # raised numpy's AxisError ("axis2: axis -2 is out of bounds")
    "gram-vector": (lambda: srhtlab.gram(np.ones(3)), ValueError, "matrix or a stack"),
    # returned 1.0
    "orthonormality_defect-3d": (
        lambda: srhtlab.orthonormality_defect(np.zeros((2, 3, 2))), ValueError, "at least one column"
    ),
    "orthonormality_defect-scalar": (
        lambda: srhtlab.orthonormality_defect(np.float64(1.0)), ValueError, "at least one column"
    ),
    # returned a 1 x 2 x 4 array
    "hadamard_matrix-2d-rows": (
        lambda: srhtlab.hadamard_matrix(4, rows=[[0, 1]]), ValueError, "1-D array"
    ),
    "hadamard_matrix-fractional-rows": (
        lambda: srhtlab.hadamard_matrix(4, rows=[1.5]), TypeError, "rows must be integers"
    ),
    "hadamard_matrix-nan-rows": (
        lambda: srhtlab.hadamard_matrix(4, rows=[np.nan]), TypeError, "rows must be integers"
    ),
    # said "every range must be an integer >= 1" of a range that is one;
    # a range takes one 32-bit half of a word, so none is past 2**32
    "draw_integers-range-2**64": (
        lambda: draw_integers([0], [2**64]), ValueError, r"integer in \[1, 2\*\*32\]"
    ),
    "draw_integers-range-2**63+1": (
        lambda: draw_integers([0], np.array([2**63 + 1], dtype=np.uint64)),
        ValueError, r"integer in \[1, 2\*\*32\]",
    ),
    "draw_integers-range-2**32+1": (
        lambda: draw_integers([0], [2, 2**32 + 1]), ValueError, r"integer in \[1, 2\*\*32\]"
    ),
    "draw_integers-zero-range": (
        lambda: draw_integers([0], [2, 0]), ValueError, r"integer in \[1, 2\*\*32\]"
    ),
    "fwht-n-12": (lambda: srhtlab.fwht(np.ones(12)), ValueError, "power of two"),
    "fwht-empty": (lambda: srhtlab.fwht(np.ones(0)), ValueError, "power of two"),
    "fwht-scalar": (lambda: srhtlab.fwht(1.0), ValueError, "at least one dimension"),
    "fwht_inplace-list": (
        lambda: srhtlab.fwht_inplace([1.0, 2.0]), ValueError, "float64 or float32 ndarray"
    ),
    "fwht_inplace-int-dtype": (
        lambda: srhtlab.fwht_inplace(np.ones(4, dtype=np.int64)),
        ValueError, "float64 or float32 ndarray",
    ),
    "fwht_inplace-scalar": (
        lambda: srhtlab.fwht_inplace(np.array(1.0)), ValueError, "at least one dimension"
    ),
    "fwht_inplace-strided": (
        lambda: srhtlab.fwht_inplace(np.ones((8, 2))[:, 0]), ValueError, "C-contiguous"
    ),
    "fwht_inplace-read-only": (
        lambda: srhtlab.fwht_inplace(np.broadcast_to(np.ones(8), (8,))), ValueError, "writeable"
    ),
    "fwht_inplace-n-12": (lambda: srhtlab.fwht_inplace(np.ones(12)), ValueError, "power of two"),
    "fwht_inplace-empty": (lambda: srhtlab.fwht_inplace(np.ones(0)), ValueError, "power of two"),
    "symmetric_eigenvalues-nan": (
        lambda: srhtlab.symmetric_eigenvalues(np.full((2, 2), np.nan)), ValueError, "non-finite"
    ),
    "symmetric_eigenvalues-inf": (
        lambda: srhtlab.symmetric_eigenvalues(np.full((2, 2), np.inf)), ValueError, "non-finite"
    ),
    "symmetric_eigenvalues-non-square": (
        lambda: srhtlab.symmetric_eigenvalues(np.ones((2, 3))), ValueError, "square matrices"
    ),
    "symmetric_eigenvalues-vector": (
        lambda: srhtlab.symmetric_eigenvalues(np.ones(3)), ValueError, "square matrices"
    ),
    "symmetric_eigenvalues-not-symmetric": (
        lambda: srhtlab.symmetric_eigenvalues([[1.0, 2.0], [0.0, 1.0]]), ValueError, "not symmetric"
    ),
    "apply_to_matrix-inf-matrix": (
        lambda: srhtlab.apply_to_matrix(srhtlab.draw_srht(16, 4, 0), _ones_with(16, np.inf)),
        ValueError, "non-finite",
    ),
    "materialize-nan-signs": (
        lambda: srhtlab.materialize((np.full((1, 16), np.nan), [[0, 5]])), ValueError, "exactly"
    ),
    "materialize-negative-index": (
        lambda: srhtlab.materialize((np.ones((1, 16)), [[-1, 5]])), ValueError, "strictly"
    ),
    "materialize-no-indices": (
        lambda: srhtlab.materialize((np.ones((1, 16)), np.zeros((1, 0), dtype=np.int64))),
        ValueError, "need 1 <= ell <= n",
    ),
    "draw_srht-ell-above-n": (
        lambda: srhtlab.draw_srht(4, 5, 0), ValueError, "need 1 <= ell <= n"
    ),
    "draw_srht-negative-seed": (lambda: srhtlab.draw_srht(4, 2, -1), ValueError, "non-negative"),
    # seeds keep their own rule, srht._entropy
    "draw_srht-float-seed": (
        lambda: srhtlab.draw_srht(4, 2, 4.0),
        TypeError, "'float' object cannot be interpreted as an integer",
    ),
    "sample_without_replacement-ell-above-n": (
        lambda: srhtlab.sample_without_replacement(4, 5, [0]), ValueError, "need 1 <= ell <= n"
    ),
    "sample_without_replacement-negative-seed": (
        lambda: srhtlab.sample_without_replacement(4, 2, [-1]), ValueError, "non-negative"
    ),
    # an offset's range is at most 2**32, so n is too
    "sample_without_replacement-n-past-2**32": (
        lambda: srhtlab.sample_without_replacement(2**32 + 1, 2, [0]),
        ValueError, r"integer in \[1, 2\*\*32\]",
    ),
    "random_orthonormal-k-above-n": (
        lambda: srhtlab.random_orthonormal(4, 8, 0), ValueError, "need 1 <= k <= n"
    ),
    "random_orthonormal-negative-seed": (
        lambda: srhtlab.random_orthonormal(4, 2, -1), ValueError, "non-negative"
    ),
    "embedding_sample_size-k-above-n": (
        lambda: srhtlab.embedding_sample_size(32, 16), ValueError, "need 1 <= k <= n"
    ),
    "row_norm_bound-k-above-n": (
        lambda: srhtlab.row_norm_bound(16, 32, 4.0), ValueError, "need 1 <= k <= n"
    ),
    "coupon_coverage_probability-ell-above-k-squared": (
        lambda: srhtlab.coupon_coverage_probability(2, 5), ValueError, "need 1 <= ell <= n"
    ),
    "decimated_identity-k-3": (
        lambda: srhtlab.decimated_identity(3), ValueError, "power of two"
    ),
    "row_norm_bound-nan-beta": (
        lambda: srhtlab.row_norm_bound(16, 2, np.nan), ValueError, "finite beta"
    ),
    "row_norm_bound-inf-beta": (
        lambda: srhtlab.row_norm_bound(16, 2, np.inf), ValueError, "finite beta"
    ),
    "row_norm_bound-zero-beta": (
        lambda: srhtlab.row_norm_bound(16, 2, 0.0), ValueError, "finite beta"
    ),
    "row_norm_bound-negative-beta": (
        lambda: srhtlab.row_norm_bound(16, 2, -4.0), ValueError, "finite beta"
    ),
    "ChernoffParams-nan-b_max": (
        lambda: srhtlab.ChernoffParams(2, np.nan, 1.0, 1.0, 0.5), ValueError, "b_max"
    ),
    "ChernoffParams-zero-b_max": (
        lambda: srhtlab.ChernoffParams(2, 0.0, 1.0, 1.0, 0.5), ValueError, "b_max"
    ),
    "ChernoffParams-negative-b_max": (
        lambda: srhtlab.ChernoffParams(2, -0.5, 1.0, 1.0, 0.5), ValueError, "b_max"
    ),
    "ChernoffParams-nan-mu_min": (
        lambda: srhtlab.ChernoffParams(2, 0.5, np.nan, 1.0, 0.5), ValueError, "mu_min"
    ),
    "ChernoffParams-negative-mu_min": (
        lambda: srhtlab.ChernoffParams(2, 0.5, -1.0, 1.0, 0.5), ValueError, "mu_min"
    ),
    "ChernoffParams-inf-mu_max": (
        lambda: srhtlab.ChernoffParams(2, 0.5, 1.0, np.inf, 0.5), ValueError, "mu_max"
    ),
    "chernoff_lower_tail-nan-deviation": (
        lambda: srhtlab.chernoff_lower_tail(srhtlab.ChernoffParams(2, 0.5, 1.0, 1.0, np.nan)),
        ValueError, "lower-tail deviation",
    ),
    "chernoff_lower_tail-negative-deviation": (
        lambda: srhtlab.chernoff_lower_tail(srhtlab.ChernoffParams(2, 0.5, 1.0, 1.0, -0.5)),
        ValueError, "lower-tail deviation",
    ),
    "chernoff_lower_tail-deviation-above-1": (
        lambda: srhtlab.chernoff_lower_tail(srhtlab.ChernoffParams(2, 0.5, 1.0, 1.0, 1.5)),
        ValueError, "lower-tail deviation",
    ),
    "chernoff_upper_tail-nan-deviation": (
        lambda: srhtlab.chernoff_upper_tail(srhtlab.ChernoffParams(2, 0.5, 1.0, 1.0, np.nan)),
        ValueError, "upper-tail deviation",
    ),
    "chernoff_upper_tail-inf-deviation": (
        lambda: srhtlab.chernoff_upper_tail(srhtlab.ChernoffParams(2, 0.5, 1.0, 1.0, np.inf)),
        ValueError, "upper-tail deviation",
    ),
    "chernoff_upper_tail-negative-deviation": (
        lambda: srhtlab.chernoff_upper_tail(srhtlab.ChernoffParams(2, 0.5, 1.0, 1.0, -0.5)),
        ValueError, "upper-tail deviation",
    ),
    "row_sampling_worst_ratio-nan-alpha": (
        lambda: srhtlab.row_sampling_worst_ratio(np.nan, 5 / 6, 7 / 6), ValueError, "alpha"
    ),
    "row_sampling_worst_ratio-inf-alpha": (
        lambda: srhtlab.row_sampling_worst_ratio(np.inf, 5 / 6, 7 / 6), ValueError, "alpha"
    ),
    "row_sampling_worst_ratio-zero-alpha": (
        lambda: srhtlab.row_sampling_worst_ratio(0.0, 5 / 6, 7 / 6), ValueError, "alpha"
    ),
    "row_sampling_worst_ratio-negative-alpha": (
        lambda: srhtlab.row_sampling_worst_ratio(-4.0, 5 / 6, 7 / 6), ValueError, "alpha"
    ),
    "row_sampling_worst_ratio-bool-alpha": (
        lambda: srhtlab.row_sampling_worst_ratio(True, 5 / 6, 7 / 6), TypeError, "not a bool"
    ),
    "row_sampling_worst_ratio-nan-delta": (
        lambda: srhtlab.row_sampling_worst_ratio(4.0, np.nan, 7 / 6),
        ValueError, "lower-tail deviation",
    ),
    "row_sampling_worst_ratio-alpha-1": (
        lambda: srhtlab.row_sampling_worst_ratio(1.0, 5 / 6, 7 / 6), ValueError, "does not decrease"
    ),
    "row_sampling_failure_bound-nan-eta": (
        lambda: srhtlab.row_sampling_failure_bound(4, 4.0, 5 / 6, np.nan),
        ValueError, "upper-tail deviation",
    ),
    "monte_carlo_slack-nan-bound": (
        lambda: monte_carlo_slack(np.nan, 5), ValueError, "bound >= 0"
    ),
    "monte_carlo_slack-negative-bound": (
        lambda: monte_carlo_slack(-0.5, 5), ValueError, "bound >= 0"
    ),
    "run_embedding_trials-k-above-n": (
        lambda: run_embedding_trials(16, 32, ell=4, trials=2), ValueError, "need 1 <= k <= n"
    ),
    "run_embedding_trials-ell-above-n": (
        lambda: run_embedding_trials(16, 2, ell=32, trials=2), ValueError, "need 1 <= ell <= n"
    ),
    "run_row_norm_trials-k-above-n": (
        lambda: run_row_norm_trials(16, 32, trials=2), ValueError, "need 1 <= k <= n"
    ),
    "run_coupon_trials-ell-above-n": (
        lambda: run_coupon_trials(2, (5,), trials=2), ValueError, "need 1 <= ell <= n"
    ),
    "run_chernoff_validation-ell-above-n": (
        lambda: run_chernoff_validation(8, 2, 9), ValueError, "need 1 <= ell <= n"
    ),
    "run_mgf_domination-ell-above-n": (
        lambda: run_mgf_domination(8, 2, 9), ValueError, "need 1 <= ell <= n"
    ),
    "run_coupon_trials-empty-grid": (
        lambda: run_coupon_trials(2, (), trials=2), ValueError, "must not be empty"
    ),
    "run_chernoff_validation-empty-grid": (
        lambda: run_chernoff_validation(deviation_grid=()), ValueError, "must not be empty"
    ),
    "run_mgf_domination-empty-grid": (
        lambda: run_mgf_domination(theta_grid=[]), ValueError, "must not be empty"
    ),
    "run_chernoff_validation-nan-deviation": (
        lambda: run_chernoff_validation(deviation_grid=(np.nan,)),
        ValueError, "lower-tail deviation",
    ),
    "run_mgf_domination-inf-theta": (
        lambda: run_mgf_domination(theta_grid=(np.inf,)), ValueError, "theta must be finite"
    ),
    # a bool theta once ran as theta = 1 and recorded mgf_domination(theta=1)
    "run_mgf_domination-bool-theta": (
        lambda: run_mgf_domination(theta_grid=(True,)), TypeError, "theta must be a number"
    ),
    "run_mgf_domination-numpy-bool-theta": (
        lambda: run_mgf_domination(theta_grid=(0.5, np.True_)), TypeError,
        "theta must be a number",
    ),
}


# Every integer argument follows one rule (``bounds._integers``): each float,
# whole or not, finite or not, and each bool is a TypeError that names the
# argument.  Where a range rule applies, 0 and -2 are a ValueError with its
# one message (a seed takes 0, so only -2).  2.5 trials once gave a slack
# of 1.26 and inf trials 0.0; a whole float dimension was taken by
# ``random_orthonormal``, ``embedding_sample_size``, ``ChernoffParams`` and
# ``row_norm_bound`` and refused with a ValueError by ``draw_srht`` and
# ``decimated_identity``.
NOT_INTEGERS = {
    "nan": math.nan, "inf": math.inf, "minus-inf": -math.inf, "whole-float": 4.0,
    "fractional": 2.5, "bool": True,
}
K_RANGE, ELL_RANGE = "need 1 <= k <= n", "need 1 <= ell <= n"
POWER, TRIALS, SEED = "power of two", "trials must be >= 1", "seed must be non-negative"
SUBSETS = {"n": 8, "k": 2, "ell": 3, "seed": 0}
# per function, the keyword arguments of a valid call, and per integer
# argument the range rule's message, or None where none applies
INTEGER_ARGUMENTS = {
    srhtlab.ChernoffParams: (
        {"k": 2, "b_max": 0.5, "mu_min": 1.0, "mu_max": 1.0, "deviation": 0.5},
        {"k": "k must be >= 1"},
    ),
    srhtlab.coupon_coverage_probability: ({"k": 2, "ell": 2}, {"k": K_RANGE, "ell": ELL_RANGE}),
    srhtlab.decimated_identity: ({"k": 4}, {"k": POWER}),
    srhtlab.draw_srht: ({"n": 16, "ell": 4, "seed": 0}, {"n": POWER, "ell": ELL_RANGE}),
    srhtlab.embedding_sample_size: ({"k": 2, "n": 16}, {"k": K_RANGE, "n": K_RANGE}),
    # an index out of range is an IndexError, not a row here
    srhtlab.hadamard_entry: ({"i": 0, "j": 0, "n": 4}, {"i": None, "j": None, "n": POWER}),
    srhtlab.hadamard_matrix: ({"n": 4}, {"n": POWER}),
    hadamard_size: ({"n": 4}, {"n": POWER}),
    draw_stack: ({"n": 16, "ell": 4, "seeds": [0]}, {"n": POWER, "ell": ELL_RANGE}),
    srhtlab.random_orthonormal: ({"n": 16, "k": 2, "seed": 0}, {"n": K_RANGE, "k": K_RANGE}),
    srhtlab.row_norm_bound: ({"n": 16, "k": 2, "beta": 4.0}, {"n": K_RANGE, "k": K_RANGE}),
    srhtlab.sample_without_replacement: (
        {"n": 8, "ell": 2, "seeds": [0]}, {"n": ELL_RANGE, "ell": ELL_RANGE}
    ),
    rademacher_signs: ({"n": 8, "seeds": [0]}, {"n": "n must be >= 1"}),
    # a dimension that does not apply is recorded as 0
    TrialPlan: (
        {"n": 8, "k": 2, "ell": 3, "trials": 5, "seed": 0},
        {"n": None, "k": None, "ell": None, "trials": TRIALS, "seed": SEED},
    ),
    monte_carlo_slack: ({"bound": 0.5, "trials": 5}, {"trials": "trials >= 1"}),
    run_embedding_trials: (
        {"n": 64, "k": 2, "ell": 8, "trials": 2, "seed": 0},
        {"n": K_RANGE, "k": K_RANGE, "ell": ELL_RANGE, "trials": TRIALS, "seed": SEED},
    ),
    run_row_norm_trials: (
        {"n": 16, "k": 2, "trials": 2, "seed": 0},
        {"n": POWER, "k": K_RANGE, "trials": TRIALS, "seed": SEED},
    ),
    run_coupon_trials: (
        {"k": 2, "ell_grid": (2,), "trials": 2, "seed": 0},
        {"k": POWER, "trials": TRIALS, "seed": SEED},
    ),
    run_chernoff_validation: (
        {**SUBSETS, "deviation_grid": (0.5,)},
        {"n": ELL_RANGE, "k": K_RANGE, "ell": ELL_RANGE, "seed": SEED},
    ),
    run_mgf_domination: (
        {**SUBSETS, "theta_grid": (1.0,)},
        {"n": ELL_RANGE, "k": K_RANGE, "ell": ELL_RANGE, "seed": SEED},
    ),
}


def _integer_rows(name, arg, call, message):
    """Rows ``<name>-<class>-<arg>`` for the integer argument ``arg``, with
    ``call`` taking the bad value."""
    rows = {
        f"{name}-{cls}-{arg}": (lambda value=value: call(value), TypeError, f"^{arg} must be")
        for cls, value in NOT_INTEGERS.items()
    }
    if message is not None:
        for cls, value in (("zero", 0), ("negative", -2))[arg == "seed" :]:
            rows[f"{name}-{cls}-{arg}"] = (lambda value=value: call(value), ValueError, message)
    return rows


def _generated_rows():
    rows = {}
    for fn, (valid, messages) in INTEGER_ARGUMENTS.items():
        for arg, message in messages.items():
            call = lambda value, fn=fn, valid=valid, arg=arg: fn(**{**valid, arg: value})
            rows.update(_integer_rows(fn.__name__, arg, call, message))
    rows.update(_integer_rows(
        "run_coupon_trials", "ell", lambda ell: run_coupon_trials(2, (ell,), trials=2), ELL_RANGE
    ))
    # the one k checked per call, on criterion 8's hot path: a whole or a
    # fractional float k is still taken (ROADMAP item 14)
    for cls, k in {**NOT_INTEGERS, "zero": 0, "negative": -2}.items():
        if cls not in ("whole-float", "fractional"):
            rows[f"row_sampling_failure_bound-{cls}-k"] = (
                lambda k=k: srhtlab.row_sampling_failure_bound(k, 4.0, 5 / 6, 7 / 6),
                ValueError, "need a finite k >= 2",
            )
    assert not BAD_INPUTS.keys() & rows.keys()
    return rows


BAD_INPUTS.update(_generated_rows())


def test_every_public_name_has_a_row():
    # the two EMBEDDING_SIGMA constants take no input
    names = [name for name in srhtlab.__all__ if callable(getattr(srhtlab, name))]
    assert len(names) == len(srhtlab.__all__) - 2
    missing = [name for name in names if not any(case.startswith(f"{name}-") for case in BAD_INPUTS)]
    assert not missing


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


# The one integer rule lives in bounds._integers; the seed rule in
# srht._entropy.  Nowhere else may a module take or test an integer by hand.
INTEGER_RULE_HOMES = {("bounds.py", "_integers"), ("srht.py", "_entropy")}


def _is_by_hand_integer_check(node):
    """``operator.index``, ``numbers.Integral``, ``x % 1 == 0``, an
    ``isinstance`` test against int or np.integer, or an import of either
    name from its module."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return (node.value.id, node.attr) in (("operator", "index"), ("numbers", "Integral"))
    if isinstance(node, ast.ImportFrom):
        return node.module in ("operator", "numbers")
    if isinstance(node, ast.Compare) and isinstance(node.left, ast.BinOp):
        right = node.left.right
        return isinstance(node.left.op, ast.Mod) and isinstance(right, ast.Constant) and right.value == 1
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        spec = node.args[1]
        types = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        return any(getattr(t, "id", None) == "int" or getattr(t, "attr", None) == "integer"
                   for t in types)
    return False


@pytest.mark.parametrize(
    "path", sorted(pathlib.Path(srhtlab.__file__).parent.glob("*.py")), ids=lambda path: path.name
)
def test_integers_are_checked_only_through_bounds(path):
    tree = ast.parse(path.read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if _is_by_hand_integer_check(node):
            owner = node
            while owner in parents and not isinstance(owner, ast.FunctionDef):
                owner = parents[owner]
            where = (path.name, getattr(owner, "name", "<module>"))
            assert where in INTEGER_RULE_HOMES, f"{path.name}:{node.lineno} checks an integer by hand"
