"""Subsampled randomized Hadamard transform toolkit.

Sketching kernels (fast Walsh-Hadamard transform, sign flips, coordinate
sampling), the closed-form tail bounds governing them, and a reproducible
experiment harness that checks the bounds empirically at desk scale.
"""

from .bounds import (
    EMBEDDING_SIGMA_MAX,
    EMBEDDING_SIGMA_MIN,
    ChernoffParams,
    chernoff_lower_tail,
    chernoff_upper_tail,
    coupon_coverage_probability,
    embedding_sample_size,
    row_norm_bound,
    row_sampling_failure_bound,
    row_sampling_worst_ratio,
)
from .linalg import (
    decimated_identity,
    gram,
    orthonormality_defect,
    random_orthonormal,
    singular_values,
    symmetric_eigenvalues,
)
from .srht import (
    apply_to_matrix,
    draw_srht,
    materialize,
    sample_without_replacement,
)
from .wht import fwht, fwht_inplace, hadamard_entry, hadamard_matrix

__version__ = "0.1.0"

__all__ = [
    "ChernoffParams",
    "EMBEDDING_SIGMA_MAX",
    "EMBEDDING_SIGMA_MIN",
    "apply_to_matrix",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "coupon_coverage_probability",
    "decimated_identity",
    "draw_srht",
    "embedding_sample_size",
    "fwht",
    "fwht_inplace",
    "gram",
    "hadamard_entry",
    "hadamard_matrix",
    "materialize",
    "orthonormality_defect",
    "random_orthonormal",
    "row_norm_bound",
    "row_sampling_failure_bound",
    "row_sampling_worst_ratio",
    "sample_without_replacement",
    "singular_values",
    "symmetric_eigenvalues",
]
