"""Dense kernels for the validation harness.

Matrices are plain row-major float64 numpy arrays.  Every spectrum comes
from one kernel, LAPACK's symmetric eigensolver through numpy: the singular
values of a sketch are the square roots of its Gram eigenvalues, the
spectrum the paper's matrix Chernoff bounds are stated for.  On the sketches
the runners take, whose squared condition number is small, they sit far
inside the 1e-7 tolerance that the oracle tests and the reference
comparisons allow (within 1.1e-15 of an SVD's at the headline shape), and
a non-finite entry is a ValueError.  The float32 transform of a large
embedding sketch (see ``experiments``) spends up to 3e-8 of that budget
before the eigensolve; a float32 transform at n = 64 measured up to 8e-8,
which is why small sketches stay float64.
Orthonormal bases come from one routine, ``_cholesky_qr``, shared by
``random_orthonormal`` and the row-norm runner: one pass of Cholesky QR,
kept when its basis is orthonormal to ``ONE_PASS_DEFECT`` (1e-14), as every
tall Gaussian draw measured; else a second pass (CholeskyQR2) and an
orthonormality check at 1e-8.  Both callers draw their Gaussians from
``srht.standard_normals``.
"""

import numpy as np

from .bounds import _dimensions, _integers
from .srht import standard_normals
from .wht import _real_float64, is_power_of_two

__all__ = [
    "decimated_identity",
    "gram",
    "orthonormality_defect",
    "random_orthonormal",
    "singular_values",
    "symmetric_eigenvalues",
]

# Full-rank decision: sigma_k > RANK_RTOL * max(sigma_1, 1).  ``singular_values``
# roots LAPACK's Gram eigenvalues, which puts an exactly-zero sigma at up to
# sqrt(eps * lambda_max), a few 1e-8; the smallest genuinely nonzero sigma_k
# in the rank experiments is >= k**-0.5, so 1e-6 sits well clear of both.
RANK_RTOL = 1e-6


def random_orthonormal(n: int, k: int, seed) -> np.ndarray:
    """n x k matrix with orthonormal columns, deterministic per seed.

    The orthonormal factor Q = G R^-1 of a standard-normal matrix G (R with
    positive diagonal), by Cholesky QR (see ``_cholesky_qr``): R_1 from the
    Gram of G and Q_1 = G R_1^-1.  A tall draw has cond(G) near 1, so Q_1 is
    already orthonormal to rounding and is returned.  A square n x n draw
    has cond(G) near n, one pass loses orthogonality as cond(G)^2, and a
    second pass (CholeskyQR2), R_2 from the Gram of Q_1 and Q = Q_1 R_2^-1,
    brings it to rounding level while cond(G) stays below about 1e8
    (Fukaya, Nakatsukasa, Yanagisawa and Yamamoto 2014; Yamamoto et al.
    2015).  That limit is passed only with tiny probability; a draw past it
    raises RuntimeError and never returns a bad basis.  Q overwrites G, so
    at most two n x k arrays are held at once.  n and k must be integers
    with 1 <= k <= n; they are checked before the draw.
    """
    n, k = _dimensions(n, k)
    (g,) = standard_normals([seed], np.empty((n, k)))
    return _cholesky_qr(g, gram(g))


# Largest first-pass defect max|Q_1^T Q_1 - I| accepted without a second
# pass: rounding level, about 45 ulp of 1.  Tall Gaussian draws measured at
# most 1.1e-15 (4096 x 16 after the transform, 400 draws) and 1.6e-15
# (65536 x 16); square ones 5.5e-13 in the median and up to 1.6e-6 at
# 64 x 64 (400 draws), 7.2e-12 in the median at 256 x 256, so they take both.
ONE_PASS_DEFECT = 1e-14


def _cholesky_qr(g, gram1):
    """G R^-1, written over ``g`` and returned, by one or two passes of
    Cholesky QR.

    R_1 is the Cholesky factor of ``gram1``: gram(G), or the Gram of the
    matrix ``g`` held before an orthogonal map was applied to it in place,
    which in exact arithmetic is the same.  Q_1 = G R_1^-1 is returned when
    its defect, read from the Gram of Q_1 that a second pass would factor,
    is at most ``ONE_PASS_DEFECT``.  Else R_2 is the factor of that Gram and
    Q_1 R_2^-1 is returned.  Each pass writes over ``g`` (numpy copies it
    first), so at most two n x k arrays are held.  RuntimeError when a
    factorization fails, or when the two-pass result's orthonormality defect
    exceeds 1e-8 or is not a number.
    """
    q = np.matmul(g, np.linalg.inv(_cholesky_r(gram1)), out=g)
    gram2 = gram(q)
    if _gram_defect(gram2) <= ONE_PASS_DEFECT:
        return q
    np.matmul(q, np.linalg.inv(_cholesky_r(gram2)), out=q)
    defect = orthonormality_defect(q)
    if not defect <= 1e-8:
        raise RuntimeError(f"Cholesky QR basis lost orthonormality: defect {defect}")
    return q


def _cholesky_r(s):
    """Upper-triangular R with positive diagonal and R^T R = S, for the Gram
    matrix S of some A.

    RuntimeError when S does not factor: A is too ill-conditioned.
    """
    try:
        return np.linalg.cholesky(s).T
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"matrix too ill-conditioned for Cholesky QR: {exc}") from exc


def gram(a) -> np.ndarray:
    """A^T A, symmetrized on output.  Accepts stacks of matrices.  An input
    of fewer than two dimensions is a ValueError, a complex one a
    TypeError."""
    a = _real_float64(a)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    s = np.swapaxes(a, -1, -2) @ a
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def orthonormality_defect(v) -> float:
    """max |(V^T V - I)_ij|; zero iff the columns are exactly orthonormal.

    A 1-D ``v`` is one column.  Any other shape than a vector or a matrix
    of at least one column is a ValueError, and a complex ``v`` a
    TypeError."""
    v = _real_float64(v)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError(f"need a vector or a matrix of at least one column, got shape {v.shape}")
    return _gram_defect(gram(v))


def _gram_defect(s) -> float:
    """max |(S - I)_ij| of a k x k Gram matrix S, k >= 1."""
    return float(np.max(np.abs(s - np.eye(s.shape[0]))))


def symmetric_eigenvalues(s) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted descending.

    LAPACK's symmetric eigensolver on the symmetrized input.  Matrices may be
    stacked along a leading axis.  Raises ValueError on a 0 x 0 matrix, on a
    non-finite entry and on a visibly non-symmetric input, and TypeError on a
    complex one.
    """
    a = _real_float64(s)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise ValueError(f"expected square matrices of at least 1 x 1, got shape {a.shape}")
    at = np.swapaxes(a, -1, -2)
    # one temporary the size of the input, reused, so a long stack does not
    # cost three copies of itself
    work = np.abs(a)
    scale = np.maximum(1.0, np.max(work, axis=(-2, -1)))
    # the largest magnitude is NaN or inf exactly when an entry is
    if not np.isfinite(scale).all():
        raise ValueError("matrix has non-finite entries")
    np.subtract(a, at, out=work)
    np.abs(work, out=work)
    if np.any(np.max(work, axis=(-2, -1)) > 1e-8 * scale):
        raise ValueError("matrix is not symmetric")
    np.add(a, at, out=work)
    work /= 2.0
    return np.linalg.eigvalsh(work)[..., ::-1]


def singular_values(a) -> np.ndarray:
    """All k singular values of an m x k matrix, sorted descending: the
    square roots of the eigenvalues of its Gram matrix A^T A, negative
    rounding clipped to 0.

    Matrices may be stacked along one leading axis.  When m < k the last
    k - m values are zero up to rounding, below ``RANK_RTOL`` times
    max(sigma_1, 1), so the full-rank rule reads rank loss.  Raises
    ValueError on an input that is not 2-D or 3-D, on k = 0, and on a
    non-finite entry or a finite input whose Gram matrix overflows float64:
    either makes an entry of the Gram matrix non-finite.  A complex input is
    a TypeError.
    """
    a = _real_float64(a)
    if a.ndim not in (2, 3) or a.shape[-1] == 0:
        raise ValueError(f"expected an m x k matrix or one stack of them, k >= 1, got {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        s = gram(a)
    if not np.isfinite(s).all():
        raise ValueError("matrix has non-finite entries (or its Gram matrix overflows float64)")
    return np.sqrt(np.clip(symmetric_eigenvalues(s), 0.0, None))


def decimated_identity(k: int) -> np.ndarray:
    """k^2 x k orthonormal matrix from regular decimation of the identity.

    Row j (0-based) is the unit vector e_{j/k} when j is a multiple of k and
    zero otherwise: one nonzero per column, exactly orthonormal.  k must be an
    integer and a power of two, so that k^2 is a valid transform size.
    """
    (k,) = _integers(k=k)
    if not is_power_of_two(k):
        raise ValueError(f"k must be a positive power of two, got {k}")
    w = np.zeros((k * k, k))
    w[np.arange(k) * k, np.arange(k)] = 1.0
    return w

