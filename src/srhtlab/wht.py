"""Orthogonal Walsh-Hadamard transform in Sylvester (natural) ordering.

The fast path is radix-16, O(n log n).  By the Sylvester identity
H_ab = H_a (x) H_b, the transform of n = 2**p points factors into one stage
per group of four index bits, and each stage is a single BLAS matmul of the
dense orthonormal 16 x 16 block against a strided view of the data (leftover
bits use the 2, 4 or 8 block).  An array of at most 512 KiB runs every stage
over the whole array, alternating with one scratch buffer of its size.  A
larger one runs the same stages in two passes, so no full-size buffer is
made: first the low stages on each contiguous run of c = 16**j rows that
fits 512 KiB, then the remaining n/c-point stages across the runs, a slab of
columns at a time.  Each output is the same product of blocks either way, bit
for bit.  Every block is already orthonormal, so no final n**-0.5 scaling
pass is needed.  float64 and float32 arrays are accepted, each transformed
in its own dtype with blocks of that dtype.  A float32 array above 512 KiB
is cut into the runs and slabs of a float64 one of its shape, in half the
bytes.  ``hadamard_entry`` gives the closed-form matrix entry
n**-0.5 * (-1)**popcount(i & j), which serves as the slow testing oracle.
``hadamard_size`` is the one check of a transform size n = 2**p.
"""

import numpy as np

from .bounds import _integers

__all__ = [
    "fwht",
    "fwht_inplace",
    "hadamard_entry",
    "hadamard_matrix",
    "hadamard_size",
    "is_power_of_two",
]


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def hadamard_size(n) -> int:
    """``n`` as a plain int, when it is an integer (see ``bounds._integers``)
    and a positive power of two."""
    (n,) = _integers(n=n)
    if not is_power_of_two(n):
        raise ValueError(f"n must be a positive power of two, got {n}")
    return n


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """Apply the orthogonal Walsh-Hadamard transform along axis 0, in place.

    ``x`` must be a writeable, C-contiguous float64 or float32 array whose
    leading dimension is a power of two; it is transformed in its own dtype.
    A float32 result is within about 1e-7 of each column's norm of the
    float64 one.  Higher-dimensional inputs are transformed column-wise.
    Returns ``x`` for convenience.  An array of at most 512 KiB, or of at
    most 16 rows, takes one scratch buffer of its own size.  A larger one
    takes at most 512 KiB, or 1/128 of its own size if that is more, and up
    to 16 of its rows when a row is wider than 4096 columns.  Results are
    reproducible for a fixed shape, but a column may differ in the last bit
    from the same column transformed beside a different number of others:
    ``np.matmul`` takes a matrix-vector path for one column and a
    matrix-matrix path for several.
    """
    if not isinstance(x, np.ndarray) or x.dtype not in _BLOCKS:
        raise ValueError("fwht_inplace requires a float64 or float32 ndarray")
    if x.ndim == 0:
        raise ValueError("fwht_inplace requires at least one dimension")
    if not x.flags.c_contiguous:
        raise ValueError("fwht_inplace requires a C-contiguous array (use fwht for copies)")
    if not x.flags.writeable:
        raise ValueError("fwht_inplace requires a writeable array (use fwht for copies)")
    n = x.shape[0]
    if not is_power_of_two(n):
        raise ValueError(f"leading dimension must be a power of two, got {n}")
    m = x.size // n
    a = x.reshape(n, m)
    blocks = _BLOCKS[x.dtype]
    if x.nbytes <= _PIECE_BYTES or n <= _RADIX:
        _transform(a, a, np.empty_like(a), blocks)
        return x
    # runs of c = 16**j < n rows, at least 16 so that c*m is a multiple of 16
    c = _RADIX
    while _RADIX * c * m * 8 <= _PIECE_BYTES:
        c *= _RADIX
    scratch = np.empty((c, m), dtype=x.dtype)
    for i in range(0, n, c):
        run = a[i : i + c]
        _transform(run, run, scratch, blocks)
    del scratch  # the slab buffers below take its place in the budget
    # The rest is an n/c-point transform of the n/c x c*m view, a slab of
    # columns at a time through two buffers that share the piece budget.
    # BLAS may round the columns of a product past its last multiple of 8
    # differently.  The first stage ran above at width m, as over the whole
    # array; every later width is a multiple of 16 here as there, so each
    # output rounds the same.
    rows, cols = n // c, c * m
    y = x.reshape(rows, cols)
    width = max(_RADIX, _PIECE_BYTES // (2 * rows * 8) // _RADIX * _RADIX)
    buffers = np.empty((2, rows * min(width, cols)), dtype=x.dtype)
    for lo in range(0, cols, width):
        slab = y[:, lo : lo + width]
        _transform(slab, *(b[: slab.size].reshape(slab.shape) for b in buffers), blocks)
    return x


def _transform(a, work, spare, blocks):
    """Transform the 2-D array ``a`` along axis 0 in place.

    The first stage reads ``a``; the stages write alternately to ``spare``
    and ``work``, C-contiguous buffers of a's shape, and ``work`` may be
    ``a`` itself.  A strided ``a`` is so read once and written once.
    """
    n, m = a.shape
    src, dst = a, spare
    h = 1
    while h < n:
        r = min(_RADIX, n // h)
        shape = (n // (r * h), r, h * m)
        np.matmul(blocks[r], src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, (work if dst is spare else spare)
        h *= r
    if src is not a:
        a[...] = src


def fwht(x) -> np.ndarray:
    """Orthogonal Walsh-Hadamard transform of a copy of ``x`` along axis 0,
    in float64.  A complex ``x`` is a TypeError."""
    y = np.array(_real_float64(x), order="C")
    return fwht_inplace(y)


def _real_float64(a) -> np.ndarray:
    """``a`` as a float64 array, not copied when it is one.  A complex input
    is a TypeError, refused before the cast would drop its imaginary part
    with only a warning."""
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise TypeError(f"expected real input, got dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def hadamard_entry(i: int, j: int, n: int) -> float:
    """Entry (i, j) of the orthogonal n x n Walsh-Hadamard matrix.

    Sylvester ordering: n**-0.5 * (-1)**popcount(i & j).  Every entry has
    magnitude exactly n**-0.5.  A non-integer or bool index is a TypeError.
    """
    n = hadamard_size(n)
    i, j = _integers(i=i, j=j)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"indices ({i}, {j}) out of range for n={n}")
    sign = -1.0 if (i & j).bit_count() & 1 else 1.0
    return sign * n ** -0.5


def hadamard_matrix(n: int, rows=None) -> np.ndarray:
    """Dense orthogonal Walsh-Hadamard matrix (or a subset of its rows).

    Entries follow the same closed form as ``hadamard_entry``; the parity of
    popcount(i & j) is computed with a vectorized xor-fold so assembling
    n = 4096 stays cheap.  ``rows`` must be a 1-D array of integers in
    [0, n): another shape is a ValueError, a row out of range an IndexError
    and a non-integer row a TypeError.
    """
    n = hadamard_size(n)
    cols = np.arange(n, dtype=np.uint64)
    if rows is None:
        rows = cols
    else:
        rows = np.asarray(rows)
        if rows.ndim != 1:
            raise ValueError(f"rows must be a 1-D array of row indices, got shape {rows.shape}")
        if rows.size and rows.dtype.kind not in "iu":
            raise TypeError(f"rows must be integers, got dtype {rows.dtype}")
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise IndexError(f"rows out of range for n={n}")
        rows = rows.astype(np.uint64)
    m = np.bitwise_and.outer(rows, cols)
    for shift in (32, 16, 8, 4, 2, 1):
        m ^= m >> np.uint64(shift)
    parity = (m & np.uint64(1)).astype(bool)
    return np.where(parity, -1.0, 1.0) * n ** -0.5


_RADIX = 16
# Arrays above this many bytes are transformed in pieces of about this size.
_PIECE_BYTES = 512 * 1024
# Dense orthonormal blocks H_2 .. H_16 per accepted dtype, built once:
# rebuilding H_16 on every call costs more than a whole small transform.
_BLOCKS = {
    np.dtype(dtype): {r: hadamard_matrix(r).astype(dtype) for r in (2, 4, 8, _RADIX)}
    for dtype in (np.float64, np.float32)
}
for _block in (b for blocks in _BLOCKS.values() for b in blocks.values()):
    _block.setflags(write=False)
del _block
