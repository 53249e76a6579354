"""Orthogonal Walsh-Hadamard transform in Sylvester (natural) ordering.

The fast path is radix-16, O(n log n).  By the Sylvester identity
H_ab = H_a (x) H_b, the transform of n = 2**p points factors into one stage
per group of four index bits, and each stage is a single BLAS matmul of the
dense orthonormal 16 x 16 block against a strided view of the data (leftover
bits use the 2, 4 or 8 block).  Stages alternate between the input and one
scratch buffer of the same size.  Every block is already orthonormal, so no
final n**-0.5 scaling pass is needed.  ``hadamard_entry`` gives the
closed-form matrix entry n**-0.5 * (-1)**popcount(i & j), which serves as the
slow testing oracle.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HadamardDim",
    "fwht",
    "fwht_inplace",
    "hadamard_entry",
    "hadamard_matrix",
    "is_power_of_two",
]


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HadamardDim:
    """A valid transform size n = 2**p."""

    n: int
    p: int

    def __post_init__(self):
        if not is_power_of_two(self.n) or self.n != 1 << self.p:
            raise ValueError(f"invalid Hadamard dimension n={self.n}, p={self.p}")

    @classmethod
    def of_size(cls, n: int) -> "HadamardDim":
        if not isinstance(n, (int, np.integer)) or not is_power_of_two(n):
            raise ValueError(f"n must be a positive power of two, got {n!r}")
        return cls(int(n), int(n).bit_length() - 1)


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """Apply the orthogonal Walsh-Hadamard transform along axis 0, in place.

    ``x`` must be a C-contiguous float64 array whose leading dimension is a
    power of two.  Higher-dimensional inputs are transformed column-wise.
    Returns ``x`` for convenience.
    """
    if not isinstance(x, np.ndarray) or x.dtype != np.float64:
        raise ValueError("fwht_inplace requires a float64 ndarray")
    if x.ndim == 0:
        raise ValueError("fwht_inplace requires at least one dimension")
    if not x.flags.c_contiguous:
        raise ValueError("fwht_inplace requires a C-contiguous array (use fwht for copies)")
    n = x.shape[0]
    if not is_power_of_two(n):
        raise ValueError(f"leading dimension must be a power of two, got {n}")
    m = x.size // n
    src, dst = x, np.empty_like(x)
    h = 1
    while h < n:
        r = min(_RADIX, n // h)
        shape = (n // (r * h), r, h * m)
        np.matmul(_BLOCKS[r], src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
        h *= r
    if src is not x:
        x[...] = src
    return x


def fwht(x) -> np.ndarray:
    """Orthogonal Walsh-Hadamard transform of a copy of ``x`` along axis 0."""
    y = np.array(x, dtype=np.float64, order="C")
    return fwht_inplace(y)


def hadamard_entry(i: int, j: int, n: int) -> float:
    """Entry (i, j) of the orthogonal n x n Walsh-Hadamard matrix.

    Sylvester ordering: n**-0.5 * (-1)**popcount(i & j).  Every entry has
    magnitude exactly n**-0.5.
    """
    dim = HadamardDim.of_size(n)
    if not (0 <= i < dim.n and 0 <= j < dim.n):
        raise IndexError(f"indices ({i}, {j}) out of range for n={dim.n}")
    sign = -1.0 if (int(i) & int(j)).bit_count() & 1 else 1.0
    return sign * dim.n ** -0.5


def hadamard_matrix(n: int, rows=None) -> np.ndarray:
    """Dense orthogonal Walsh-Hadamard matrix (or a subset of its rows).

    Entries follow the same closed form as ``hadamard_entry``; the parity of
    popcount(i & j) is computed with a vectorized xor-fold so assembling
    n = 4096 stays cheap.
    """
    dim = HadamardDim.of_size(n)
    cols = np.arange(dim.n, dtype=np.uint64)
    if rows is None:
        rows = cols
    else:
        rows = np.asarray(rows, dtype=np.uint64)
    m = np.bitwise_and.outer(rows, cols)
    for shift in (32, 16, 8, 4, 2, 1):
        m ^= m >> np.uint64(shift)
    parity = (m & np.uint64(1)).astype(bool)
    return np.where(parity, -1.0, 1.0) * dim.n ** -0.5


_RADIX = 16
# Dense orthonormal blocks H_2 .. H_16, built once: rebuilding H_16 on every
# call costs more than a whole small transform.
_BLOCKS = {r: hadamard_matrix(r) for r in (2, 4, 8, _RADIX)}
for _block in _BLOCKS.values():
    _block.setflags(write=False)
del _block
