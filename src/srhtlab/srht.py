"""Construction and application of the subsampled randomized Hadamard map.

The operator is sqrt(n/ell) * R H D: a Rademacher sign diagonal D, the
orthogonal Walsh-Hadamard matrix H, and a restriction R to ell coordinates
drawn uniformly without replacement.  It is kept implicit (sign vector +
sorted index set); ``materialize`` builds the dense ell x n matrix as a
testing oracle.  ``sketch_stack`` applies a stack of B operators, given as
B x n signs and B x ell indices, to one input (a vector or a matrix) in a
single transform of an n x B x k array; ``apply_to_matrix`` is its B = 1
case for an operator.  ``_operator_stack`` holds the operator rules, and
both ``SrhtOperator`` and ``sketch_stack`` go through it.  The ell-subset
comes from a partial Fisher-Yates shuffle, ``_fisher_yates``, that keeps
only the positions it has touched, so a draw costs O(ell), not O(n);
``sample_without_replacement`` and the operator draws share it.

``draw_stack`` draws a block of B operators, one per seed, as the B x n
signs and B x ell indices ``sketch_stack`` takes.  Per seed it makes only
the generator calls; the sign arithmetic (2 * bit - 1) and the sort of the
sampled indices run once per block.  ``draw_srht`` is its one-seed case, so
an operator is the same bit for bit whatever block it is drawn in.

Randomness is PCG64 seeded through ``numpy.random.SeedSequence``.  A seed may
be a single integer or a tuple of integers; experiment code derives per-trial
substreams as (master_seed, domain, stream, trial) tuples so serial and
parallel runs agree bit for bit.  Within one draw the generator is consumed
in a fixed call layout (the sign block first, then the sampling offsets), so
the operator is a stable function of the seed.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .wht import fwht_inplace, hadamard_matrix, hadamard_size

__all__ = [
    "SrhtOperator",
    "apply_to_matrix",
    "derived_rng",
    "draw_srht",
    "draw_stack",
    "materialize",
    "rademacher_signs",
    "sample_without_replacement",
    "sketch_stack",
]

MATERIALIZE_CAP = 4096


def derived_rng(seed, *path) -> np.random.Generator:
    """Deterministic generator for ``(seed, *path)``.

    ``seed`` is an int or tuple of ints; ``path`` extends it.  The mixing is
    numpy's SeedSequence hash of the combined entropy tuple.  An entry that
    is not an integer (a float, even 1.0) is a TypeError, not truncated.
    """
    entropy = (*seed, *path) if isinstance(seed, (tuple, list)) else (seed, *path)
    return np.random.default_rng(np.random.SeedSequence(tuple(map(operator.index, entropy))))


def rademacher_signs(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent +-1.0 entries, one bounded-integer draw from ``rng``."""
    return 2.0 * rng.integers(0, 2, size=n).astype(np.float64) - 1.0


def sample_without_replacement(n: int, ell: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform ell-subset of {0, ..., n-1}, returned sorted ascending.

    All ell offsets come from a single bounded-integer draw, keeping the call
    layout fixed; ``_fisher_yates`` turns them into the subset.
    """
    n, ell = _sample_size(n, ell)
    out = np.array(_fisher_yates(rng.integers(0, n - np.arange(ell))), dtype=np.int64)
    out.sort()
    out.setflags(write=False)
    return out


def _sample_size(n, ell) -> tuple:
    """(n, ell) as ints with 1 <= ell <= n; a non-integer is a TypeError."""
    n, ell = operator.index(n), operator.index(ell)
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    return n, ell


def _fisher_yates(offsets) -> list:
    """The positions a partial Fisher-Yates shuffle picks, unsorted.

    Step i swaps position i with position i + offsets[i], a uniform position
    in [i, n), and picks what lands at i.  Only the positions a swap has
    touched are stored, in a dict, so a draw costs O(ell) rather than O(n).
    """
    moved = {}  # position -> the index a swap left there
    picked = []
    for i, off in enumerate(offsets.tolist()):
        j = i + off
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return picked


@dataclass(frozen=True)
class SrhtOperator:
    """Implicit sketching operator sqrt(n/ell) * R H D.

    ``signs`` is the +-1 diagonal of D, ``indices`` the sorted sample set
    defining R; n is the length of ``signs``.  Both are copied and frozen.
    ``seed`` records how the operator was drawn (None for hand-built
    operators).
    """

    signs: np.ndarray
    indices: np.ndarray
    seed: object = None

    def __post_init__(self):
        signs, indices = _operator_stack([self.signs], [self.indices])
        for name, value in (("signs", signs[0]), ("indices", indices[0])):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return int(self.signs.size)

    @property
    def ell(self) -> int:
        return int(self.indices.size)

    @property
    def scale(self) -> float:
        return (self.n / self.ell) ** 0.5


def draw_stack(n: int, ell: int, seeds) -> tuple:
    """B x n signs and B x ell sorted indices of one operator per seed.

    Row b is the draw of ``seeds[b]``, bit for bit the operator
    ``draw_srht`` draws from that seed alone.  Per seed the only calls are the
    generator's, in a fixed layout: ``derived_rng(seed)``, then n sign bits,
    then the ell sampling offsets in one bounded-integer draw; the shuffle
    writes that seed's picks into row b.  The signs 2 * bit - 1 and the sort
    of every row are computed once for the block.
    """
    n, ell = _sample_size(n, ell)
    seeds = list(seeds)
    bits = np.empty((len(seeds), n), dtype=np.int64)
    indices = np.empty((len(seeds), ell), dtype=np.int64)
    highs = n - np.arange(ell)
    for b, seed in enumerate(seeds):
        rng = derived_rng(seed)
        bits[b] = rng.integers(0, 2, size=n)
        indices[b] = _fisher_yates(rng.integers(0, highs))
    indices.sort(axis=1)
    return 2.0 * bits - 1.0, indices


def draw_srht(n: int, ell: int, seed) -> SrhtOperator:
    """Draw an SRHT operator: fresh signs, then a uniform ell-subset.

    Identical (n, ell, seed) yield a bit-identical operator: the one-seed
    case of ``draw_stack``.
    """
    hadamard_size(n)
    signs, indices = draw_stack(n, ell, [seed])
    stored = tuple(int(s) for s in seed) if isinstance(seed, (tuple, list)) else int(seed)
    return SrhtOperator(signs=signs[0], indices=indices[0], seed=stored)


def apply_to_matrix(op: SrhtOperator, v) -> np.ndarray:
    """Column-wise application: returns the ell x k sketch of an n x k matrix.
    Rejects NaN and infinite entries."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != op.n:
        raise ValueError(f"matrix must have {op.n} rows, got shape {v.shape}")
    return sketch_stack(op.signs[None, :], op.indices[None, :], v)[0]


def sketch_stack(signs, indices, v) -> np.ndarray:
    """Sketches of one input under a stack of B operators, in one transform.

    Operator b is row b of ``signs`` (B x n) and of ``indices`` (B x ell),
    under ``SrhtOperator``'s rules, which are checked for the whole stack at
    once.  ``v`` is an n-vector or an n x k matrix; the result is B x ell or
    B x ell x k.  The B sign-flipped copies of ``v`` go through one
    ``fwht_inplace`` of an n x B x k array; each operator then gathers its
    rows and scales them by sqrt(n/ell).

    Finiteness is checked on the sampled rows, not on the n input rows:
    every output entry of a column is a sum of all that column's inputs with
    nonzero weights +-n**-0.5, so a NaN or inf anywhere in a column makes
    every output entry of that column non-finite.
    """
    signs, indices = _operator_stack(signs, indices)
    (stack, n), ell = signs.shape, indices.shape[1]
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError(f"input must be a vector or matrix with {n} rows, got shape {v.shape}")
    cols = v.shape[1] if v.ndim == 2 else 1
    y = np.multiply(signs.T[:, :, None], v.reshape(n, 1, cols), order="C")
    with np.errstate(invalid="ignore", over="ignore"):
        fwht_inplace(y)
        out = (n / ell) ** 0.5 * y[indices, np.arange(stack)[:, None]]
    if not np.isfinite(out).all():
        raise ValueError("input has non-finite entries (or its sketch overflows)")
    return out.reshape(stack, ell, *v.shape[1:])


def _operator_stack(signs, indices) -> tuple:
    """``signs`` and ``indices`` as float64 and int64 arrays, checked against
    ``SrhtOperator``'s rules for B operators at once: B x n signs exactly +-1
    with n a power of two, and B x ell integer indices, 1 <= ell <= n, each
    row strictly increasing in [0, n).  Indices of a non-integer dtype are a
    TypeError, not truncated."""
    indices = np.asarray(indices)
    if indices.size and indices.dtype.kind not in "iu":
        raise TypeError(f"sample indices must be integers, got dtype {indices.dtype}")
    signs = np.asarray(signs, dtype=np.float64)
    indices = indices.astype(np.int64, copy=False)
    if signs.ndim != 2 or indices.ndim != 2 or signs.shape[0] != indices.shape[0]:
        raise ValueError(
            f"need B x n signs and B x ell indices, got shapes {signs.shape} and {indices.shape}"
        )
    n, ell = signs.shape[1], indices.shape[1]
    hadamard_size(n)
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n sample indices, got {ell}")
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("sign entries must be exactly +1 or -1")
    if (
        np.any(indices[:, 0] < 0)
        or np.any(indices[:, -1] >= n)
        or np.any(np.diff(indices, axis=1) <= 0)
    ):
        raise ValueError("sample indices must be strictly increasing in [0, n)")
    return signs, indices


def materialize(op: SrhtOperator) -> np.ndarray:
    """Dense ell x n form of the operator (testing oracle).

    Entry (i, j) = sqrt(n/ell) * H[indices[i], j] * signs[j].  Refuses n
    beyond ``MATERIALIZE_CAP`` to bound memory.
    """
    if op.n > MATERIALIZE_CAP:
        raise ValueError(f"materialize capped at n={MATERIALIZE_CAP}, got n={op.n}")
    rows = hadamard_matrix(op.n, rows=op.indices)
    return op.scale * rows * op.signs[None, :]

