"""Construction and application of the subsampled randomized Hadamard map.

The operator is sqrt(n/ell) * R H D: a Rademacher sign diagonal D, the
orthogonal Walsh-Hadamard matrix H, and a restriction R to ell coordinates
drawn uniformly without replacement.  It is kept implicit (sign vector +
sorted index set); ``materialize`` builds the dense ell x n matrix as a
testing oracle.

Randomness is PCG64 seeded through ``numpy.random.SeedSequence``.  A seed may
be a single integer or a tuple of integers; experiment code derives per-trial
substreams as (master_seed, domain, stream, trial) tuples so serial and
parallel runs agree bit for bit.  Within one draw the generator is consumed
in a fixed call layout (the sign block first, then the sampling offsets), so
the operator is a stable function of the seed.
"""

import json
from dataclasses import dataclass

import numpy as np

from .wht import HadamardDim, fwht_inplace, hadamard_matrix

__all__ = [
    "SrhtOperator",
    "apply_to_matrix",
    "apply_to_vector",
    "derived_rng",
    "draw_srht",
    "from_json",
    "materialize",
    "sample_without_replacement",
    "to_json",
]

MATERIALIZE_CAP = 4096


def derived_rng(seed, *path) -> np.random.Generator:
    """Deterministic generator for ``(seed, *path)``.

    ``seed`` is an int or tuple of ints; ``path`` extends it.  The mixing is
    numpy's SeedSequence hash of the combined entropy tuple.
    """
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    return np.random.default_rng(np.random.SeedSequence(entropy + tuple(int(p) for p in path)))


def sample_without_replacement(n: int, ell: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform ell-subset of {0, ..., n-1}, returned sorted ascending.

    Partial Fisher-Yates shuffle of an index array: step i swaps position i
    with a uniform position in [i, n).  All ell offsets come from a single
    bounded-integer draw, keeping the call layout fixed.
    """
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    idx = np.arange(n, dtype=np.int64)
    offsets = rng.integers(0, n - np.arange(ell))
    for i, off in enumerate(offsets):
        j = i + off
        idx[i], idx[j] = idx[j], idx[i]
    out = np.sort(idx[:ell])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SrhtOperator:
    """Implicit sketching operator sqrt(n/ell) * R H D.

    ``signs`` is the +-1 diagonal of D, ``indices`` the sorted sample set
    defining R.  ``seed`` records how the operator was drawn (None for
    hand-built operators); it is what compact serialization stores.
    """

    dim: HadamardDim
    signs: np.ndarray
    indices: np.ndarray
    seed: object = None

    def __post_init__(self):
        signs = np.ascontiguousarray(self.signs, dtype=np.float64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        n = self.dim.n
        if signs.shape != (n,):
            raise ValueError(f"sign vector must have shape ({n},), got {signs.shape}")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("sign entries must be exactly +1 or -1")
        if indices.ndim != 1 or not 1 <= indices.size <= n:
            raise ValueError(f"need 1 <= ell <= n sample indices, got {indices.size}")
        if np.any(indices < 0) or np.any(indices >= n) or np.any(np.diff(indices) <= 0):
            raise ValueError("sample indices must be strictly increasing in [0, n)")
        signs.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "indices", indices)

    @property
    def n(self) -> int:
        return self.dim.n

    @property
    def ell(self) -> int:
        return int(self.indices.size)

    @property
    def scale(self) -> float:
        return (self.n / self.ell) ** 0.5


def draw_srht(n: int, ell: int, seed) -> SrhtOperator:
    """Draw an SRHT operator: fresh signs, then a uniform ell-subset.

    Identical (n, ell, seed) yield a bit-identical operator.
    """
    dim = HadamardDim.of_size(n)
    if not 1 <= ell <= n:
        raise ValueError(f"need 1 <= ell <= n, got ell={ell}, n={n}")
    rng = derived_rng(seed)
    signs = 2.0 * rng.integers(0, 2, size=n).astype(np.float64) - 1.0
    indices = sample_without_replacement(n, ell, rng)
    stored = tuple(int(s) for s in seed) if isinstance(seed, (tuple, list)) else int(seed)
    return SrhtOperator(dim=dim, signs=signs, indices=indices, seed=stored)


def apply_to_vector(op: SrhtOperator, x) -> np.ndarray:
    """sqrt(n/ell) * R H D x in O(n log n): signwise multiply, fast transform,
    gather at the sample indices.  Rejects NaN and infinite entries."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.n,):
        raise ValueError(f"vector must have shape ({op.n},), got {x.shape}")
    return _sketch(op, op.signs * x)


def apply_to_matrix(op: SrhtOperator, v) -> np.ndarray:
    """Column-wise application: returns the ell x k sketch of an n x k matrix.
    Rejects NaN and infinite entries."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] != op.n:
        raise ValueError(f"matrix must have {op.n} rows, got shape {v.shape}")
    return _sketch(op, op.signs[:, None] * v)


def _sketch(op: SrhtOperator, y: np.ndarray) -> np.ndarray:
    """Transform the sign-flipped ``y`` in place and gather the scaled rows.

    Finiteness is checked on the ell sampled rows, not on the n input rows:
    every output entry of a column is a sum of all that column's inputs with
    nonzero weights +-n**-0.5, so a NaN or inf anywhere in a column makes
    every output entry of that column non-finite.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        fwht_inplace(y)
        out = op.scale * y[op.indices]
    if not np.isfinite(out).all():
        raise ValueError("input has non-finite entries (or its sketch overflows)")
    return out


def materialize(op: SrhtOperator, cap: int = MATERIALIZE_CAP) -> np.ndarray:
    """Dense ell x n form of the operator (testing oracle).

    Entry (i, j) = sqrt(n/ell) * H[indices[i], j] * signs[j].  Refuses n
    beyond ``cap`` to bound memory.
    """
    if op.n > cap:
        raise ValueError(f"materialize capped at n={cap}, got n={op.n}")
    rows = hadamard_matrix(op.n, rows=op.indices)
    return op.scale * rows * op.signs[None, :]


def to_json(op: SrhtOperator, include_arrays: bool = False) -> str:
    """Serialize to the record {n, l, seed, signs?, indices?}.

    With ``include_arrays=False`` only the seed is stored and the operator is
    redrawn on load; that requires the operator to have been drawn from a
    seed.
    """
    record = {"n": op.n, "l": op.ell, "seed": op.seed}
    if include_arrays:
        record["signs"] = [int(s) for s in op.signs]
        record["indices"] = [int(i) for i in op.indices]
    elif op.seed is None:
        raise ValueError("operator has no seed; serialize with include_arrays=True")
    return json.dumps(record, sort_keys=True)


def from_json(text: str) -> SrhtOperator:
    """Rebuild an operator serialized by ``to_json``."""
    record = json.loads(text)
    n, ell = int(record["n"]), int(record["l"])
    seed = record.get("seed")
    if "signs" in record and "indices" in record:
        seed = tuple(seed) if isinstance(seed, list) else seed
        return SrhtOperator(
            dim=HadamardDim.of_size(n),
            signs=np.asarray(record["signs"], dtype=np.float64),
            indices=np.asarray(record["indices"], dtype=np.int64),
            seed=seed,
        )
    if seed is None:
        raise ValueError("record has neither arrays nor a seed")
    op = draw_srht(n, ell, tuple(seed) if isinstance(seed, list) else seed)
    return op
