"""Construction and application of the subsampled randomized Hadamard map.

The operator is sqrt(n/ell) * R H D: a Rademacher sign diagonal D, the
orthogonal Walsh-Hadamard matrix H, and a restriction R to ell coordinates
drawn uniformly without replacement.  It is kept implicit, and a stack of B
operators has one representation: B x n signs and B x ell sorted indices.
``draw_stack`` draws one operator per seed in that form, read-only;
``sketch_stack`` applies such a stack to one input (a vector or a matrix)
in a single transform of an n x B x k array.  One operator is the B = 1
stack: ``draw_srht`` draws it and ``apply_to_matrix`` applies it, and
``materialize`` builds its dense ell x n matrix as a testing oracle.  The
sign flip and the transform follow the input's dtype: float32 for a
float32 input, float64 for any other.  The gather, the sqrt(n/ell) scaling
and the result are float64 either way.  ``_operator_stack`` holds the
operator rules, and every function that takes an operator goes through
it.  The ell-subset comes from a partial Fisher-Yates shuffle, which
``sample_without_replacement`` and the operator draws share through
``_subsets``.  It takes one of two paths by a size rule, with the same
picks: with n <= 8 ell a block shuffles every row at once, one vectorized
swap per pick over a B x n position array; with n > 8 ell it goes a row at
a time through ``_fisher_yates``, which keeps only the positions it has
touched, in a dict, so a large-n draw costs O(ell), not O(n).  Row b of a
block depends on ``seeds[b]`` alone, so an operator is the same bit for
bit whatever block it is drawn in.

Randomness.  A seed is an integer or a tuple of non-negative integers;
experiment code derives per-trial substreams as (master_seed, domain,
stream, trial) tuples, so serial and parallel runs agree bit for bit.
Every operator draw (``draw_stack``, ``rademacher_signs`` and
``sample_without_replacement``) goes through one sampler,
``draw_integers``, which uses no numpy
``Generator`` method.  It rests on three published rules: the
``SeedSequence`` hash and the PCG64 seeding rule, both covered by numpy's
stream-stability policy (NEP 19); the PCG64 raw words, each read as its low
32-bit half and then its high half; and numpy's Lemire rule for a bounded
integer for ranges up to 2**32, which the module restates.  A block's
seeds are hashed to their PCG64 states by one of two paths, with the same
states; one ``PCG64`` is then set to each row's state and its raw words
read with ``random_raw``.  A block of two or more runner keys, (seed,
domain, stream, trial) tuples of plain ints with the master seed in
[0, 2**63) and the rest below 2**32, is hashed in one vectorised pass over
uint32 lanes that restates ``SeedSequence``'s hash, if its master seeds all
take one 32-bit word or all take two.  Any other block, a one-seed block
included, is hashed a seed at a time by numpy's ``SeedSequence`` itself,
and a bad seed is refused there.
Row b is, bit for bit, the draw that ``Generator.integers`` calls would
make from ``derived_rng(seeds[b])``: n sign draws of range 2, then the ell
sampling offsets of ranges n, n-1, ..., n-ell+1.  The fixture draws
(Gaussian matrices), whose bits depend on the numpy version, still come
from ``Generator.standard_normal``, through one sampler,
``standard_normals``: it hashes a block of seeds the same way, sets one
``PCG64`` to each state and draws through one ``Generator`` on it.  No
other module names ``numpy.random``.  ``derived_rng`` makes a
``Generator`` for one seed; the program draws nothing through it, and the
tests keep it as the oracle of every stream.
"""

import itertools
import operator

import numpy as np

from .bounds import _integers, _sample_size
from .wht import _real_float64, fwht_inplace, hadamard_matrix, hadamard_size

__all__ = [
    "apply_to_matrix",
    "derived_rng",
    "draw_integers",
    "draw_srht",
    "draw_stack",
    "materialize",
    "rademacher_signs",
    "sample_without_replacement",
    "sketch_stack",
    "standard_normals",
]

MATERIALIZE_CAP = 4096


def derived_rng(seed, *path) -> "np.random.Generator":
    """Deterministic generator for ``(seed, *path)``: the oracle of every
    stream the samplers draw from.

    ``seed`` is an int or tuple of ints; ``path`` extends it.  The mixing is
    numpy's SeedSequence hash of the combined entropy tuple.  An entry that
    is not an integer (a float, even 1.0) is a TypeError, not truncated; a
    negative one is a ValueError.
    """
    entropy = (*seed, *path) if isinstance(seed, (tuple, list)) else (seed, *path)
    return np.random.default_rng(np.random.SeedSequence(_entropy(entropy)))


def _entropy(seed) -> tuple:
    """``seed``, an int or a tuple or list of ints, as a tuple of non-negative
    Python ints: a non-integer entry is a TypeError, a negative one a
    ValueError, as in ``SeedSequence``.  A bool entry is a TypeError too,
    checked before ``operator.index`` would take it as 0 or 1."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    if bool in map(type, entries):
        raise TypeError(f"seed entries must be integers, not bools, got {seed!r}")
    entropy = tuple(map(operator.index, entries))
    if entropy and min(entropy) < 0:
        raise ValueError(f"seed entries must be non-negative, got {seed!r}")
    return entropy


# SeedSequence's hash (NEP 19): each hashmix call c xors a 32-bit value with
# _HASH_A[c], multiplies it by _HASH_A[c + 1] and folds its top half down;
# generate_state's word j does the same with _HASH_B[j] and _HASH_B[j + 1].
# A pool of four words takes 16 calls, and a fifth entropy word (the high
# word of a two-word master seed) four more.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL = 4


def _hash_constants(init, mult, count) -> np.ndarray:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * (_POOL + 1) + 1)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL + 1)
_MIX_L, _MIX_R, _FOLD = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
# The pool-mixing pass: step s mixes lane s into each other lane d, in
# increasing d, by hashmix call 4 + 3 s + (d's rank among the other lanes).
# Lane s itself gets a dummy call 0 and is restored after the step.
_MIX_CALLS = np.array(
    [[0 if d == s else 4 + 3 * s + d - (d > s) for d in range(_POOL)] for s in range(_POOL)]
)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value, xor, mul):
    value = value ^ xor
    value *= mul
    value ^= value >> _FOLD
    return value


def _mix(pool, value):
    """SeedSequence's mix(x, y) = L x - R y, folded, of every pool lane x."""
    pool *= _MIX_L
    pool -= _MIX_R * value
    pool ^= pool >> _FOLD
    return pool


def _seed_states(seeds) -> np.ndarray:
    """4 x B uint64: column b is
    ``SeedSequence(_entropy(seeds[b])).generate_state(4, np.uint64)``.

    A block of runner keys, as ``_word_block`` takes them, is hashed in one
    pass over its four or five words, a uint32 lane per seed.  Any other
    block, a one-seed block included, goes to numpy's ``SeedSequence`` a
    seed at a time, after ``_entropy``'s refusals.  On a 2-core Xeon VM
    (medians of 15 in-process runs) a one-seed block took 25-27 us that way,
    where the array pass took 118-132 us at two to eight keys and 230-250 us
    at 192, with one-word or two-word master seeds alike: per seed, the
    array pass wins from about five keys.  A runner's blocks are hundreds
    of keys but for the tail of a run.
    """
    seeds = list(seeds)  # read twice below, so a generator of seeds works
    words = _word_block(seeds)
    if words is None:
        states = [np.random.SeedSequence(_entropy(seed)).generate_state(4, np.uint64)
                  for seed in seeds]
        return np.array(states, dtype=np.uint64).reshape(-1, 4).T
    pool = _hashmix(words[:_POOL], _HASH_A[:_POOL], _HASH_A[1 : _POOL + 1])
    for s, calls in enumerate(_MIX_CALLS):
        lane = pool[s].copy()
        pool = _mix(pool, _hashmix(lane, _HASH_A[calls], _HASH_A[calls + 1]))
        pool[s] = lane
    if len(words) > _POOL:  # hashmix calls 16-19 mix the fifth word in
        pool = _mix(pool, _hashmix(words[_POOL], _HASH_A[16:20], _HASH_A[17:21]))
    lanes = np.arange(2 * _POOL) % _POOL
    state = _hashmix(pool[lanes], _HASH_B[:-1], _HASH_B[1:]).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)


def _word_block(seeds):
    """4 x B or 5 x B uint32 entropy words of a block of runner keys, or None.

    A block of runner keys is two or more 4-tuples (master_seed, domain,
    stream, trial) of plain ints, the last three below 2**32, whose master
    seeds are all below 2**32 (one word each) or all in [2**32, 2**63) (two
    words each).  None for any other block: a one-seed block, plain ints,
    a list, bool or numpy entry, another length, a wide entry past the
    master seed, master seeds of mixed widths, or a negative entry.
    """
    if len(seeds) < 2 or set(map(type, seeds)) != {tuple} or set(map(len, seeds)) != {4}:
        return None
    entries = list(itertools.chain.from_iterable(seeds))
    # type(True) is bool, not int, so a bool takes the per-seed refusal
    if set(map(type, entries)) != {int}:
        return None
    try:
        keys = np.array(entries, dtype="<i8").reshape(-1, 4)
    except OverflowError:  # an entry at or past 2**63
        return None
    if keys.min() < 0 or keys[:, 1:].max() > _MASK32:
        return None
    wide = keys[:, 0] > _MASK32
    if (wide != wide[0]).any():
        return None
    # each entry's low half, and a two-word master seed's high half after
    # its low one, as SeedSequence splits it
    return keys.view("<u4").T[[0, 1, 2, 4, 6] if wide[0] else [0, 2, 4, 6]]


def _pcg64_states(seeds) -> list:
    """``PCG64(SeedSequence(_entropy(seed))).state``'s (state, inc) per seed:
    from the generated words (s0, s1, i0, i1), inc = 2 (i0 i1) + 1 and state
    = ((s0 s1) + inc) * multiplier + inc, modulo 2**128."""
    states = []
    for s0, s1, i0, i1 in _seed_states(seeds).T.tolist():
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        states.append(((((s0 << 64 | s1) + inc) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _seek(bitgen, state):
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state[0], "inc": state[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }


def standard_normals(seeds, out):
    """Yield ``out`` once per seed, filled with ``seeds[b]``'s fixture normals.

    The float64 array ``out`` holds, bit for bit, what
    ``derived_rng(seeds[b]).standard_normal(out.shape)`` would draw.  The
    block's states come from one ``_pcg64_states`` call; one ``PCG64`` is
    set to each in turn and drawn through one ``Generator``, so no
    generator is built per seed.  Each yield writes over the last.
    """
    normals = np.random.Generator(np.random.PCG64(0))
    for state in _pcg64_states(seeds):
        _seek(normals.bit_generator, state)
        yield normals.standard_normal(out=out)


def draw_integers(seeds, highs) -> np.ndarray:
    """B x m int64 array: entry (b, j) uniform on [0, highs[j]), every highs[j]
    an integer in [1, 2**32], drawn from the PCG64 stream of ``seeds[b]``.

    Row b is, bit for bit, what ``Generator.integers(0, highs[j])`` calls in
    column order would draw from ``derived_rng(seeds[b])``, but no Generator
    is made: the row's seeded state comes from ``_pcg64_states`` and its raw
    words from one reused ``PCG64``.  Each word is read as its low 32-bit
    half, then its high half, and each range r >= 2 takes one half by
    numpy's Lemire rule: u * r >> 32, redrawn while the low 32 bits of u * r
    fall under (2**32 - r) % r.  A range of 1 takes no word.  A row that
    rejects a draw is redrawn word by word by ``_lemire_row``; a
    rejection's odds are below r / 2**32 per draw.  The operator draws'
    ranges are 2 and n down to n - ell + 1, far below 2**32.
    """
    highs = np.asarray(highs).reshape(-1)
    if highs.size and (highs.dtype.kind not in "iu" or highs.min() < 1 or highs.max() > 1 << 32):
        raise ValueError(f"every range must be an integer in [1, 2**32], got {highs}")
    highs = highs.astype(np.uint64, copy=False)
    states = _pcg64_states(seeds)
    bitgen = np.random.PCG64(0)
    out, slow = _lemire_block(bitgen, states, highs)
    for b in slow:
        out[b] = _lemire_row(bitgen, states[b], highs.tolist())
    return out


def _lemire_block(bitgen, states, highs) -> tuple:
    """``draw_integers``, every row at once on the assumption that no draw
    is rejected: the draws, and the rows where a draw is rejected after
    all."""
    drawn = None if highs.min(initial=2) > 1 else np.flatnonzero(highs > 1)
    ranges = highs if drawn is None else highs[drawn]
    words = -(-ranges.size // 2)
    raw = np.empty((len(states), words), dtype="<u8")
    for b, state in enumerate(states):
        _seek(bitgen, state)
        raw[b] = bitgen.random_raw(words)
    # little-endian words viewed as little-endian halves: low half first on
    # any machine
    halves = raw.view("<u4")[:, : ranges.size]
    scaled = halves.astype(np.uint64)
    scaled *= ranges
    # the low 32 bits of u * r, written over u
    np.multiply(halves, ranges, out=halves, casting="unsafe")
    slow = ()
    # as in numpy, the threshold is computed only where they fall under r
    maybe = halves < ranges
    if maybe.any():
        rows, cols = np.nonzero(maybe)
        low, r = halves[rows, cols].astype(np.uint64), ranges[cols]
        slow = np.unique(rows[low < (np.uint64(1 << 32) - r) % r])
    scaled >>= np.uint64(32)
    if drawn is None:
        return scaled.view(np.int64), slow
    out = np.zeros((len(states), highs.size), dtype=np.int64)
    out[:, drawn] = scaled
    return out, slow


def _lemire_row(bitgen, state, highs) -> list:
    """One row of ``draw_integers``, a draw at a time from ``state``, as
    numpy's 32-bit bounded-integer rule reads the stream: each range r >= 2
    takes a 32-bit half (low half first, the high half kept for the next
    draw), and a draw whose low 32 bits fall under (2**32 - r) % r is
    redrawn."""
    _seek(bitgen, state)
    half = None  # the unread high half of the last word split
    out = []
    for r in highs:
        value = 0
        while r > 1:
            if half is None:
                word = int(bitgen.random_raw())
                u, half = word & _MASK32, word >> 32
            else:
                u, half = half, None
            scaled = u * r
            value = scaled >> 32
            if scaled & _MASK32 >= ((1 << 32) - r) % r:
                break
        out.append(value)
    return out


def rademacher_signs(n: int, seeds) -> np.ndarray:
    """B x n independent +-1.0 entries, row b from the stream of
    ``seeds[b]``: n draws of range 2.  n must be an integer (see
    ``bounds._integers``) and at least 1."""
    (n,) = _integers(n=n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _signs(draw_integers(seeds, np.full(n, 2)))


def _signs(bits) -> np.ndarray:
    """2 * bits - 1 as float64, with one array made."""
    signs = bits.astype(np.float64)
    signs *= 2.0
    signs -= 1.0
    return signs


def sample_without_replacement(n: int, ell: int, seeds) -> np.ndarray:
    """B x ell read-only array: row b a uniform ell-subset of {0, ..., n-1}
    from the stream of ``seeds[b]``, sorted ascending.

    The ell offsets of a row, of ranges n, n-1, ..., n-ell+1, come from one
    ``draw_integers`` block; ``_subsets`` turns them into the subset.  So n
    is at most 2**32, the largest range ``draw_integers`` takes.
    """
    n, ell = _sample_size(n, ell)
    out = _subsets(draw_integers(seeds, n - np.arange(ell)), n, ell)
    out.setflags(write=False)
    return out


# The shuffle rule of ``_subsets``: the whole-block array shuffle where
# n <= _ARRAY_SHUFFLE_RATIO * ell, the dict past it.
_ARRAY_SHUFFLE_RATIO = 8


def _subsets(offsets, n, ell) -> np.ndarray:
    """B x ell int64: row b the positions a partial Fisher-Yates shuffle of
    range(n) picks with offsets row b, sorted.

    Two paths give the same picks.  With n <= 8 ell a block takes
    ``_array_shuffle``: every row's shuffle at once, one numpy step per
    pick.  With n > 8 ell it takes ``_fisher_yates`` a row at a time, an
    O(ell) dict per row, where the array shuffle would hold n positions per
    row for ell picks, as at n = 65536, ell = 2342.  A numpy step has a
    fixed cost, so the array shuffle loses on a block of few rows: measured
    on a 2-core Xeon at n / ell from 1 to 8, n from 64 to 4096, it took 4.9
    to 6.9 times the dict's time for one row, 1.1 to 1.7 times for 8 rows,
    0.57 to 0.91 for 16 and 0.11 to 0.26 for 192.  The rule counts no rows
    all the same: the runners draw their n <= 8 ell blocks by the hundred
    rows, and a block of few rows there is only the tail of a run or a
    single operator, where the difference is tens of microseconds.
    """
    if n <= _ARRAY_SHUFFLE_RATIO * ell:
        out = _array_shuffle(offsets, n, ell)
    else:
        out = np.array(list(map(_fisher_yates, offsets.tolist())), dtype=np.int64)
        out = out.reshape(len(offsets), ell)
    out.sort(axis=1)
    return out


def _array_shuffle(offsets, n, ell) -> np.ndarray:
    """B x ell int64: the positions a partial Fisher-Yates shuffle of range(n)
    picks with each row of ``offsets``, unsorted, all rows at once.

    The rows' positions are one flat B*n array of ``_position_dtype(n)``.
    Step i picks, in every row at once, what sits at i + offsets[:, i] and
    moves what sits at i there, through flat indices; position i is never
    read again, so it is not written back.
    """
    rows = len(offsets)
    positions = np.tile(np.arange(n, dtype=_position_dtype(n)), rows)
    at_i = positions.reshape(rows, n)
    # ell x B flat index of each step's swap target
    targets = offsets.T + np.arange(ell)[:, None]
    targets += np.arange(0, rows * n, n)
    picked = np.empty((rows, ell), dtype=np.int64)
    for i, target in enumerate(targets):
        picked[:, i] = positions[target]
        positions[target] = at_i[:, i]
    return picked


def _position_dtype(n) -> np.dtype:
    """The smallest unsigned integer dtype that holds every position of
    range(n): one byte a position up to n = 256."""
    return np.min_scalar_type(n - 1)


def _draw_bytes(n, ell):
    """Bytes per operator that the runners' draw budget counts for a
    ``draw_stack`` call: the n + ell int64 words and n float64 signs
    (16 n + 8 ell), and the array shuffle's n positions of
    ``_position_dtype(n)``.  It is that accounting, not the peak a draw
    holds, which is larger: the seed hash and the Lemire pass hold passing
    arrays of their own, and the shuffle its ell swap targets and ell picks
    per operator.  At n = 64, ell = 24 it counts 1280 bytes, and
    tracemalloc measured a 192-operator draw's peak at about 2210 bytes an
    operator, in the Lemire pass.  The dict shuffle makes no positions."""
    return 16 * n + 8 * ell + n * _position_dtype(n).itemsize


def _fisher_yates(offsets) -> list:
    """The positions a partial Fisher-Yates shuffle picks, unsorted.

    Step i swaps position i with position i + offsets[i], a uniform position
    in [i, n), and picks what lands at i.  Only the positions a swap has
    touched are stored, in a dict, so a draw costs O(ell) rather than O(n).
    """
    moved = {}  # position -> the index a swap left there
    picked = []
    for i, off in enumerate(offsets):
        j = i + off
        picked.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return picked


def draw_stack(n: int, ell: int, seeds) -> tuple:
    """One operator per seed: read-only B x n signs and B x ell sorted indices.

    Row b is the draw of ``seeds[b]``, bit for bit the operator that seed
    gives alone.  Each seed's stream gives, in one ``draw_integers`` block,
    n sign draws of range 2 and then the ell sampling offsets of ranges n,
    n-1, ..., n-ell+1; the shuffle turns the offsets into that seed's
    subset.  An n that is not a power of two is refused before any draw.
    """
    n, ell = _sample_size(hadamard_size(n), ell)
    drawn = draw_integers(seeds, _operator_ranges(n, ell))
    signs, indices = _signs(drawn[:, :n]), _subsets(drawn[:, n:], n, ell)
    signs.setflags(write=False)
    indices.setflags(write=False)
    return signs, indices


def _operator_ranges(n, ell) -> np.ndarray:
    """The ranges of one operator draw: n of 2, then n, n-1, ..., n-ell+1."""
    ranges = np.full(n + ell, 2, dtype=np.uint64)
    ranges[n:] = np.arange(n, n - ell, -1)
    return ranges


def draw_srht(n: int, ell: int, seed) -> tuple:
    """Draw one SRHT operator, the B = 1 stack ``draw_stack(n, ell, [seed])``:
    1 x n signs and 1 x ell sorted indices."""
    return draw_stack(n, ell, [seed])


def apply_to_matrix(op, v) -> np.ndarray:
    """Column-wise application of one operator, a (signs, indices) pair as
    ``draw_srht`` returns: the ell x k sketch of an n x k matrix, in
    float64.  Rejects NaN and infinite entries, and complex ones."""
    v = _real_float64(v)
    if v.ndim != 2:
        raise ValueError(f"need an n x k matrix, got shape {v.shape}")
    return sketch_stack(*_one_operator(op), v)[0]


def sketch_stack(signs, indices, v) -> np.ndarray:
    """Sketches of one input under a stack of B operators, in one transform.

    Operator b is row b of ``signs`` (B x n) and of ``indices`` (B x ell),
    as ``draw_stack`` returns them; ``_operator_stack``'s rules are checked
    for the whole stack at once.  ``v`` is an n-vector or an n x k matrix;
    the result is B x ell or B x ell x k.  The B sign-flipped copies of
    ``v`` go through one ``fwht_inplace`` of an n x B x k array; each
    operator then gathers its rows and scales them by sqrt(n/ell).

    The flip and the transform run in the dtype of ``v`` when it is float32,
    and in float64 for any other input.  The gathered rows are cast to
    float64 before the scaling, so the result is float64 either way.  A
    float32 transform puts each entry within about 1e-7 of its column's norm
    of the float64 one (times the scale); it is exact when every value is
    dyadic, as for columns of H at n a power of 16.  A complex ``v`` is a
    TypeError.

    Finiteness is checked on the sampled rows, not on the n input rows:
    every output entry of a column is a sum of all that column's inputs with
    nonzero weights +-n**-0.5, so a NaN or inf anywhere in a column makes
    every output entry of that column non-finite.  So does a float32
    transform that overflows float32 on finite input.
    """
    signs, indices = _operator_stack(signs, indices)
    (stack, n), ell = signs.shape, indices.shape[1]
    v = np.asarray(v)
    if v.dtype != np.float32:
        v = _real_float64(v)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError(f"input must be a vector or matrix with {n} rows, got shape {v.shape}")
    cols = v.shape[1] if v.ndim == 2 else 1
    # float64 signs would upcast a float32 flip; +-1 is exact in float32
    signs = signs.T.astype(v.dtype, copy=False)
    y = np.multiply(signs[:, :, None], v.reshape(n, 1, cols), order="C")
    with np.errstate(invalid="ignore", over="ignore"):
        fwht_inplace(y)
        out = y[indices, np.arange(stack)[:, None]].astype(np.float64, copy=False)
        out *= (n / ell) ** 0.5
    if not np.isfinite(out).all():
        raise ValueError("input has non-finite entries (or its sketch overflows)")
    return out.reshape(stack, ell, *v.shape[1:])


def _operator_stack(signs, indices) -> tuple:
    """``signs`` and ``indices`` as float64 and int64 arrays, checked against
    the operator rules for B operators at once: B x n signs exactly +-1
    with n a power of two, and B x ell integer indices, 1 <= ell <= n, each
    row strictly increasing in [0, n).  Indices of a non-integer dtype, and
    complex signs, are a TypeError, not truncated."""
    indices = np.asarray(indices)
    if indices.size and indices.dtype.kind not in "iu":
        raise TypeError(f"sample indices must be integers, got dtype {indices.dtype}")
    signs = _real_float64(signs)
    indices = indices.astype(np.int64, copy=False)
    if signs.ndim != 2 or indices.ndim != 2 or signs.shape[0] != indices.shape[0]:
        raise ValueError(
            f"need B x n signs and B x ell indices, got shapes {signs.shape} and {indices.shape}"
        )
    n, ell = _sample_size(hadamard_size(signs.shape[1]), indices.shape[1])
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("sign entries must be exactly +1 or -1")
    if (
        np.any(indices[:, 0] < 0)
        or np.any(indices[:, -1] >= n)
        or np.any(np.diff(indices, axis=1) <= 0)
    ):
        raise ValueError("sample indices must be strictly increasing in [0, n)")
    return signs, indices


def _one_operator(op) -> tuple:
    """The 1 x n signs and 1 x ell indices of ``op``, checked: one operator,
    not a stack of several."""
    signs, indices = _operator_stack(*op)
    if signs.shape[0] != 1:
        raise ValueError(f"need one operator, got a stack of {signs.shape[0]}")
    return signs, indices


def materialize(op) -> np.ndarray:
    """Dense ell x n form of one operator, a (signs, indices) pair as
    ``draw_srht`` returns (testing oracle).

    Entry (i, j) = sqrt(n/ell) * H[indices[i], j] * signs[j].  Refuses n
    beyond ``MATERIALIZE_CAP`` to bound memory.
    """
    (signs,), (indices,) = _one_operator(op)
    n, ell = signs.size, indices.size
    if n > MATERIALIZE_CAP:
        raise ValueError(f"materialize capped at n={MATERIALIZE_CAP}, got n={n}")
    return (n / ell) ** 0.5 * hadamard_matrix(n, rows=indices) * signs[None, :]
