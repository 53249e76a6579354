import ast
import hashlib
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import srhtlab
from srhtlab import srht as srht_mod
from srhtlab.srht import (
    MATERIALIZE_CAP,
    apply_to_matrix,
    derived_rng,
    draw_integers,
    draw_srht,
    draw_stack,
    materialize,
    rademacher_signs,
    sample_without_replacement,
    sketch_stack,
)
from srhtlab.wht import fwht, hadamard_matrix

import generator_oracle as oracle


def make_operator(n, indices, signs=None):
    """A hand-built operator: the 1 x n signs and 1 x ell indices pair, unchecked
    until it is used."""
    if signs is None:
        signs = np.ones(n)
    return np.asarray(signs, dtype=np.float64)[None], np.asarray(indices, dtype=np.int64)[None]


def apply_to_vector(op, x):
    """The sketch of one vector: ``sketch_stack``'s one-operator 1-D case."""
    return sketch_stack(*op, x)[0]


def test_draw_is_deterministic():
    a_signs, a_indices = draw_srht(64, 9, 42)
    b_signs, b_indices = draw_srht(64, 9, 42)
    assert np.array_equal(a_signs, b_signs)
    assert np.array_equal(a_indices, b_indices)
    c_signs, c_indices = draw_srht(64, 9, 43)
    assert not (np.array_equal(a_signs, c_signs) and np.array_equal(a_indices, c_indices))


def test_full_sample_is_whole_index_set():
    for seed in range(5):
        _, indices = draw_srht(4, 4, seed)
        assert np.array_equal(indices, [[0, 1, 2, 3]])


def test_scale_invariant():
    # scale**2 * ell == n: the sketch of each coordinate vector has ell
    # entries of magnitude sqrt(n/ell) * n**-0.5, so unit norm
    sketch = apply_to_matrix(draw_srht(32, 5, 0), np.eye(32))
    assert sketch.shape == (5, 32)
    assert np.max(np.abs(np.sum(sketch**2, axis=0) - 1.0)) <= 1e-12


def test_subset_frequencies_uniform():
    # all 28 2-subsets of 8 elements, 1e5 draws through the sampling core
    counts = {}
    draws = 100_000
    for row in sample_without_replacement(8, 2, [(123, i) for i in range(draws)]):
        t = tuple(row)
        counts[t] = counts.get(t, 0) + 1
    assert len(counts) == 28
    p = 1 / 28
    sigma = math.sqrt(draws * p * (1 - p))
    for subset, count in counts.items():
        assert abs(count - draws * p) <= 4 * sigma, f"{subset}: {count}"


def test_draw_srht_subsets_uniform():
    counts = {}
    draws = 10_000
    for i in range(draws):
        t = tuple(draw_srht(8, 2, (99, i))[1][0])
        counts[t] = counts.get(t, 0) + 1
    p = 1 / 28
    sigma = math.sqrt(draws * p * (1 - p))
    for subset, count in counts.items():
        assert abs(count - draws * p) <= 4 * sigma


def test_single_draw_frequency():
    hits = np.sum(sample_without_replacement(2, 1, [(5, i) for i in range(10_000)])[:, 0] == 0)
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(hits - 5000) <= 4 * sigma


def test_all_three_subsets_of_five():
    draws = 100_000
    counts = {c: 0 for c in itertools.combinations(range(5), 3)}
    for row in sample_without_replacement(5, 3, [(17, i) for i in range(draws)]):
        counts[tuple(row)] += 1
    p = 1 / 10
    sigma = math.sqrt(draws * p * (1 - p))
    for subset, count in counts.items():
        assert abs(count - draws * p) <= 4 * sigma, f"{subset}: {count}"


def test_sample_full_and_errors():
    assert np.array_equal(sample_without_replacement(6, 6, [0, 1]), [np.arange(6)] * 2)
    with pytest.raises(ValueError):
        sample_without_replacement(4, 5, [0])
    with pytest.raises(ValueError):
        sample_without_replacement(4, 0, [0])


def test_identity_signs_full_sample_is_transform():
    op = make_operator(8, np.arange(8))
    x = np.random.default_rng(2).standard_normal(8)
    assert np.allclose(apply_to_vector(op, x), fwht(x), rtol=1e-14, atol=0)


def test_zero_maps_to_zero():
    op = draw_srht(16, 3, 9)
    assert np.all(apply_to_vector(op, np.zeros(16)) == 0.0)


def test_vector_application_matches_materialized():
    op = draw_srht(16, 5, 31)
    x = np.random.default_rng(4).standard_normal(16)
    dense = materialize(op)
    assert np.max(np.abs(apply_to_vector(op, x) - dense @ x)) <= 1e-10


def test_matrix_application_matches_materialized():
    op = draw_srht(32, 7, 8)
    v = np.random.default_rng(5).standard_normal((32, 3))
    dense = materialize(op)
    err = np.max(np.abs(apply_to_matrix(op, v) - dense @ v))
    assert err <= 1e-10 * max(1.0, np.max(np.abs(dense @ v)))


def test_matrix_single_column_equals_vector_path():
    op = draw_srht(16, 4, 77)
    x = np.random.default_rng(6).standard_normal(16)
    assert np.allclose(apply_to_matrix(op, x[:, None])[:, 0], apply_to_vector(op, x))


def test_full_sample_identity_basis_gives_hadamard():
    op = make_operator(4, np.arange(4))
    from srhtlab.wht import hadamard_matrix

    assert np.allclose(apply_to_matrix(op, np.eye(4)), hadamard_matrix(4), atol=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=40)
def test_implicit_explicit_agree(seed, p):
    n = 1 << p
    rng = np.random.default_rng(seed)
    ell = int(rng.integers(1, n + 1))
    op = draw_srht(n, ell, seed)
    x = rng.standard_normal(n)
    assert np.max(np.abs(apply_to_vector(op, x) - materialize(op) @ x)) <= 1e-10


def test_materialize_small_case():
    op = make_operator(2, [0, 1])
    expected = np.array([[2**-0.5, 2**-0.5], [2**-0.5, -(2**-0.5)]])
    assert np.allclose(materialize(op), expected, atol=1e-15)


def test_materialize_row_norms():
    op = draw_srht(64, 9, 3)
    norms = np.linalg.norm(materialize(op), axis=1)
    expected = (64 / 9) ** 0.5
    assert np.max(np.abs(norms - expected)) <= 1e-12 * expected


def test_materialize_cross_check_many_vectors():
    op = draw_srht(8, 3, 41)
    dense = materialize(op)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(8)
        assert np.max(np.abs(apply_to_vector(op, x) - dense @ x)) <= 1e-10


def test_materialize_cap():
    materialize(draw_srht(MATERIALIZE_CAP, 1, 0))
    op = draw_srht(2 * MATERIALIZE_CAP, 4, 0)
    with pytest.raises(ValueError, match="capped"):
        materialize(op)


def test_unbiased_energy():
    # E ||Phi x||^2 = ||x||^2; Monte Carlo mean within 5 standard errors
    n, ell, trials = 256, 32, 10_000
    g = np.random.default_rng(12).standard_normal(n)
    x = g / np.linalg.norm(g)
    energies = np.empty(trials)
    for i in range(trials):
        op = draw_srht(n, ell, (2024, i))
        energies[i] = np.sum(apply_to_vector(op, x) ** 2)
    mean = energies.mean()
    stderr = energies.std(ddof=1) / math.sqrt(trials)
    assert abs(mean - 1.0) <= 5 * stderr


def test_thread_schedule_independence():
    seeds = [(7, i) for i in range(64)]
    serial = [draw_srht(32, 8, s) for s in seeds]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda s: draw_srht(32, 8, s), seeds))
    for (a_signs, a_indices), (b_signs, b_indices) in zip(serial, parallel):
        assert np.array_equal(a_signs, b_signs)
        assert np.array_equal(a_indices, b_indices)


def test_operator_validation():
    for op in (
        make_operator(4, [0, 0, 1]),  # duplicate indices
        make_operator(4, [2, 1]),  # not sorted
        make_operator(4, [0, 4]),  # out of range
        make_operator(4, [0], signs=[0.5, 1, 1, 1]),  # bad sign value
    ):
        for use in (materialize, lambda op: apply_to_matrix(op, np.eye(4))):
            with pytest.raises(ValueError):
                use(op)
        with pytest.raises(ValueError):
            apply_to_vector(op, np.ones(4))
    with pytest.raises(ValueError):
        draw_srht(12, 3, 0)  # n not a power of two
    with pytest.raises(ValueError):
        draw_srht(8, 9, 0)
    op = draw_srht(8, 3, 0)
    with pytest.raises(ValueError):
        apply_to_vector(op, np.zeros(4))
    with pytest.raises(ValueError):
        apply_to_matrix(op, np.zeros((4, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apply_to_vector_rejects_non_finite(bad):
    op = draw_srht(8, 3, 0)
    x = np.ones(8)
    x[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        apply_to_vector(op, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apply_to_matrix_rejects_non_finite(bad):
    op = draw_srht(8, 3, 0)
    v = np.ones((8, 2))
    v[6, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        apply_to_matrix(op, v)


def test_apply_to_matrix_rejects_non_finite_at_headline_size():
    # The check runs on the ell sampled rows; one bad entry must still reach
    # them through the transform, and inf - inf must not leak a RuntimeWarning.
    op = draw_srht(65536, 64, 0)
    v = np.ones((65536, 3))
    v[12345, 0] = np.nan
    v[7, 2], v[40000, 2] = np.inf, -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        apply_to_matrix(op, v)
    with pytest.raises(ValueError, match="non-finite"):
        apply_to_vector(op, v[:, 2].copy())


def test_apply_rejects_sketch_that_overflows():
    op = draw_srht(2, 2, 0)
    x = op[0][0] * 1.7e308  # finite, but H D x has an entry sqrt(2) * 1.7e308
    with pytest.raises(ValueError, match="non-finite"):
        apply_to_vector(op, x)


# SHA-256 of the signs (as int8) and the indices (as little-endian int64),
# recorded when the draw layout was fixed.  A change here changes what every
# stored seed means.
GOLDEN_DRAWS = [
    (16, 4, 0,
     "5d0912d0ef0011035b7269fa5816de344d16f11da3c37656fde3f6dde3e1c65e",
     "6c3f9323ef183f06b40d3c496a9cdce443c3fd67e9f0b0f29b7a8ba02f1f226f"),
    (1024, 128, 3,
     "9672e50be8829366f20a720030dbb52eac287ef6d7e9e83195080a3b1d25dd28",
     "3d1de458d53114df314e55d7ba6ccd08a7427cc93d60a9610c079050ae862353"),
    (65536, 2342, (0, 1, 0, 7),
     "1e1f0ce1726bb922a8b7a48875e099c261ea2fc02a76cce0a155fc6e95c1ecbf",
     "339088bea327bd7c4f332e95c4ac36a257262b72c493aa0f2d487723f6b6f2f1"),
]


@pytest.mark.parametrize("n, ell, seed, signs_sha, indices_sha", GOLDEN_DRAWS)
def test_draw_matches_golden_fingerprint(n, ell, seed, signs_sha, indices_sha):
    # the one-seed draw and the same seed's row of a block
    for signs, indices in (draw_srht(n, ell, seed), draw_stack(n, ell, [7, seed])):
        assert hashlib.sha256(signs[-1].astype("<i1").tobytes()).hexdigest() == signs_sha
        assert hashlib.sha256(indices[-1].astype("<i8").tobytes()).hexdigest() == indices_sha


def test_operator_arrays_frozen():
    for signs, indices in (draw_srht(8, 3, 0), draw_stack(8, 3, [0, 1])):
        with pytest.raises(ValueError):
            signs[0, 0] = -signs[0, 0]
        with pytest.raises(ValueError):
            indices[0, 0] = 7


# --- the subset sampler: both shuffle paths -----------------------------------

@given(st.integers(1, 2**16 + 1), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=150)
def test_sampler_matches_whole_array_fisher_yates(n, data, seed):
    # the O(n) shuffle over a whole index array, on the Generator's offsets,
    # at ell either side of the ratio rule n <= 8 ell: the array shuffle on
    # one side, the dict on the other, n past 2**16 among them (positions
    # of four bytes)
    edge = -(-n // 8)
    ell = data.draw(
        st.one_of(
            st.just(1), st.just(n), st.integers(1, n), st.sampled_from([edge, max(1, edge - 1)])
        ),
        label="ell",
    )
    got = sample_without_replacement(n, ell, [seed, (seed, 1)])
    assert np.array_equal(got[0], oracle.subset(n, ell, seed))
    assert np.array_equal(got[1], oracle.subset(n, ell, (seed, 1)))
    assert got.shape == (2, ell) and got.dtype == np.int64 and not got.flags.writeable


# (n, ell, path) at either side of the ratio rule n <= 8 ell, at ell = 1 and
# ell = n among them.  "list" marks the side of the whole-block array
# shuffle; the label keeps the test ids.
SHUFFLE_EDGES = [
    (1, 1, "list"),
    (8, 1, "list"),
    (9, 1, "dict"),
    (16, 1, "dict"),
    (16, 2, "list"),
    (64, 7, "dict"),
    (64, 8, "list"),
    (64, 64, "list"),
    (65, 8, "dict"),
    (65, 9, "list"),
    (4096, 511, "dict"),
    (4096, 512, "list"),
]


@pytest.mark.parametrize("n, ell, path", SHUFFLE_EDGES)
def test_both_shuffle_paths_are_the_whole_array_shuffle(n, ell, path, monkeypatch):
    fisher_yates = mock.Mock(wraps=srht_mod._fisher_yates)
    array_shuffle = mock.Mock(wraps=srht_mod._array_shuffle)
    monkeypatch.setattr(srht_mod, "_fisher_yates", fisher_yates)
    monkeypatch.setattr(srht_mod, "_array_shuffle", array_shuffle)
    # a one-row and a few-row block take the same path
    for rows in (1, 5):
        fisher_yates.reset_mock()
        array_shuffle.reset_mock()
        seeds = [(3, 1, 0, i) for i in range(rows)]
        alone = sample_without_replacement(n, ell, seeds)
        for b, seed in enumerate(seeds):
            assert np.array_equal(alone[b], oracle.subset(n, ell, seed))
        draws = 1
        if n & (n - 1) == 0:
            draws = 2
            _, indices = draw_stack(n, ell, seeds)
            for b, seed in enumerate(seeds):
                assert np.array_equal(indices[b], oracle.operator_draw(n, ell, seed)[1])
        assert array_shuffle.call_count == (draws if path == "list" else 0)
        assert fisher_yates.call_count == (0 if path == "list" else draws * rows)


@given(
    n=st.integers(1, 300),
    data=st.data(),
    rows=st.integers(1, 200),
    offsets=st.sampled_from(["drawn", "none", "last"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100)
def test_array_shuffle_is_the_dict_shuffle(n, data, rows, offsets, seed):
    # uniform offsets from the lab's own draw, and the two extremes: no swap
    # at all, and every swap to the last position
    ell = data.draw(st.integers(1, n), label="ell")
    ranges = n - np.arange(ell)
    offsets = {
        "drawn": lambda: draw_integers([(seed, b) for b in range(rows)], ranges),
        "none": lambda: np.zeros((rows, ell), dtype=np.int64),
        "last": lambda: np.tile(ranges - 1, (rows, 1)),
    }[offsets]()
    got = srht_mod._array_shuffle(offsets, n, ell)
    want = [srht_mod._fisher_yates(row) for row in offsets.tolist()]
    assert got.dtype == np.int64 and got.shape == (rows, ell)
    assert got.tolist() == want


def test_sampler_refuses_a_non_integer_sample_size():
    # np.arange(2.5) has three entries, so 2.5 used to give three indices
    with pytest.raises(TypeError):
        sample_without_replacement(4, 2.5, [0])
    with pytest.raises(TypeError):
        sample_without_replacement(4, 2.0, [0])
    want = sample_without_replacement(16, 3, [7])
    assert np.array_equal(sample_without_replacement(16, np.int64(3), [7]), want)


def test_operator_draw_refuses_a_non_integer_sample_size():
    for draw in (
        lambda ell: draw_stack(16, ell, [0]),
        lambda ell: draw_stack(16, ell, [0, 1]),
        lambda ell: draw_srht(16, ell, 0),
    ):
        with pytest.raises(TypeError):
            draw(2.5)
    _, indices = draw_srht(16, np.int32(3), 0)
    assert indices.shape == (1, 3)
    assert np.array_equal(indices, draw_srht(16, 3, 0)[1])


@pytest.mark.parametrize("seed", [1.5, 1.0, (1, 1.5), [3, 0.0]])
def test_derived_rng_refuses_a_non_integer_seed(seed):
    # int() used to truncate, so 1.5 gave the stream of 1
    with pytest.raises(TypeError):
        derived_rng(seed)


@pytest.mark.parametrize("path", [(2.5,), (0, 1.0), (np.float64(3.0),)])
def test_derived_rng_refuses_a_non_integer_path_entry(path):
    with pytest.raises(TypeError):
        derived_rng(7, *path)


def test_derived_rng_takes_numpy_integers_as_their_value():
    want = derived_rng((5, 1, 2, 3)).integers(0, 2**62, size=4)
    for seed, path in [
        ((np.int64(5), 1, 2, 3), ()),
        (np.uint32(5), (np.int8(1), 2, np.uint64(3))),
        ([5, 1], (np.int16(2), 3)),
    ]:
        assert np.array_equal(derived_rng(seed, *path).integers(0, 2**62, size=4), want)


# --- the raw-word sampler: one tripwire per numpy rule it rests on -----------
#
# ``draw_integers`` reads PCG64's raw words itself.  Each test below pins one
# rule it takes from numpy, so a numpy upgrade that changes one fails a named
# test rather than a scatter of goldens.

def _entropy(seed):
    return tuple(int(x) for x in seed) if isinstance(seed, (tuple, list)) else (int(seed),)


HASH_SEEDS = [
    0,
    7,
    (5, 1, 2, 3),
    2**32 - 1,
    2**32,  # two words
    2**64 + 7,  # three words
    (1, 2, 3, 4, 5),  # past the four-word pool
    (0, 1, 0, 2**40, 9, 2**70, 3),
    tuple(range(70)),  # seventy words
    (),
    (np.uint8(3), np.int64(2**40)),
    [2**32 - 1, 0, 2**33],  # a list seed
]


@pytest.mark.parametrize("seed", HASH_SEEDS, ids=repr)
def test_seed_hash_is_seedsequence(seed):
    want = np.random.SeedSequence(_entropy(seed)).generate_state(4, np.uint64)
    assert np.array_equal(srht_mod._seed_states([seed])[:, 0], want)


def test_seed_hash_of_a_block_with_mixed_word_counts():
    states = srht_mod._seed_states(HASH_SEEDS)
    for b, seed in enumerate(HASH_SEEDS):
        want = np.random.SeedSequence(_entropy(seed)).generate_state(4, np.uint64)
        assert np.array_equal(states[:, b], want), seed


def _seedsequence_state(seed):
    return np.random.SeedSequence(_entropy(seed)).generate_state(4, np.uint64)


# _seed_states takes two paths: the array hash of a block of runner keys,
# (master_seed, domain, stream, trial) tuples as _word_block takes them, and
# numpy's SeedSequence, called once per seed, for any other block.
WORD_BLOCKS = {
    "two-runner-keys": [(0, 1, 0, 0), (0, 1, 0, 1)],
    "64-runner-keys": [(s, 1, 2, i) for s in (0, 2**32 - 1) for i in range(32)],
    "1000-runner-keys": [
        (s, 1, g, i) for s in (0, 2**32 - 1) for g in range(2) for i in range(250)
    ],
    "one-word-edges": [(2**32 - 1,) * 4, (0,) * 4],
    # a master seed at or past 2**32 is two words, low word first: a fifth
    # word past the four-word pool
    "two-word-master-seeds": [(s, 1, 2, i) for s in (2**32, 2**62) for i in range(32)],
    "two-word-edges": [(2**63 - 1, *(2**32 - 1,) * 3), (2**32, 0, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(WORD_BLOCKS))
def test_seed_words_of_a_block_of_plain_seeds_come_from_one_array(name, monkeypatch):
    # the array hash: SeedSequence is never called
    seeds = WORD_BLOCKS[name]
    monkeypatch.setattr(
        np.random, "SeedSequence", mock.Mock(side_effect=AssertionError("per seed"))
    )
    states = srht_mod._seed_states(seeds)
    monkeypatch.undo()
    assert states.shape == (4, len(seeds))
    for b, seed in enumerate(seeds):
        assert np.array_equal(states[:, b], _seedsequence_state(seed)), seed
        assert np.array_equal(states[:, b], srht_mod._seed_states([seed])[:, 0]), seed


FALLBACK_BLOCKS = {
    "an-entry-of-2**32": [(0, 1, 2, 3), (2**32, 1, 2, 3)],
    "a-three-word-seed": [2**64 + 7, 5],
    "an-entry-past-int64": [2**63, 1],
    "mixed-lengths": [(1, 2, 3), (1, 2)],
    "ints-and-tuples": [3, (3,), (3, 0)],
    "list-seeds": [[1, 2, 3, 4], [5, 6, 7, 8]],
    "numpy-entries": [(np.int64(1), 2, 3, 4), (5, 6, 7, 8)],
    "numpy-seeds": [np.uint32(9), np.int64(10)],
    "empty-tuples": [(), ()],
    "one-seed": [(0, 1, 2, 3)],
    "65-entry-tuples": [tuple(range(b, b + 65)) for b in range(2)],
    "one-and-two-word-column": [(1, 2**32 - 1), (1, 2**32), (1, 0)],
    # plain ints and tuples of other lengths, which no runner draws
    "plain-ints": [*range(62), 2**32 - 2, 2**32 - 1],
    "short-tuples": [(2**32 - 1,), (0,), (7,)],
    "two-word-ints": [2**32, 2**40 + 5, 2**62, 2**63 - 1],
    "six-entry-tuples": [(b, 1, 2, 3, 2**32 - 1, 7 * b) for b in range(8)],
    "64-entry-tuples": [tuple(range(b, b + 64)) for b in range(3)],
    # a runner key with a two-word entry past its master seed
    "a-wide-trial": [(0, 1, 2, 2**32), (0, 1, 2, 3)],
}


@pytest.mark.parametrize("name", sorted(FALLBACK_BLOCKS))
def test_seed_words_of_any_other_block_are_built_a_seed_at_a_time(name, monkeypatch):
    seeds = FALLBACK_BLOCKS[name]
    seed_sequence = mock.Mock(wraps=np.random.SeedSequence)
    monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
    states = srht_mod._seed_states(seeds)
    monkeypatch.undo()
    assert seed_sequence.call_count == len(seeds)
    for b, seed in enumerate(seeds):
        assert np.array_equal(states[:, b], _seedsequence_state(seed)), seed


def _seeds():
    entry = st.one_of(
        st.integers(0, 2**32 - 1),
        st.integers(2**32, 2**96),
        st.builds(np.uint32, st.integers(0, 2**32 - 1)),
        st.builds(np.int64, st.integers(0, 2**63 - 1)),
    )
    return st.one_of(entry, st.tuples(entry), st.lists(entry, min_size=2, max_size=6).map(tuple))


def _is_runner_key_block(seeds):
    """Two or more 4-tuples of plain non-negative ints, the last three below
    2**32, the master seeds all below 2**32 or all in [2**32, 2**63)."""
    if len(seeds) < 2 or any(type(seed) is not tuple or len(seed) != 4 for seed in seeds):
        return False
    if any(type(x) is not int or x < 0 for seed in seeds for x in seed):
        return False
    if any(x >= 2**32 for seed in seeds for x in seed[1:]):
        return False
    return max(seed[0] for seed in seeds) < 2**63 and len({seed[0] >= 2**32 for seed in seeds}) == 1


def _seed_blocks():
    word = st.integers(0, 2**32 - 1)
    entry = st.one_of(word, st.integers(2**32, 2**64), st.builds(np.int64, word))
    masters = st.sampled_from([word, st.integers(2**32, 2**63 - 1), st.integers(0, 2**64)])
    runner_keys = masters.flatmap(
        lambda master: st.lists(st.tuples(master, word, word, word), min_size=1, max_size=6)
    )
    keys_with_any_entry = st.lists(st.tuples(entry, entry, entry, entry), min_size=2, max_size=6)
    return st.one_of(runner_keys, keys_with_any_entry, st.lists(_seeds(), max_size=6))


@given(_seed_blocks())
@settings(max_examples=150)
def test_only_runner_key_blocks_take_the_array_hash(seeds):
    assert (srht_mod._word_block(seeds) is not None) == _is_runner_key_block(seeds)
    states = srht_mod._seed_states(seeds)
    for b, seed in enumerate(seeds):
        assert np.array_equal(states[:, b], _seedsequence_state(seed)), seed


# the blocks whose bit generators are checked: every HASH_SEEDS entry, a
# seed at a time by numpy's SeedSequence, and two blocks of runner keys, by
# the array hash
SEEDED_BLOCKS = {
    "hash-seeds": HASH_SEEDS,
    "runner-keys": WORD_BLOCKS["64-runner-keys"],
    "two-word-runner-keys": WORD_BLOCKS["two-word-master-seeds"],
}


@pytest.mark.parametrize("name", sorted(SEEDED_BLOCKS))
def test_each_bit_generator_the_samplers_build_is_pcg64_on_the_seedsequence(name, monkeypatch):
    # PCG64 seeds itself from each row's four hashed words: the state, inc,
    # has_uint32 and uinteger of every PCG64 that draw_integers and
    # standard_normals make, when it is made, are those of PCG64 on the
    # seed's own SeedSequence
    seeds = SEEDED_BLOCKS[name]
    assert (srht_mod._word_block(seeds) is None) == (name == "hash-seeds")
    made = []

    def pcg64(words, make=srht_mod._pcg64):
        bitgen = make(words)
        made.append(bitgen.state)
        return bitgen

    monkeypatch.setattr(srht_mod, "_pcg64", pcg64)
    draw_integers(seeds, [2])
    list(srht_mod.standard_normals(seeds, np.empty(1)))
    monkeypatch.undo()
    want = [np.random.PCG64(np.random.SeedSequence(_entropy(seed))).state for seed in seeds]
    assert {state["has_uint32"] for state in want} == {0}
    assert made == want + want


def test_pcg64_raw_words_fingerprint():
    raw = np.random.PCG64(np.random.SeedSequence((12345, 1, 0, 7))).random_raw(1000)
    assert int(raw[0]) == 0xE492BEE363662D01
    assert hashlib.sha256(raw.astype("<u8").tobytes()).hexdigest() == (
        "f90aea59058441a72b60095ce3081c8a2afc804c98bebf684d521fa16c6a67e9"
    )


def test_uint32_draws_read_each_word_low_half_first():
    # a full 32-bit range is one plain 32-bit draw each: the halves in order
    seed = (12345, 1, 0, 7)
    raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(2)
    halves = [int(w) >> shift & 0xFFFFFFFF for w in raw for shift in (0, 32)]
    assert oracle.integers(seed, [2**32] * 4).tolist() == halves
    assert draw_integers([seed], [2**32] * 4).tolist() == [halves]


@pytest.mark.parametrize("shape", [(7,), (64, 3)])
def test_standard_normals_are_each_seeds_own_generator_draws(shape):
    # one buffer, filled once per seed, with what that seed's own Generator
    # would draw
    out = np.empty(shape)
    drawn = list(map(np.copy, srht_mod.standard_normals(HASH_SEEDS, out)))
    assert len(drawn) == len(HASH_SEEDS)
    for seed, got in zip(HASH_SEEDS, drawn):
        assert np.array_equal(got, derived_rng(seed).standard_normal(shape))
    assert all(g is out for g in srht_mod.standard_normals([0, 1], out))


def test_standard_normal_fingerprint():
    # fixtures still draw their Gaussians through Generator.standard_normal
    z = derived_rng(12345, 0, 0, 7).standard_normal(1000)
    assert z[0] == -0.717503747335971
    assert hashlib.sha256(z.astype("<f8").tobytes()).hexdigest() == (
        "59ddc4e4968ca881dd440d9c39b186135893ee6fe5d102d35b3efe4899a9101c"
    )


class _Calls:
    def __init__(self, fn):
        self.fn, self.count = fn, 0

    def __call__(self, *args):
        self.count += 1
        return self.fn(*args)


@pytest.mark.parametrize("high", [2**31 + 1, 2**31 + 3, 3 * 2**30 + 1, 2**32 - 1, 2**32])
def test_lemire_rule_matches_generator_integers_near_half_range(high, monkeypatch):
    # at r = 2**31 + 1 about half of all draws are rejected and redrawn
    seeds = [(9, 1, 0, i) for i in range(40)]
    highs = [2, high, high - 1, 7, high, 2, high]
    slow = _Calls(srht_mod._lemire_row)
    monkeypatch.setattr(srht_mod, "_lemire_row", slow)
    got = draw_integers(seeds, highs)
    for b, seed in enumerate(seeds):
        assert np.array_equal(got[b], oracle.integers(seed, highs)), seed
    if high <= 2**31 + 3:
        assert slow.count > 0


# draw_stack blocks for the README's promise that an operator draw calls no
# Generator method: (n, ell, seeds)
NO_GENERATOR_BLOCKS = {
    "one-seed": (64, 24, [(3, 1, 0, 5)]),
    "runner-keys": (64, 24, [(0, 1, 2, i) for i in range(40)]),
    # key (1, 1, 0, 13) rejects a draw at the headline embedding shape
    "lemire-row": (65536, 2342, [(1, 1, 0, 12), (1, 1, 0, 13)]),
}


@pytest.mark.parametrize("name", sorted(NO_GENERATOR_BLOCKS))
def test_operator_draws_make_no_generator(name, monkeypatch):
    # the oracle draws through Generator first; then numpy.random's two ways
    # to make a Generator raise, and the draw must not need either
    n, ell, seeds = NO_GENERATOR_BLOCKS[name]
    want = [oracle.operator_draw(n, ell, seed) for seed in seeds]
    slow = _Calls(srht_mod._lemire_row)
    monkeypatch.setattr(srht_mod, "_lemire_row", slow)
    refuse = mock.Mock(side_effect=AssertionError("a Generator was made"))
    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    signs, indices = draw_stack(n, ell, seeds)
    monkeypatch.undo()
    assert (slow.count > 0) == (name == "lemire-row")
    for b, (want_signs, want_indices) in enumerate(want):
        assert np.array_equal(signs[b], want_signs), seeds[b]
        assert np.array_equal(indices[b], want_indices), seeds[b]


def test_a_range_of_one_takes_no_word():
    seeds = [(4, i) for i in range(20)]
    highs = [1, 5, 1, 1, 7, 2, 1]
    got = draw_integers(seeds, highs)
    for b, seed in enumerate(seeds):
        assert np.array_equal(got[b], oracle.integers(seed, highs))
    assert np.all(got[:, [0, 2, 3, 6]] == 0)
    # ell = n: the last offset has range 1
    for n in (1, 2, 4, 8):
        signs, indices = draw_stack(n, n, seeds)
        for b, seed in enumerate(seeds):
            want_signs, want_indices = oracle.operator_draw(n, n, seed)
            assert np.array_equal(signs[b], want_signs)
            assert np.array_equal(indices[b], want_indices)


def _operator_layout(n, ell, seeds):
    """``draw_stack``'s draw without its transform-size check, so that any n,
    an odd one included, tests the raw-word layout: n sign draws, then the
    ell offsets, in one ``draw_integers`` block."""
    drawn = draw_integers(seeds, srht_mod._operator_ranges(n, ell))
    return srht_mod._signs(drawn[:, :n]), srht_mod._subsets(drawn[:, n:], n, ell)


@pytest.mark.parametrize("n, ell", [(1, 1), (3, 2), (5, 5), (7, 3)])
def test_odd_sign_count_carries_the_high_half_into_the_offsets(n, ell):
    # n = 1 is the one odd transform size draw_stack takes
    seeds = [(11, i) for i in range(20)]
    signs, indices = _operator_layout(n, ell, seeds)
    if n == 1:
        assert all(map(np.array_equal, draw_stack(n, ell, seeds), (signs, indices)))
    for b, seed in enumerate(seeds):
        want_signs, want_indices = oracle.operator_draw(n, ell, seed)
        assert np.array_equal(signs[b], want_signs)
        assert np.array_equal(indices[b], want_indices)


def test_draw_integers_refuses_bad_ranges_and_seeds():
    for highs in ([0], [3, -1], [2.0], [2, 1.5]):
        with pytest.raises(ValueError, match="range"):
            draw_integers([0], highs)
    assert draw_integers([0, 1], []).shape == (2, 0)
    assert draw_integers([], [3, 4]).shape == (0, 2)


@pytest.mark.parametrize("seed", [-1, (3, -1), (0, 1, 0, -(2**40))])
def test_a_negative_seed_is_refused(seed):
    for draw in (
        lambda: draw_integers([0, seed], [5]),
        lambda: draw_stack(8, 3, [seed]),
        lambda: rademacher_signs(8, [seed]),
        lambda: sample_without_replacement(8, 3, [1, seed]),
        lambda: derived_rng(seed),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            draw()


@given(st.integers(1, 300), st.data(), st.lists(_seeds(), min_size=1, max_size=6))
@settings(max_examples=80)
def test_every_operator_draw_is_the_generator_draw(n, data, seeds):
    ell = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="ell")
    signs, indices = _operator_layout(n, ell, seeds)
    if n & (n - 1) == 0:
        assert all(map(np.array_equal, draw_stack(n, ell, seeds), (signs, indices)))
    alone_signs = rademacher_signs(n, seeds)
    alone_subsets = sample_without_replacement(n, ell, seeds)
    for b, seed in enumerate(seeds):
        want_signs, want_indices = oracle.operator_draw(n, ell, seed)
        assert np.array_equal(signs[b], want_signs)
        assert np.array_equal(indices[b], want_indices)
        assert np.array_equal(alone_signs[b], oracle.signs(n, seed))
        assert np.array_equal(alone_subsets[b], oracle.subset(n, ell, seed))


# --- the block draw -----------------------------------------------------------

@given(
    st.integers(0, 10).map(lambda p: 1 << p),
    st.data(),
    st.sampled_from([1, 2, 7, 64]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_block_draw_is_the_per_seed_draw(n, data, stack, tuple_seeds, base):
    ell = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)), label="ell")
    seeds = [(base, 1, 2, b) if tuple_seeds else base + b for b in range(stack)]
    signs, indices = draw_stack(n, ell, seeds)
    one_at_a_time = [draw_stack(n, ell, [seed]) for seed in seeds]
    assert np.array_equal(signs, np.concatenate([s for s, _ in one_at_a_time]))
    assert np.array_equal(indices, np.concatenate([i for _, i in one_at_a_time]))
    assert signs.shape == (stack, n) and signs.dtype == np.float64
    assert indices.shape == (stack, ell) and indices.dtype == np.int64
    # and both are the draw the Generator makes on the seed's stream, the
    # subset checked against the O(n) shuffle
    for b, seed in enumerate(seeds):
        want_signs, want_indices = oracle.operator_draw(n, ell, seed)
        assert np.array_equal(signs[b], want_signs)
        assert np.array_equal(indices[b], want_indices)


def test_block_draw_of_no_seeds_is_empty():
    signs, indices = draw_stack(8, 3, [])
    assert signs.shape == (0, 8) and indices.shape == (0, 3)


def test_block_draw_checks_the_sample_size():
    for n, ell in [(8, 0), (8, 9)]:
        with pytest.raises(ValueError, match="1 <= ell <= n"):
            draw_stack(n, ell, [0])


@pytest.mark.parametrize("n", [12, 0, -4, 3])
def test_block_draw_refuses_a_transform_size_before_drawing(monkeypatch, n):
    # draw_stack(12, 4, [0]) once drew a 1 x 12 "operator" no sketch could use
    monkeypatch.setattr(srht_mod, "draw_integers", mock.Mock(side_effect=AssertionError("drew")))
    for draw in (lambda: draw_stack(n, 2, [0, 1]), lambda: draw_srht(n, 2, 0)):
        with pytest.raises(ValueError, match="power of two"):
            draw()


# --- the stacked sketch -------------------------------------------------------

def test_draw_signs_and_indices_is_the_operator_draw():
    # one operator is the B = 1 stack, the same seed's row of any block
    for n, ell, seed in [(16, 4, 0), (64, 17, (3, 1, 2, 9)), (1024, 128, 3)]:
        signs, indices = draw_stack(n, ell, [5, seed, (5, 1)])
        op_signs, op_indices = draw_srht(n, ell, seed)
        assert op_signs.shape == (1, n) and op_indices.shape == (1, ell)
        assert np.array_equal(signs[1:2], op_signs) and np.array_equal(indices[1:2], op_indices)


def _stack(ops):
    return np.concatenate([signs for signs, _ in ops]), np.concatenate([i for _, i in ops])


@given(st.integers(0, 10), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@settings(max_examples=40)
def test_stack_equals_one_operator_at_a_time(p, stack, k, seed):
    # A stack widens the BLAS products inside the transform, which may round
    # differently in the last bit; the budget is the transform's own oracle
    # criterion, 1e-12 of the column norm, times the sketch scale.
    n = 1 << p
    rng = np.random.default_rng(seed)
    ell = int(rng.integers(1, n + 1))
    ops = [draw_srht(n, ell, (seed, b)) for b in range(stack)]
    signs, indices = _stack(ops)
    v = rng.standard_normal((n, k))
    tol = 1e-12 * (n / ell) ** 0.5 * np.linalg.norm(v, axis=0)
    sketches = sketch_stack(signs, indices, v)
    assert sketches.shape == (stack, ell, k)
    vectors = sketch_stack(signs, indices, v[:, 0])
    assert vectors.shape == (stack, ell)
    for b, op in enumerate(ops):
        assert np.all(np.abs(sketches[b] - apply_to_matrix(op, v)) <= tol)
        assert np.all(np.abs(vectors[b] - apply_to_vector(op, v[:, 0])) <= tol[0])


@given(st.integers(0, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_stack_is_bit_identical_on_one_hot_columns(log_k, stack, seed):
    # Every stage of the transform of a one-hot column sums one nonzero
    # product, so the sketch is exact whatever the stack: the coupon runner's
    # decimated identity relies on this.
    from srhtlab.linalg import decimated_identity

    k = 1 << log_k
    n = k * k
    ell = int(np.random.default_rng(seed).integers(1, n + 1))
    ops = [draw_srht(n, ell, (seed, b)) for b in range(stack)]
    v = decimated_identity(k)
    sketches = sketch_stack(*_stack(ops), v)
    for b, op in enumerate(ops):
        assert np.array_equal(sketches[b], apply_to_matrix(op, v))


def test_stack_checks_every_operator():
    signs = np.ones((3, 8))
    indices = np.tile([0, 2, 5], (3, 1))
    x = np.ones(8)
    assert sketch_stack(signs, indices, x).shape == (3, 3)
    bad_signs = signs.copy()
    bad_signs[2, 7] = 0.5
    with pytest.raises(ValueError, match="exactly"):
        sketch_stack(bad_signs, indices, x)
    for row in ([0, 5, 2], [0, 2, 2], [0, 2, 8], [-1, 2, 5]):
        bad = indices.copy()
        bad[1] = row
        with pytest.raises(ValueError, match="strictly increasing"):
            sketch_stack(signs, bad, x)
    with pytest.raises(ValueError, match="ell"):
        sketch_stack(signs, np.zeros((3, 0), dtype=np.int64), x)
    with pytest.raises(ValueError, match="power of two"):
        sketch_stack(np.ones((3, 12)), indices, np.ones(12))
    with pytest.raises(ValueError, match="shapes"):
        sketch_stack(signs[:2], indices, x)
    with pytest.raises(ValueError, match="8 rows"):
        sketch_stack(signs, indices, np.ones((4, 2)))


def test_operator_rules_refuse_non_integer_indices():
    # a cast to int64 used to truncate: [0.5, 2.7] sketched rows [0, 2], and
    # an operator built from [0.9, 3.2] held [0, 3]
    for bad in (np.array([[0.5, 2.7]]), np.array([[0.0, 2.0]]), np.array([[True, False]])):
        with pytest.raises(TypeError, match="integers"):
            sketch_stack(np.ones((1, 8)), bad, np.ones(8))
    for use in (materialize, lambda op: apply_to_matrix(op, np.eye(4))):
        with pytest.raises(TypeError, match="integers"):
            use((np.ones((1, 4)), [[0.9, 3.2]]))
        # unsigned indices are taken as their int64 values
        narrow = use((np.ones((1, 4)), np.array([[1, 3]], dtype=np.uint8)))
        assert np.array_equal(narrow, use(make_operator(4, [1, 3])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stack_rejects_non_finite_like_apply_to_matrix(bad):
    ops = [draw_srht(64, 9, (5, b)) for b in range(4)]
    v = np.ones((64, 3))
    v[17, 1] = bad
    with pytest.raises(ValueError, match="non-finite") as one:
        apply_to_matrix(ops[0], v)
    with pytest.raises(ValueError) as stacked:
        sketch_stack(*_stack(ops), v)
    assert str(stacked.value) == str(one.value)


# 65536 x 16, the headline embedding shape, and 4096 x 17, just above the
# 512 KiB a float64 basis may take before the embedding runner sketches it in
# float32.
@pytest.mark.parametrize("n, k, ell", [(65536, 16, 2342), (4096, 17, 700)])
def test_float32_sketch_of_hadamard_columns_is_bit_identical(n, k, ell):
    # The first k columns of H have entries +-n**-0.5, a power of two at
    # these n, and every block entry of the radix-16 stages is +-1/4: every
    # value of the float32 flip and transform is exact.  A float32 block one
    # ulp off, measured, shows here.
    v = hadamard_matrix(n, rows=range(k)).T
    signs, indices = draw_stack(n, ell, [(7, 1, 0, 0), (7, 1, 0, 1)])
    want = sketch_stack(signs, indices, v)
    got = sketch_stack(signs, indices, v.astype(np.float32))
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n, k, ell", [(65536, 16, 2342), (4096, 16, 700)])
def test_sketch_of_hadamard_columns_is_the_dyadic_shift_of_one_transform(n, k, ell, dtype):
    # Multiplying by a Walsh function is a dyadic (XOR) shift after the
    # transform (Fine 1949): for V the first k columns of H, entry (i, j) of
    # H D V is (H d)[i ^ j] / sqrt(n).  So the sketch is one length-n
    # transform, read at idx ^ j.  Every value is dyadic at these n, so the
    # two agree bit for bit.  A transform that is not H breaks the identity:
    # with H_{n/16} kron I_16 in place of H, entry (i, j) of T D V is
    # +-(T d)[i] / sqrt(n), not (T d)[i ^ j] / sqrt(n).
    v = hadamard_matrix(n, rows=range(k)).T
    signs, indices = draw_stack(n, ell, [(3, 1, 0, 0)])
    (got,) = sketch_stack(signs, indices, v.astype(dtype))
    (d,), (idx,) = signs, indices
    shifted = fwht(d)[idx[:, None] ^ np.arange(k)] / math.sqrt(n)
    assert np.array_equal(got, shifted * (n / ell) ** 0.5)
    # rows of the dense H, assembled from its closed form, at a few sampled
    # indices: an oracle that shares nothing with the transform
    picks = idx[[0, ell // 2, ell - 1]]
    dense = hadamard_matrix(n, rows=picks) @ (d[:, None] * v)
    assert np.array_equal(got[[0, ell // 2, ell - 1]], dense * (n / ell) ** 0.5)


@pytest.mark.parametrize(
    "dtype, transformed",
    [(np.float64, np.float64), (np.float32, np.float32), (np.float16, np.float64),
     (np.int64, np.float64)],
)
def test_sketch_transforms_in_the_dtype_of_its_input(monkeypatch, dtype, transformed):
    seen, transform = [], srht_mod.fwht_inplace

    def recording_fwht(y):
        seen.append(y.dtype)
        return transform(y)

    monkeypatch.setattr(srht_mod, "fwht_inplace", recording_fwht)
    signs, indices = draw_stack(256, 40, [0, 1, 2])
    v = np.random.default_rng(4).integers(-8, 9, size=(256, 3)).astype(dtype)
    got = sketch_stack(signs, indices, v)
    monkeypatch.undo()
    want = sketch_stack(signs, indices, v.astype(np.float64))
    assert seen == [transformed] and got.dtype == np.float64
    # float32 rounds the transform to about 1e-7 of each column's norm
    tol = 0.0 if transformed == np.float64 else 1e-6 * (256 / 40) ** 0.5 * np.max(
        np.linalg.norm(v.astype(np.float64), axis=0)
    )
    assert np.max(np.abs(got - want)) <= tol


def test_import_srhtlab_leaves_numpy_random_unimported():
    # numpy.random costs about 10 ms to import; derived_rng's annotation was
    # once the only thing that made ``import srhtlab`` load it.  NumPy 1.x
    # imports it with numpy itself, so the baseline is a bare ``import numpy``
    script = (
        "import sys, numpy; before = 'numpy.random' in sys.modules; import srhtlab; "
        "print(before, 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(srhtlab.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    before, after = done.stdout.split()
    assert after == before


PUBLIC_NAMES = {
    "ChernoffParams", "EMBEDDING_SIGMA_MAX", "EMBEDDING_SIGMA_MIN", "apply_to_matrix",
    "chernoff_lower_tail", "chernoff_upper_tail", "coupon_coverage_probability",
    "decimated_identity", "draw_srht", "embedding_sample_size", "fwht", "fwht_inplace", "gram",
    "hadamard_entry", "hadamard_matrix", "materialize", "orthonormality_defect",
    "random_orthonormal", "row_norm_bound", "row_sampling_failure_bound",
    "row_sampling_worst_ratio", "sample_without_replacement", "singular_values",
    "symmetric_eigenvalues",
}


def test_package_exports_exactly_its_public_names():
    # an operator is the (signs, indices) pair, so no operator class is exported
    assert len(srhtlab.__all__) == len(PUBLIC_NAMES) and set(srhtlab.__all__) == PUBLIC_NAMES
    for name in srhtlab.__all__:
        assert getattr(srhtlab, name) is not None


MODULES_BESIDE_SRHT = sorted(
    path for path in pathlib.Path(srhtlab.__file__).parent.glob("*.py") if path.name != "srht.py"
)


@pytest.mark.parametrize("path", MODULES_BESIDE_SRHT, ids=lambda path: path.name)
def test_every_seeded_draw_goes_through_srht(path):
    # srht owns the rule from a seed to its stream: no other module names
    # numpy.random, or reaches past srht's public samplers.  The one private
    # name another module takes is the draw's byte accounting, which draws
    # nothing.
    source = path.read_text()
    assert not re.search(r"\b(np|numpy)\.random\b", source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert not (node.module == "numpy" and "random" in names)
            if node.module in ("srht", "srhtlab.srht"):
                assert not {name for name in names if name.startswith("_")} - {"_draw_bytes"}


SOURCE_MODULES = sorted(pathlib.Path(srhtlab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda path: path.name)
def test_every_spectrum_goes_through_the_gram_eigensolve(path):
    # one spectrum kernel: singular values are the roots of a Gram
    # eigensolve (linalg.singular_values), so no module calls an SVD
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            assert "svd" not in name.lower(), f"{path.name}:{node.lineno} calls {name}"
