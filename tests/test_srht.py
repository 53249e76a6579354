import hashlib
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srhtlab.srht import (
    SrhtOperator,
    apply_to_matrix,
    apply_to_vector,
    derived_rng,
    draw_srht,
    from_json,
    materialize,
    sample_without_replacement,
    to_json,
)
from srhtlab.wht import HadamardDim, fwht


def make_operator(n, indices, signs=None):
    if signs is None:
        signs = np.ones(n)
    return SrhtOperator(
        dim=HadamardDim.of_size(n),
        signs=np.asarray(signs, dtype=np.float64),
        indices=np.asarray(indices, dtype=np.int64),
    )


def test_draw_is_deterministic():
    a = draw_srht(64, 9, 42)
    b = draw_srht(64, 9, 42)
    assert np.array_equal(a.signs, b.signs)
    assert np.array_equal(a.indices, b.indices)
    c = draw_srht(64, 9, 43)
    assert not (np.array_equal(a.signs, c.signs) and np.array_equal(a.indices, c.indices))


def test_full_sample_is_whole_index_set():
    for seed in range(5):
        op = draw_srht(4, 4, seed)
        assert np.array_equal(op.indices, [0, 1, 2, 3])


def test_scale_invariant():
    op = draw_srht(32, 5, 0)
    assert abs(op.scale**2 * op.ell - op.n) <= 1e-12 * op.n


def test_subset_frequencies_uniform():
    # all 28 2-subsets of 8 elements, 1e5 draws through the sampling core
    rng = derived_rng(123)
    counts = {}
    draws = 100_000
    for _ in range(draws):
        t = tuple(sample_without_replacement(8, 2, rng))
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
        t = tuple(draw_srht(8, 2, (99, i)).indices)
        counts[t] = counts.get(t, 0) + 1
    p = 1 / 28
    sigma = math.sqrt(draws * p * (1 - p))
    for subset, count in counts.items():
        assert abs(count - draws * p) <= 4 * sigma


def test_single_draw_frequency():
    rng = derived_rng(5)
    hits = sum(sample_without_replacement(2, 1, rng)[0] == 0 for _ in range(10_000))
    sigma = math.sqrt(10_000 * 0.25)
    assert abs(hits - 5000) <= 4 * sigma


def test_all_three_subsets_of_five():
    rng = derived_rng(17)
    draws = 100_000
    counts = {c: 0 for c in itertools.combinations(range(5), 3)}
    for _ in range(draws):
        counts[tuple(sample_without_replacement(5, 3, rng))] += 1
    p = 1 / 10
    sigma = math.sqrt(draws * p * (1 - p))
    for subset, count in counts.items():
        assert abs(count - draws * p) <= 4 * sigma, f"{subset}: {count}"


def test_sample_full_and_errors():
    rng = derived_rng(0)
    assert np.array_equal(sample_without_replacement(6, 6, rng), np.arange(6))
    with pytest.raises(ValueError):
        sample_without_replacement(4, 5, rng)
    with pytest.raises(ValueError):
        sample_without_replacement(4, 0, rng)


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
    expected = op.scale
    assert np.max(np.abs(norms - expected)) <= 1e-12 * expected


def test_materialize_cross_check_many_vectors():
    op = draw_srht(8, 3, 41)
    dense = materialize(op)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(8)
        assert np.max(np.abs(apply_to_vector(op, x) - dense @ x)) <= 1e-10


def test_materialize_cap():
    op = draw_srht(16, 4, 0)
    with pytest.raises(ValueError):
        materialize(op, cap=8)


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
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.signs, b.signs)
        assert np.array_equal(a.indices, b.indices)


def test_operator_validation():
    with pytest.raises(ValueError):
        make_operator(4, [0, 0, 1])  # duplicate indices
    with pytest.raises(ValueError):
        make_operator(4, [2, 1])  # not sorted
    with pytest.raises(ValueError):
        make_operator(4, [0, 4])  # out of range
    with pytest.raises(ValueError):
        make_operator(4, [0], signs=[0.5, 1, 1, 1])  # bad sign value
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
    x = op.signs * 1.7e308  # finite, but H D x has an entry sqrt(2) * 1.7e308
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
    op = draw_srht(n, ell, seed)
    assert hashlib.sha256(op.signs.astype("<i1").tobytes()).hexdigest() == signs_sha
    assert hashlib.sha256(op.indices.astype("<i8").tobytes()).hexdigest() == indices_sha


def test_operator_arrays_frozen():
    op = draw_srht(8, 3, 0)
    with pytest.raises(ValueError):
        op.signs[0] = -op.signs[0]
    with pytest.raises(ValueError):
        op.indices[0] = 7


def test_json_roundtrip_compact():
    op = draw_srht(16, 5, (3, 1, 0, 2))
    text = to_json(op)
    record = json.loads(text)
    assert record["n"] == 16 and record["l"] == 5 and "signs" not in record
    clone = from_json(text)
    assert np.array_equal(op.signs, clone.signs)
    assert np.array_equal(op.indices, clone.indices)


def test_json_roundtrip_with_arrays():
    op = make_operator(8, [1, 5], signs=[1, -1, 1, 1, -1, 1, -1, 1])
    with pytest.raises(ValueError):
        to_json(op)  # no seed, compact form impossible
    clone = from_json(to_json(op, include_arrays=True))
    assert np.array_equal(op.signs, clone.signs)
    assert np.array_equal(op.indices, clone.indices)
