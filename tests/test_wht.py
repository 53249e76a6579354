import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srhtlab.wht import fwht, fwht_inplace, hadamard_entry, hadamard_matrix, hadamard_size

SIZES = [2, 4, 8, 16, 32, 64, 128, 256]


def naive_transform(x):
    """O(n^2) oracle: dense multiply built entry by entry from the closed form."""
    n = len(x)
    return np.array(
        [sum(hadamard_entry(i, j, n) * x[j] for j in range(n)) for i in range(n)]
    )


def test_first_column_of_h2():
    out = fwht([1.0, 0.0])
    assert np.allclose(out, [2**-0.5, 2**-0.5], rtol=0, atol=1e-15)


def test_involution():
    rng = np.random.default_rng(11)
    for n in SIZES:
        x = rng.standard_normal(n)
        back = fwht(fwht(x))
        assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))


def test_matches_naive_oracle_n8():
    x = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0])
    expected = naive_transform(x)
    assert np.allclose(fwht(x), expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_matches_naive_oracle_random(n):
    x = np.random.default_rng(n).standard_normal(n)
    expected = naive_transform(x)
    err = np.max(np.abs(fwht(x) - expected)) / np.max(np.abs(expected))
    assert err <= 1e-12


@pytest.mark.parametrize(
    "i,j,n,expected",
    [
        (0, 0, 2, 2**-0.5),
        (0, 5, 8, 8**-0.5),
        (1, 1, 2, -(2**-0.5)),
        (5, 3, 8, -(8**-0.5)),  # popcount(5 & 3) = 1
    ],
)
def test_entry_examples(i, j, n, expected):
    assert hadamard_entry(i, j, n) == pytest.approx(expected, rel=0, abs=0)


def test_first_row_all_plus():
    for n in (2, 8, 64):
        assert all(hadamard_entry(0, j, n) == n**-0.5 for j in range(n))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_matrix_agrees_with_scalar_entries(n):
    h = hadamard_matrix(n)
    for i in range(n):
        for j in range(n):
            assert h[i, j] == hadamard_entry(i, j, n)


def test_orthogonality_sweep():
    for n in SIZES:
        h = hadamard_matrix(n)
        defect = np.max(np.abs(h.T @ h - np.eye(n)))
        assert defect <= 1e-12, f"n={n}: defect {defect}"


def test_energy_preservation():
    rng = np.random.default_rng(7)
    for n in SIZES:
        x = rng.standard_normal((n, 100))
        norms_in = np.linalg.norm(x, axis=0)
        norms_out = np.linalg.norm(fwht(x), axis=0)
        assert np.max(np.abs(norms_out - norms_in)) <= 1e-10 * np.max(norms_in)


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 8),
    a=st.floats(-100, 100),
    b=st.floats(-100, 100),
)
def test_linearity(seed, p, a, b):
    n = 1 << p
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    lhs = fwht(a * x + b * y)
    rhs = a * fwht(x) + b * fwht(y)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_matrix_transform_is_columnwise():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((32, 5))
    out = fwht(v)
    for c in range(5):
        assert np.allclose(out[:, c], fwht(v[:, c]), rtol=1e-14, atol=0)


def test_inplace_mutates_and_returns_buffer():
    x = np.array([1.0, 0.0])
    out = fwht_inplace(x)
    assert out is x
    assert np.allclose(x, [2**-0.5, 2**-0.5])


def oracle_error(x, rows, got):
    """Largest deviation of ``got`` from the dense rows of H applied to ``x``,
    relative to the largest column norm (which the transform preserves)."""
    cols = x.reshape(x.shape[0], -1)
    want = hadamard_matrix(x.shape[0], rows=rows) @ cols
    return np.max(np.abs(got.reshape(want.shape) - want)) / np.max(np.linalg.norm(cols, axis=0))


@pytest.mark.parametrize("p", range(17))
@settings(max_examples=8)
@given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_matches_dense_oracle_every_size(p, k, seed):
    # p = 0..16 covers every stage mix of the radix-16 kernel: one to four
    # stages, with a leftover 2, 4 or 8 block, odd and even stage counts.
    n = 1 << p
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    rows = np.sort(rng.choice(n, size=min(n, 16), replace=False))
    assert oracle_error(x, rows, fwht(x)[rows]) <= 1e-12


@pytest.mark.parametrize("n", [16, 32, 4096])  # one, two and three stages
def test_inplace_returns_buffer_holding_transform(n):
    x = np.random.default_rng(n).standard_normal((n, 3))
    original = x.copy()
    out = fwht_inplace(x)
    assert out is x
    rows = np.arange(0, n, n // 16)
    assert oracle_error(original, rows, x[rows]) <= 1e-12


def test_three_dimensional_input_is_columnwise():
    v = np.random.default_rng(5).standard_normal((64, 3, 2))
    out = fwht(v)
    for a in range(3):
        for b in range(2):
            col = v[:, a, b]
            assert np.max(np.abs(out[:, a, b] - fwht(col))) <= 1e-14 * np.linalg.norm(col)
    assert oracle_error(v, np.arange(64), out) <= 1e-12


def test_size_one_is_identity():
    x = np.array([[-2.5, 7.0, 0.125]])
    assert np.array_equal(fwht_inplace(x.copy()), x)
    assert np.array_equal(fwht([3.0]), [3.0])


@pytest.mark.parametrize("shape", [(64, 0), (1 << 20, 0), (4, 3, 0)])
def test_no_columns_is_a_no_op(shape):
    x = np.zeros(shape)
    assert fwht_inplace(x) is x


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        fwht([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fwht(5.0)
    with pytest.raises(ValueError):
        fwht_inplace(np.array(1.0))
    with pytest.raises(ValueError):
        fwht_inplace(np.zeros(5))
    with pytest.raises(ValueError):
        hadamard_matrix(12)


def test_inplace_rejects_wrong_dtype_and_layout():
    # float64 and float32 are the accepted dtypes
    for dtype in (np.float16, np.int64, np.complex128):
        with pytest.raises(ValueError):
            fwht_inplace(np.zeros(4, dtype=dtype))
    with pytest.raises(ValueError):
        fwht_inplace(np.zeros((8, 8))[:, :4].T)


@pytest.mark.parametrize("shape", [(4, 3), (65536, 16)])  # whole-array and pieced
def test_inplace_refuses_a_read_only_array_before_any_stage(shape):
    x = np.random.default_rng(7).standard_normal(shape)
    original = x.copy()
    x.setflags(write=False)
    with pytest.raises(ValueError, match="writeable"):
        fwht_inplace(x)
    assert np.array_equal(x, original)


# --- pieced transform --------------------------------------------------------

def whole_array_transform(x):
    """The radix-16 stage loop over the whole array, beside one scratch buffer
    of the same size, with blocks of x's dtype: the kernel as it was before
    arrays above 512 KiB were transformed in pieces."""
    n = x.shape[0]
    m = x.size // n
    src, dst = x, np.empty_like(x)
    h = 1
    while h < n:
        r = min(16, n // h)
        shape = (n // (r * h), r, h * m)
        block = hadamard_matrix(r).astype(x.dtype)
        np.matmul(block, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
        h *= r
    if src is not x:
        x[...] = src
    return x


# n = 2**13 .. 2**20: three to five stages, odd and even counts, with a
# leftover 2, 4 or 8 block at the top (2**17, 2**18, 2**19); m from one
# column to 300, arrays up to 20 MB.  Then the n x B x k stacks that
# ``sketch_stack`` transforms, and rows wider than 4096 columns, whose runs are
# 16 rows long (or the whole array, at 16 rows or fewer).
PIECED_SHAPES = [
    (1 << p, m) for p in range(13, 21) for m in (1, 3, 16, 17, 300) if (1 << p) * m <= 2_500_000
] + [(65536, 1, 16), (16384, 6, 16), (4096, 3, 17), (64, 8191), (32, 4097), (16, 20001)]


@pytest.mark.parametrize("shape", PIECED_SHAPES)
def test_pieced_transform_is_bit_identical_to_the_whole_array_stages(shape):
    x = np.random.default_rng(sum(shape)).standard_normal(shape)
    want = whole_array_transform(x.copy())
    assert fwht_inplace(x) is x
    assert np.array_equal(x, want)


# Largest deviation from the dense oracle, relative to the largest column
# norm, per dtype: about 8 float32 epsilons (2**-23) for float32, whose
# error measured 3.8e-8 at 4 x 3 and 2.0e-9 at 65536 x 16.
ORACLE_TOLERANCE = {np.float64: 1e-12, np.float32: 1e-6}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(4, 3), (65536, 16)])  # whole-array and pieced
def test_transform_keeps_its_dtype_and_matches_the_oracle(shape, dtype):
    x = np.random.default_rng(sum(shape)).standard_normal(shape).astype(dtype)
    original = x.astype(np.float64)
    want = whole_array_transform(x.copy())
    assert fwht_inplace(x) is x and x.dtype == dtype
    assert np.array_equal(x, want)
    rows = np.arange(0, shape[0], max(1, shape[0] // 16))
    assert oracle_error(original, rows, x[rows]) <= ORACLE_TOLERANCE[dtype]


@pytest.mark.parametrize("shape", PIECED_SHAPES)
def test_pieced_float32_transform_is_bit_identical_to_the_whole_array_stages(shape):
    x = np.random.default_rng(sum(shape)).standard_normal(shape).astype(np.float32)
    want = whole_array_transform(x.copy())
    assert fwht_inplace(x) is x
    assert np.array_equal(x, want)


def test_large_transform_needs_no_full_size_buffer():
    # 8 MiB at the headline embedding shape: one 512 KiB run buffer, then
    # two 256 KiB column slabs.  A full-size scratch buffer would be 8 MiB.
    x = np.random.default_rng(8).standard_normal((65536, 16))
    fwht_inplace(x)  # first-use allocations out of the way
    tracemalloc.start()
    try:
        fwht_inplace(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_entry_index_range():
    with pytest.raises(IndexError):
        hadamard_entry(4, 0, 4)
    with pytest.raises(IndexError):
        hadamard_entry(0, -1, 4)


def test_hadamard_matrix_rows_are_rows_of_h_n():
    h = hadamard_matrix(8)
    assert np.array_equal(hadamard_matrix(8, rows=[5, 0, 5]), h[[5, 0, 5]])
    assert np.array_equal(hadamard_matrix(8, rows=np.array([7], dtype=np.uint8)), h[[7]])
    assert hadamard_matrix(8, rows=[]).shape == (0, 8)
    # row 5 of H_4 used to come back as a +-0.5 row that is not in H_4, and
    # -1 wrapped through uint64
    for rows in ([5], [4], np.array([-1]), [0, 2, 4]):
        with pytest.raises(IndexError):
            hadamard_matrix(4, rows=rows)
    # 1.7 used to be truncated to row 1
    for rows in ([1.7], [1.0], np.array([True])):
        with pytest.raises(TypeError):
            hadamard_matrix(4, rows=rows)
    with pytest.raises(TypeError):
        hadamard_entry(1.7, 0, 4)


def test_hadamard_dim_validation():
    assert hadamard_size(16) == 16 and type(hadamard_size(np.int64(16))) is int
    for bad in (12, 0, -4):
        with pytest.raises(ValueError, match="n must be a positive power of two, got"):
            hadamard_size(bad)
    for bad in (16.0, "16"):
        with pytest.raises(TypeError, match="n must be an integer, got"):
            hadamard_size(bad)
