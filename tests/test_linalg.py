import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import srhtlab.linalg as linalg_mod
from srhtlab.linalg import (
    RANK_RTOL,
    decimated_identity,
    gram,
    orthonormality_defect,
    random_orthonormal,
    singular_values,
    symmetric_eigenvalues,
)
from srhtlab.srht import apply_to_matrix, derived_rng, draw_srht
from srhtlab.wht import fwht


# --- independent oracles ----------------------------------------------------

def charpoly_coefficients(s):
    """Characteristic polynomial via Newton's identities on power-sum traces.

    Uses matrix products only, nothing spectral.  Returns [1, c1, ..., cn]
    for lambda^n + c1 lambda^(n-1) + ... + cn.
    """
    n = s.shape[0]
    power = np.eye(n)
    psums = []
    for _ in range(n):
        power = power @ s
        psums.append(np.trace(power))
    e = [1.0]
    for m in range(1, n + 1):
        acc = 0.0
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * e[m - i] * psums[i - 1]
        e.append(acc / m)
    return [(-1) ** i * e[i] for i in range(n + 1)]


def eigenvalues_by_bisection(s, grid_points=40001):
    """Roots of the characteristic polynomial bracketed on a Gershgorin grid
    and refined by bisection.  Assumes distinct eigenvalues."""
    coeffs = charpoly_coefficients(s)

    def poly(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    radius = float(np.max(np.sum(np.abs(s), axis=1)))
    grid = np.linspace(-radius - 1.0, radius + 1.0, grid_points)
    vals = [poly(x) for x in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            lo, hi, flo = a, b, fa
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = poly(mid)
                if fmid == 0.0:
                    lo = hi = mid
                    break
                if flo * fmid < 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
                if hi - lo < 1e-14 * max(1.0, abs(mid)):
                    break
            roots.append(0.5 * (lo + hi))
    assert len(roots) == s.shape[0], f"bracketed {len(roots)} of {s.shape[0]} roots"
    return np.sort(np.array(roots))[::-1]


def gram_by_loops(a):
    m, k = a.shape
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            for r in range(m):
                out[i, j] += a[r, i] * a[r, j]
    return out


# --- random_orthonormal -----------------------------------------------------

def test_square_case_is_orthogonal():
    v = random_orthonormal(4, 4, 0)
    assert np.max(np.abs(v.T @ v - np.eye(4))) <= 1e-10
    assert np.max(np.abs(v @ v.T - np.eye(4))) <= 1e-10


def test_column_norms():
    v = random_orthonormal(64, 8, 1)
    assert np.max(np.abs(np.linalg.norm(v, axis=0) - 1.0)) <= 1e-12


def test_seed_sensitivity():
    a = random_orthonormal(16, 4, 0)
    b = random_orthonormal(16, 4, 1)
    assert np.linalg.norm(a - b) > 1e-3
    assert np.array_equal(a, random_orthonormal(16, 4, 0))


def test_random_orthonormal_rejects_wide():
    with pytest.raises(ValueError):
        random_orthonormal(3, 4, 0)


@pytest.mark.parametrize(
    "n, k, error",
    [(True, 1, TypeError), (4, np.True_, TypeError), (16.5, 2, TypeError),
     (16, 2.5, TypeError), (np.inf, 2, TypeError), (16, np.nan, TypeError),
     (16.0, 2, TypeError), (4, 0, ValueError)],
)
def test_random_orthonormal_refuses_bad_sizes_before_drawing(n, k, error):
    with mock.patch.object(linalg_mod, "standard_normals", side_effect=AssertionError("drew")):
        with pytest.raises(error):
            random_orthonormal(n, k, 0)


# square shapes, where one Cholesky QR pass alone is visibly not orthonormal,
# and tall ones up to the headline embedding's
@pytest.mark.parametrize("n, k", [(4, 4), (64, 64), (16, 2), (4096, 64), (65536, 16)])
@pytest.mark.parametrize("seed", [0, (12345, 0, 0, 0)])
def test_basis_is_the_sign_fixed_orthonormal_factor_of_its_draw(n, k, seed):
    v = random_orthonormal(n, k, seed)
    assert v.shape == (n, k)
    assert orthonormality_defect(v) <= 1e-12
    assert np.array_equal(v, random_orthonormal(n, k, seed))
    # the Q of G = QR with R's diagonal positive, as Householder QR gives it
    q, r = np.linalg.qr(derived_rng(seed).standard_normal((n, k)))
    assert np.max(np.abs(v - q * np.where(np.diag(r) < 0, -1.0, 1.0))) <= 1e-12


def test_basis_holds_two_arrays_of_its_size():
    # the draw, with the basis written over it, and numpy's copy of it while
    # each pass writes over it; a third n x k array would put the peak at
    # 24 MiB
    n, k = 65536, 16
    random_orthonormal(n, k, 0)  # first-use allocations out of the way
    tracemalloc.start()
    try:
        random_orthonormal(n, k, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * k * 8 + 64 * 1024


def _ill_conditioned(n, k, cond, seed):
    """n x k matrix with singular values log-spaced from 1 to 1/cond in random
    bases on both sides: scaling columns alone would not hurt Cholesky QR."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, k)))
    w, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (u * np.logspace(0, -np.log10(cond), k)) @ w.T


# on these draws a Cholesky factorization fails (256 x 16 and 16 x 16), or
# both succeed and the result's defect is near 1e-5 (64 x 8)
@pytest.mark.parametrize("n, k, cond", [(256, 16, 1e11), (64, 8, 1e14), (16, 16, 1e16)])
def test_ill_conditioned_draw_raises_instead_of_returning_a_basis(n, k, cond):
    g = _ill_conditioned(n, k, cond, 1)
    assert np.linalg.cond(g) >= 1e10

    def ill_conditioned_normals(seeds, out):
        out[...] = g
        yield out

    draws = mock.Mock(side_effect=ill_conditioned_normals)
    with mock.patch.object(linalg_mod, "standard_normals", draws):
        with pytest.raises(RuntimeError, match="Cholesky QR"):
            random_orthonormal(n, k, 0)
    draws.assert_called_once()
    seeds, out = draws.call_args.args
    assert seeds == [0] and out.shape == (n, k)


@pytest.mark.parametrize("defect", [1.0000001e-8, 1.0, np.inf, np.nan])
def test_basis_past_the_defect_limit_raises(defect):
    # every defect, the first pass's included, reads past the limit
    with mock.patch.object(linalg_mod, "_gram_defect", return_value=defect):
        with pytest.raises(RuntimeError, match="lost orthonormality"):
            random_orthonormal(16, 4, 0)


def _counted_factorizations():
    return mock.patch.object(linalg_mod, "_cholesky_r", wraps=linalg_mod._cholesky_r)


# tall draws, from the headline embedding's down to the exhaustive fixtures'
# and one column
@pytest.mark.parametrize("n, k", [(65536, 16), (16, 2), (8, 2), (1024, 1), (2, 1)])
@pytest.mark.parametrize("seed", [0, (12345, 0, 0, 0)])
def test_tall_draws_take_one_pass(n, k, seed):
    with _counted_factorizations() as factor:
        v = random_orthonormal(n, k, seed)
    assert factor.call_count == 1
    assert orthonormality_defect(v) <= linalg_mod.ONE_PASS_DEFECT


# square Gaussian draws, and ill-conditioned tall ones that still factor
@pytest.mark.parametrize(
    "g",
    [
        derived_rng(0).standard_normal((64, 64)),
        derived_rng(1).standard_normal((256, 256)),
        _ill_conditioned(64, 8, 1e2, 1),
        _ill_conditioned(256, 16, 1e3, 1),
        _ill_conditioned(256, 16, 1e6, 1),
    ],
    ids=["64x64", "256x256", "64x8-cond1e2", "256x16-cond1e3", "256x16-cond1e6"],
)
def test_square_and_ill_conditioned_draws_take_two_passes(g):
    with _counted_factorizations() as factor:
        v = linalg_mod._cholesky_qr(g.copy(), gram(g))
    assert factor.call_count == 2
    assert orthonormality_defect(v) <= 1e-12
    q, r = np.linalg.qr(g)
    assert np.max(np.abs(v - q * np.where(np.diag(r) < 0, -1.0, 1.0))) <= 1e-12 * np.linalg.cond(g)


@pytest.mark.parametrize(
    "planted, passes",
    [(linalg_mod.ONE_PASS_DEFECT, 1), (np.nextafter(linalg_mod.ONE_PASS_DEFECT, 1.0), 2)],
)
def test_first_pass_defect_past_the_bound_takes_the_second_pass(planted, passes):
    # the first pass's defect is planted; every later one is measured
    g = derived_rng(3).standard_normal((64, 4))
    q1 = g @ np.linalg.inv(np.linalg.cholesky(gram(g)).T)
    two_pass = q1 @ np.linalg.inv(np.linalg.cholesky(gram(q1)).T)
    defects = [planted]
    real = linalg_mod._gram_defect

    def planted_first(s):
        return defects.pop() if defects else real(s)

    with _counted_factorizations() as factor, \
            mock.patch.object(linalg_mod, "_gram_defect", side_effect=planted_first):
        v = linalg_mod._cholesky_qr(g.copy(), gram(g))
    assert factor.call_count == passes
    assert np.array_equal(v, q1 if passes == 1 else two_pass)


# --- gram ---------------------------------------------------------------

def test_gram_identity():
    assert np.array_equal(gram(np.eye(3)), np.eye(3))


def test_gram_single_column():
    assert np.allclose(gram(np.array([[3.0], [4.0]])), [[25.0]])


def test_gram_matches_triple_loop():
    a = np.random.default_rng(9).standard_normal((5, 2))
    assert np.max(np.abs(gram(a) - gram_by_loops(a))) <= 1e-12


def test_gram_output_symmetric():
    a = np.random.default_rng(10).standard_normal((40, 6))
    g = gram(a)
    assert np.max(np.abs(g - g.T)) <= 1e-14


# --- symmetric_eigenvalues ----------------------------------------------

def test_eigenvalues_of_diagonal():
    assert np.allclose(symmetric_eigenvalues(np.diag([5.0, 2.0, -1.0])), [5.0, 2.0, -1.0])


def test_eigenvalues_analytic_2x2():
    assert np.allclose(symmetric_eigenvalues([[2.0, 1.0], [1.0, 2.0]]), [3.0, 1.0], atol=1e-12)


def test_eigenvalues_match_charpoly_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        s = rng.standard_normal((4, 4))
        s = (s + s.T) / 2
        got = symmetric_eigenvalues(s)
        expected = eigenvalues_by_bisection(s)
        assert np.max(np.abs(got - expected)) <= 1e-8


def test_eigenvalue_sum_is_trace():
    rng = np.random.default_rng(22)
    s = rng.standard_normal((7, 7))
    s = (s + s.T) / 2
    eig = symmetric_eigenvalues(s)
    assert abs(eig.sum() - np.trace(s)) <= 1e-8 * np.linalg.norm(s)
    assert np.all(np.diff(eig) <= 0)


def test_similarity_invariance():
    rng = np.random.default_rng(23)
    s = rng.standard_normal((5, 5))
    s = (s + s.T) / 2
    p = random_orthonormal(5, 5, 99)
    a = symmetric_eigenvalues(s)
    b = symmetric_eigenvalues(p.T @ s @ p)
    assert np.max(np.abs(a - b)) <= 1e-8


def test_stacked_input_matches_loop():
    rng = np.random.default_rng(24)
    batch = rng.standard_normal((6, 5, 5))
    batch = (batch + batch.transpose(0, 2, 1)) / 2
    stacked = symmetric_eigenvalues(batch)
    for i in range(6):
        assert np.allclose(stacked[i], symmetric_eigenvalues(batch[i]), atol=1e-12)


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigenvalues_refuse_non_finite_input(bad):
    # NaN used to slip past the symmetry test and give NaN eigenvalues, and
    # inf raised a RuntimeWarning from inf - inf
    s = np.eye(3)
    s[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_eigenvalues(s)
    stack = np.stack([np.eye(3), s])
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_eigenvalues(stack)
    with pytest.raises(ValueError, match="non-finite"):
        symmetric_eigenvalues(np.full((2, 2), bad))


def test_zero_and_1x1():
    assert np.array_equal(symmetric_eigenvalues(np.zeros((3, 3))), np.zeros(3))
    assert np.allclose(symmetric_eigenvalues([[4.0]]), [4.0])


# --- singular_values ------------------------------------------------------

def test_singular_values_identity():
    assert np.allclose(singular_values(np.eye(4)), np.ones(4))


def test_singular_values_diagonal():
    assert np.allclose(singular_values(np.diag([3.0, 4.0])), [4.0, 3.0])


def test_singular_values_match_charpoly_oracle():
    a = np.random.default_rng(31).standard_normal((6, 3))
    got = singular_values(a)
    eig = eigenvalues_by_bisection(gram(a))
    expected = np.sqrt(np.clip(eig, 0.0, None))
    assert np.max(np.abs(got - expected)) <= 1e-7


def test_singular_values_of_a_wide_matrix_end_below_the_rank_tolerance():
    # an m x k sketch with m < k returns k values: the m nonzero ones are
    # the roots of A A^T's eigenvalues, and the last k - m read as rank loss
    k = 5
    for m in (0, 1, 2, 4):
        a = np.random.default_rng(m).standard_normal((m, k))
        got = singular_values(a)
        assert got.shape == (k,)
        expected = np.sqrt(eigenvalues_by_bisection(a @ a.T)) if m else np.zeros(0)
        assert np.max(np.abs(got[:m] - expected), initial=0.0) <= 1e-7
        assert np.all(got[m:] <= RANK_RTOL * max(got[0], 1.0))
        stacked = singular_values(np.stack([a, 2.0 * a]))
        assert stacked.shape == (2, k) and np.all(stacked[:, m:] <= RANK_RTOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_singular_values_refuse_non_finite_input(bad):
    # one inf used to give NaN singular values, and an all-NaN matrix raised
    # LinAlgError: SVD did not converge
    a = np.ones((3, 2))
    a[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(a)
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(np.stack([np.eye(3, 2), a]))
    with pytest.raises(ValueError, match="non-finite"):
        singular_values(np.full((3, 2), bad))


def test_full_sample_sketch_has_unit_spectrum():
    n, k = 64, 5
    v = random_orthonormal(n, k, 7)
    op = draw_srht(n, n, 3)
    s = singular_values(apply_to_matrix(op, v))
    assert np.max(np.abs(s - 1.0)) <= 1e-8


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25)
def test_top_singular_value_vs_trace(seed):
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(2, 10)), int(rng.integers(1, 5))
    a = rng.standard_normal((m + k, k))
    s = singular_values(a)
    trace = np.trace(gram(a))
    assert s[0] ** 2 <= trace * (1 + 1e-10)
    assert trace <= k * s[0] ** 2 * (1 + 1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_stacked_spectra_match_per_matrix_and_oracle(seed):
    rng = np.random.default_rng(seed)
    depth, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    a = rng.standard_normal((depth, k + int(rng.integers(0, 6)), k))
    grams = gram(a)
    eig_stack = symmetric_eigenvalues(grams)
    sv_stack = singular_values(a)
    for i in range(depth):
        eig, sv = symmetric_eigenvalues(grams[i]), singular_values(a[i])
        assert np.allclose(eig_stack[i], eig, rtol=0.0, atol=1e-12)
        assert np.allclose(sv_stack[i], sv, rtol=0.0, atol=1e-12)
        expected = eigenvalues_by_bisection(grams[i])
        assert np.max(np.abs(eig - expected)) <= 1e-8
        assert np.max(np.abs(sv - np.sqrt(np.clip(expected, 0.0, None)))) <= 1e-7


# --- decimated_identity -----------------------------------------------------

def test_decimated_identity_k2():
    w = decimated_identity(2)
    expected = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(w, expected)


def test_decimated_identity_exactly_orthonormal():
    w = decimated_identity(8)
    assert np.array_equal(gram(w), np.eye(8))


def test_decimated_identity_rejects_non_power():
    with pytest.raises(ValueError):
        decimated_identity(6)


def test_transformed_decimation_has_row_classes():
    # after sign flip + transform, rows with equal floor(r/k) are parallel
    # and rows from different classes are orthogonal
    k = 4
    n = k * k
    w = decimated_identity(k)
    rng = np.random.default_rng(5)
    signs = 2.0 * rng.integers(0, 2, size=n) - 1.0
    v = fwht(signs[:, None] * w)
    for r in range(n):
        for rp in range(r + 1, n):
            dot = float(v[r] @ v[rp])
            cos = dot / (np.linalg.norm(v[r]) * np.linalg.norm(v[rp]))
            if r // k == rp // k:
                assert abs(abs(cos) - 1.0) <= 1e-10, (r, rp)
            else:
                assert abs(cos) <= 1e-10, (r, rp)


# --- orthonormality_defect ------------------------------------------------

def test_orthonormality_defect_values():
    assert orthonormality_defect(np.eye(5)) == 0.0
    assert orthonormality_defect(2 * np.eye(3)) == pytest.approx(3.0)


def test_orthonormality_defect_reads_a_vector_as_one_column():
    assert orthonormality_defect(np.array([0.0, 1.0, 0.0])) == 0.0
    assert orthonormality_defect([3.0, 4.0]) == 24.0
