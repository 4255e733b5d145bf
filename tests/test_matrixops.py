import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swanopt.matrixops import (
    as_matrix,
    make_spd,
    random_matrix,
    sample_stiefel,
    schatten1_norm,
    sym_eig,
)


def brute_det(a):
    """Cofactor-expansion determinant for small matrices."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * brute_det(minor)
    return total


class TestSymEig:
    def test_diagonal(self):
        dec = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-12)

    def test_identity(self):
        dec = sym_eig(np.eye(5))
        assert np.allclose(dec.eigenvalues, 1.0)

    def test_diagonalizes(self):
        a = random_matrix(8, 8, 3)
        a = a + a.T
        dec = sym_eig(a)
        d = dec.eigenvectors.T @ a @ dec.eigenvectors
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) <= 1e-9

    def test_orthogonal_and_reconstructs(self):
        a = random_matrix(10, 10, 4)
        a = a + a.T
        dec = sym_eig(a)
        q = dec.eigenvectors
        assert np.linalg.norm(q @ q.T - np.eye(10)) <= 1e-10
        recon = q @ np.diag(dec.eigenvalues) @ q.T
        assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)

    def test_descending_order(self):
        dec = sym_eig(make_spd(7, 100.0, 0))
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_trace_and_determinant(self, seed):
        a = random_matrix(5, 5, seed)
        a = a + a.T
        dec = sym_eig(a)
        assert np.isclose(dec.eigenvalues.sum(), np.trace(a), rtol=1e-9, atol=1e-12)
        det = brute_det(a)
        assert np.isclose(np.prod(dec.eigenvalues), det, rtol=1e-8, atol=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sym_eig(random_matrix(3, 4, 0))


class TestNorms:
    def test_schatten_diagonal(self):
        assert np.isclose(schatten1_norm(np.diag([2.0, -3.0])), 5.0)

    def test_schatten_orthogonal(self):
        q = sample_stiefel(6, 6, 2)
        assert np.isclose(schatten1_norm(q), 6.0, atol=1e-10)

    def test_schatten_against_svd_oracle(self):
        # second, independent SVD route (LAPACK bidiagonalization)
        a = random_matrix(5, 5, 9)
        oracle = np.linalg.svd(a, compute_uv=False).sum()
        assert np.isclose(schatten1_norm(a), oracle, rtol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_norm_ordering(self, seed):
        a = random_matrix(4, 6, seed)
        assert schatten1_norm(a) >= np.linalg.norm(a) - 1e-12


class TestSampling:
    def test_stiefel_1x1(self):
        w = sample_stiefel(1, 1, 123)
        assert w.shape == (1, 1) and np.isclose(abs(w[0, 0]), 1.0)

    def test_stiefel_square(self):
        w = sample_stiefel(4, 4, 7)
        assert np.linalg.norm(w @ w.T - np.eye(4)) <= 1e-10

    def test_stiefel_wide_gram(self):
        w = sample_stiefel(3, 8, 1)
        assert np.linalg.norm(w @ w.T - np.eye(3)) <= 1e-10

    def test_stiefel_rejects_tall(self):
        with pytest.raises(ValueError, match="rows <= cols"):
            sample_stiefel(5, 3, 0)

    @pytest.mark.parametrize("rows, cols", ((0, 4), (0, 0)))
    def test_stiefel_rejects_empty(self, rows, cols):
        with pytest.raises(ValueError, match="1 <= rows <= cols"):
            sample_stiefel(rows, cols, 0)

    def test_stiefel_deterministic(self):
        assert np.array_equal(sample_stiefel(3, 5, 42), sample_stiefel(3, 5, 42))

    def test_make_spd_identity_like(self):
        h = make_spd(6, 1.0, 5)
        vals = np.linalg.eigvalsh(h)
        assert vals[-1] / vals[0] <= 1.0 + 1e-6

    def test_make_spd_condition_number(self):
        h = make_spd(50, 1e4, 3)
        dec = sym_eig(h)
        kappa = dec.eigenvalues[0] / dec.eigenvalues[-1]
        assert 1e4 * (1 - 1e-6) <= kappa <= 1e4 * (1 + 1e-6)

    def test_make_spd_positive_definite(self):
        h = make_spd(4, 10.0, 11)
        assert np.all(np.linalg.eigvalsh(h) > 0)

    @pytest.mark.parametrize("size", (1, 7, 50, 512))
    @pytest.mark.parametrize("kappa", (1.0, 1e4, 1e12))
    @pytest.mark.parametrize("seed", (0, 13))
    def test_make_spd_keeps_the_bytes_of_the_dense_diagonal_product(self, size, kappa, seed):
        # Q's columns scaled by lam, bit for bit what Q diag(lam) Q^T gave, symmetrized
        lam = np.geomspace(1.0, kappa, size)
        q = sample_stiefel(size, size, seed).T
        h = q @ np.diag(lam) @ q.T
        assert make_spd(size, kappa, seed).tobytes() == (0.5 * (h + h.T)).tobytes()

    @pytest.mark.parametrize("scale", (1.0, 0.7, 0.0, -2.0))
    def test_random_matrix_is_the_scaled_draw(self, scale):
        want = scale * np.random.default_rng(21).normal(size=(9, 13))
        assert random_matrix(9, 13, 21, scale=scale).tobytes() == want.tobytes()

    def test_make_spd_rejects_bad_kappa(self):
        with pytest.raises(ValueError, match="condition_number"):
            make_spd(4, 0.5, 0)


class TestValidation:
    def test_rejects_nan(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix(bad)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_matrix(np.ones(3))

    def test_rejects_complex_and_keeps_float64_input(self):
        with pytest.raises(ValueError, match=r"g must be real, got dtype complex64"):
            as_matrix(np.ones((2, 2), dtype=np.complex64), "g")
        x = random_matrix(2, 3, 0)
        assert as_matrix(x) is x
        assert as_matrix([[1, 2]]).dtype == np.float64

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"w must be \(3, 4\), got shape \(2, 2\)"):
            as_matrix(random_matrix(2, 2, 1), "w", (3, 4))
        assert as_matrix(np.ones((3, 4)), "w", (3, 4)).shape == (3, 4)
