import importlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisyrk import (
    pseudoinverse,
    scaled_condition_number,
    sigma_min_nonzero,
    spectral_norm,
    svd,
)
from noisyrk.linalg import _identity_plus, _orthonormalize_columns, _read_table, _write_table

from conftest import make_matrix_with_rank


def jacobi_eigenvalues(s: np.ndarray, sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Independent symmetric-eigenvalue oracle: cyclic Jacobi rotations.

    Deliberately avoids LAPACK so SVD results can be checked against a
    separate algorithm.  Returns eigenvalues sorted descending.
    """
    a = np.array(s, dtype=float)
    n = a.shape[0]
    scale = np.abs(a).max()
    for _ in range(sweeps):
        off = np.sqrt(np.sum(a * a) - np.sum(np.diag(a) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-30:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.hypot(1.0, t)
                s_ = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s_
                rot[q, p] = -s_
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(3))
        assert f.sigma.size == 3
        assert_allclose(f.sigma, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diag_3_3_1(self):
        f = svd(np.diag([3.0, 3.0, 1.0]))
        assert f.sigma.size == 3
        assert_allclose(f.sigma, [3.0, 3.0, 1.0], atol=1e-14)

    def test_sigma_squared_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((10, 6))
        f = svd(a)
        eigs = jacobi_eigenvalues(a.T @ a)
        assert_allclose(f.sigma**2, eigs, rtol=1e-8)

    def test_zero_matrix_gives_empty_factors(self):
        f = svd(np.zeros((4, 3)))
        assert f.sigma.size == 0
        assert f.u.shape == (4, 0) and f.v.shape == (3, 0)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((7, 5))
            f = svd(a)
            err = np.linalg.norm((f.u * f.sigma) @ f.v.T - a, "fro")
            assert err <= 1e-8 * np.linalg.norm(a, "fro")

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 8))
        f = svd(a)
        assert np.max(np.abs(f.u.T @ f.u - np.eye(f.sigma.size))) <= 1e-10
        assert np.max(np.abs(f.v.T @ f.v - np.eye(f.sigma.size))) <= 1e-10
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma > 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestPseudoinverse:
    def test_identity(self):
        assert_allclose(pseudoinverse(np.eye(4)), np.eye(4), atol=1e-12)

    def test_rank_deficient_diagonal(self):
        assert_allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_zero_matrix_gives_zeros_of_the_transposed_shape(self):
        assert np.array_equal(pseudoinverse(np.zeros((3, 4))), np.zeros((4, 3)))

    def test_against_normal_equations_oracle(self):
        # full column rank: pinv(A) = (A^T A)^{-1} A^T via an LU solve
        rng = np.random.default_rng(8)
        a = rng.standard_normal((8, 4))
        expected = np.linalg.solve(a.T @ a, a.T)
        assert_allclose(pseudoinverse(a), expected, rtol=1e-8, atol=1e-10)

    def test_penrose_identities_many_random_shapes(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            r = int(rng.integers(1, min(m, n) + 1))
            a = make_matrix_with_rank(rng, m, n, r)
            p = pseudoinverse(a)
            scale_a = np.linalg.norm(a, "fro")
            scale_p = np.linalg.norm(p, "fro")
            assert np.linalg.norm(a @ p @ a - a, "fro") <= 1e-9 * scale_a
            assert np.linalg.norm(p @ a @ p - p, "fro") <= 1e-9 * scale_p
            ap = a @ p
            pa = p @ a
            assert np.linalg.norm(ap.T - ap, "fro") <= 1e-9 * max(1.0, np.linalg.norm(ap, "fro"))
            assert np.linalg.norm(pa.T - pa, "fro") <= 1e-9 * max(1.0, np.linalg.norm(pa, "fro"))


class TestScaledConditionNumber:
    def test_identity(self):
        assert scaled_condition_number(np.eye(5)) == pytest.approx(5.0, rel=1e-12)

    def test_diag_3_3_1(self):
        # (9 + 9 + 1) / 1
        assert scaled_condition_number(np.diag([3.0, 3.0, 1.0])) == pytest.approx(19.0, rel=1e-12)

    def test_diag_3_3_3(self):
        assert scaled_condition_number(np.diag([3.0, 3.0, 3.0])) == pytest.approx(3.0, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 4))
        for c in (0.003, -2.5, 1e4):
            assert scaled_condition_number(c * a) == pytest.approx(
                scaled_condition_number(a), rel=1e-10
            )

    def test_scale_invariance_where_sigma_squared_underflows(self):
        a = np.random.default_rng(11).standard_normal((6, 4))
        assert scaled_condition_number(1e-200 * a) == pytest.approx(scaled_condition_number(a), rel=1e-12)

    def test_at_least_rank(self):
        rng = np.random.default_rng(12)
        a = make_matrix_with_rank(rng, 9, 7, 4)
        assert scaled_condition_number(a) >= svd(a).sigma.size

    def test_zero_matrix_errors(self):
        with pytest.raises(ValueError):
            scaled_condition_number(np.zeros((3, 3)))


class TestNorms:
    def test_diag_3_1(self):
        a = np.diag([3.0, 1.0])
        assert spectral_norm(a) == pytest.approx(3.0, rel=1e-12)
        assert sigma_min_nonzero(a) == pytest.approx(1.0, rel=1e-12)

    def test_unit_rank_one(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        a = np.outer(u, v)
        assert spectral_norm(a) == pytest.approx(1.0, rel=1e-10)
        assert sigma_min_nonzero(a) == pytest.approx(1.0, rel=1e-10)

    def test_zero_matrix(self):
        z = np.zeros((3, 2))
        with pytest.raises(ValueError):
            spectral_norm(z)
        with pytest.raises(ValueError):
            sigma_min_nonzero(z)


class TestWeylInequality:
    def test_random_pairs(self):
        # |sigma_i(A+E) - sigma_i(A)| <= ||E|| with slack >= -1e-9
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((m, n))
            e = rng.standard_normal((m, n)) * float(rng.uniform(0.01, 2.0))
            sa = np.linalg.svd(a, compute_uv=False)
            st = np.linalg.svd(a + e, compute_uv=False)
            assert np.max(np.abs(st - sa)) <= spectral_norm(e) + 1e-9


class TestOrthonormalize:
    def test_orthonormal_input_fixed_up_to_signs(self):
        rng = np.random.default_rng(9)
        q0 = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        q = _orthonormalize_columns(q0)
        signs = np.sign(np.sum(q * q0, axis=0))
        assert_allclose(q * signs, q0, atol=1e-12)

    def test_hand_gram_schmidt(self):
        q = _orthonormalize_columns(np.array([[1.0, 1.0], [0.0, 1.0]]))
        signs = np.sign(np.diag(q))
        assert_allclose(q * signs, np.eye(2), atol=1e-12)

    def test_random_tall_matrix_invariant(self):
        rng = np.random.default_rng(10)
        q = _orthonormalize_columns(rng.standard_normal((50, 10)))
        assert np.max(np.abs(q.T @ q - np.eye(10))) <= 1e-10

    def test_dependent_columns_error(self):
        a = np.ones((5, 2))
        with pytest.raises(ValueError, match="dependent"):
            _orthonormalize_columns(a)


class TestIdentityPlus:
    @pytest.mark.parametrize("k, scale", [(1, 0.3), (1, 0.0), (4, 0.0), (7, 0.05), (30, 2.5)])
    def test_bit_identical_to_adding_the_identity(self, k, scale):
        m = np.random.default_rng(k).standard_normal((k, k))
        m.flags.writeable = False  # as the cached unit draws are
        before = m.copy()
        out = _identity_plus(scale, m)
        assert np.array_equal(out, np.eye(k) + scale * m)
        assert np.array_equal(m, before) and out.flags.writeable and not np.shares_memory(out, m)


class TestTextFormats:
    def test_matrix_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((5, 3)) * np.logspace(-8, 8, 3)
        path = tmp_path / "a.mat"
        _write_table(path, "5 3", a, " ")
        back = _read_table(path, (5, 3))
        assert back.shape == a.shape
        assert np.array_equal(back, a)
        assert (path.read_text().splitlines()[0]) == "5 3"

    def test_vector_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(34)
        v = rng.standard_normal(7) * 1e-5
        path = tmp_path / "v.vec"
        _write_table(path, "7", v)
        assert np.array_equal(_read_table(path, (7,)), v)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("2 2\n1 2\n")
        with pytest.raises(ValueError):
            _read_table(path, (None, None))


MODULES = ["noisyrk", *(f"noisyrk.{m}" for m in ("bounds", "cli", "experiments", "kaczmarz", "linalg", "problems"))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_deleted_spectral_helpers_are_gone():
    for module in ("noisyrk", "noisyrk.linalg", "noisyrk.problems"):
        mod = importlib.import_module(module)
        assert [name for name in ("singular_values", "_rank", "frobenius_norm") if hasattr(mod, name)] == []
    factors = svd(np.eye(2))
    assert not hasattr(factors, "rank") and not hasattr(factors, "pinv")


def test_deleted_bound_functions_are_gone():
    # evaluate_bound is the one way to evaluate a kind; bound_additive names the squared bound
    deleted = ["bound_noiseless", "bound_rhs_noise", "bound_multiplicative", "bound_perturbation_doubly",
               "bound_perturbation_partial", "bound_multiplicative_perturbation"]
    for module in ("noisyrk", "noisyrk.bounds"):
        mod = importlib.import_module(module)
        assert [name for name in deleted if hasattr(mod, name) or name in mod.__all__] == []
        assert {"bound_additive", "evaluate_bound"} <= set(mod.__all__)
        assert callable(mod.bound_additive) and callable(mod.evaluate_bound)


def test_deleted_table_functions_are_gone():
    # a system directory's tables are problems' to lay out, through linalg's one table reader and writer
    deleted = ["read_matrix", "write_matrix", "read_vector", "write_vector", "as_matrix", "as_vector", "_read_shaped"]
    for module in ("noisyrk", "noisyrk.linalg", "noisyrk.problems"):
        mod = importlib.import_module(module)
        assert [name for name in deleted if hasattr(mod, name) or name in mod.__all__] == []


def test_private_helpers_left_the_public_names():
    # read only by their own module and the tests, they carry a leading underscore and no public name
    for module, name in (("noisyrk.linalg", "orthonormalize_columns"), ("noisyrk.bounds", "perturbed_ls_distance")):
        for mod in (importlib.import_module("noisyrk"), importlib.import_module(module)):
            assert not hasattr(mod, name) and name not in mod.__all__
        assert callable(getattr(importlib.import_module(module), f"_{name}"))
