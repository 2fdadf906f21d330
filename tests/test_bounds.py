import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisyrk import (
    BoundKind,
    HypothesisError,
    LinearSystem,
    NoiseModel,
    RkConfig,
    Spacing,
    SpectrumSpec,
    additive_noise,
    bound_additive,
    evaluate_bound,
    generate_system,
    horizon_comparison,
    initial_iterates,
    iterations_to_tolerance,
    multiplicative_noise,
    partial_consistent_noise,
    perturbed_ls_distance,
    preconditioner_noise,
    pseudoinverse,
    sigma_min_nonzero,
    solve,
    spectral_norm,
    write_bound_csv,
)

KS = np.arange(0, 201, 20)


@pytest.fixture(scope="module")
def x0s(small_system):
    """A one-trial (1, n) stack of starts."""
    return initial_iterates(small_system.a, RkConfig(max_iterations=1, trials=1, seed=5))


def noise_free(sys_):
    """``sys_`` as a noisy system that carries no noise."""
    return additive_noise(sys_, 0.0, 0.0, seed=1)


@pytest.fixture(scope="module")
def clean(small_system):
    return noise_free(small_system)


@pytest.fixture(scope="module")
def partial(small_system):
    return partial_consistent_noise(small_system, 0.4, seed=21)


def zero_rhs_system(m):
    """m x 15 full-column-rank system whose right-hand side is zero."""
    base = generate_system(SpectrumSpec(m=m, n=15, r=15, sigma_min=1.0, sigma_max=4.0), seed=3)
    return dataclasses.replace(base, b=np.zeros(m), x_ls=np.zeros(15))


def toy_system_aligned_with_last_direction():
    """3x3 flat-top system whose solution is the last right singular vector."""
    spec = SpectrumSpec(m=3, n=3, r=3, sigma_min=1.0, sigma_max=3.0, spacing=Spacing.FLAT_TOP)
    base = generate_system(spec, seed=2)
    v_last = base.factors.v[:, -1]
    b = base.a @ v_last
    return LinearSystem(a=base.a, b=b, x_ls=base.factors.pinv_apply(b))


class TestBoundNoiseless:
    def test_value_at_zero_is_initial_error(self, small_system, clean, x0s):
        curve = evaluate_bound(BoundKind.NOISELESS, clean, x0s, KS)
        d = x0s[0] - small_system.x_ls
        assert curve.values[0] == pytest.approx(float(d @ d), rel=1e-14)
        assert curve.horizon == 0.0
        assert curve.squared

    def test_identity_rate(self):
        a = np.eye(6)
        base = LinearSystem(a=a, b=np.ones(6), x_ls=np.ones(6))
        curve = evaluate_bound(BoundKind.NOISELESS, noise_free(base), np.zeros((1, 6)), [0, 1])
        assert curve.rate == pytest.approx(1 - 1 / 6, rel=1e-14)

    def test_toy_reaches_half_at_269(self):
        sys_ = toy_system_aligned_with_last_direction()  # R = 19
        start = sys_.x_ls + 1000.0 * sys_.factors.v[:, 0]  # squared distance 1e6
        curve = evaluate_bound(BoundKind.NOISELESS, noise_free(sys_), start[None], [269])
        assert curve.initial_error == pytest.approx(1e6, rel=1e-9)
        assert curve.values[0] <= 0.5

    def test_values_nonincreasing_and_above_horizon(self, clean, x0s):
        curve = evaluate_bound(BoundKind.NOISELESS, clean, x0s, KS)
        assert np.all(np.diff(curve.values) <= 0)
        assert np.all(curve.values >= curve.horizon)


class TestBoundRhsNoise:
    def test_zero_noise_reduces_to_noiseless(self, clean, x0s):
        c1 = evaluate_bound(BoundKind.RHS_NOISE, clean, x0s, KS)
        c0 = evaluate_bound(BoundKind.NOISELESS, clean, x0s, KS)
        assert_allclose(c1.values, c0.values, rtol=1e-14)

    def test_identity_horizon(self):
        a = np.eye(4)
        base = LinearSystem(a=a, b=np.ones(4), x_ls=np.ones(4))
        eps = np.array([2.0, 0.0, 0.0, 0.0])
        noisy = dataclasses.replace(noise_free(base), sigma_b=1.0, b_tilde=base.b + eps)
        curve = evaluate_bound(BoundKind.RHS_NOISE, noisy, np.zeros((1, 4)), [0])
        assert curve.horizon == pytest.approx(4.0, rel=1e-14)

    def test_matches_additive_bound_when_matrix_noise_off(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.0, 0.7, seed=3)
        via_additive = bound_additive(noisy, x0s, KS)
        via_rhs = evaluate_bound(BoundKind.RHS_NOISE, noisy, x0s, KS)
        assert np.max(np.abs(via_additive.values - via_rhs.values)) <= 1e-12 * via_rhs.values[0]
        assert via_additive.rate == via_rhs.rate
        assert via_additive.horizon == pytest.approx(via_rhs.horizon, abs=1e-15)


@pytest.mark.parametrize("kind, sigma_b", [("noiseless", 0.0), ("rhs_noise", 0.7)])
@pytest.mark.parametrize("system", ["small_system", "rank_deficient_system"])
def test_noiseless_and_rhs_noise_are_the_additive_bound(request, kind, sigma_b, system):
    sys_ = request.getfixturevalue(system)
    noisy = additive_noise(sys_, 0.0, sigma_b, seed=3)
    x0s = np.random.default_rng(4).standard_normal((3, sys_.a.shape[1]))
    curve, additive = evaluate_bound(kind, noisy, x0s, KS), bound_additive(noisy, x0s, KS)
    assert curve.kind.value == kind
    assert np.array_equal(curve.values, additive.values)
    assert curve.scalars == additive.scalars
    assert ("null_space_error" in curve.scalars) == (system == "rank_deficient_system")


class TestPerturbedLsDistance:
    def test_no_noise_gives_zero(self, small_system):
        from noisyrk import perturbed_ls_distance

        noisy = additive_noise(small_system, 0.0, 0.0, seed=1)
        assert perturbed_ls_distance(noisy) == pytest.approx(0.0, abs=1e-15)

    def test_rhs_only_collapses_to_pinv_times_eps(self, small_system):
        from noisyrk import perturbed_ls_distance

        noisy = additive_noise(small_system, 0.0, 0.3, seed=1)
        expected = np.linalg.norm(noisy.rhs_noise()) / sigma_min_nonzero(small_system.a)
        assert perturbed_ls_distance(noisy) == pytest.approx(expected, rel=1e-12)

    def test_dominates_direct_distance(self, small_system):
        from noisyrk import perturbed_ls_distance

        noisy = additive_noise(small_system, 0.002, 0.01, seed=14)
        bound = perturbed_ls_distance(noisy)
        x_nls = pseudoinverse(noisy.a_tilde) @ noisy.b_tilde
        assert bound >= np.linalg.norm(x_nls - small_system.x_ls)

    def test_partial_instance_with_rhs_noise(self, small_system, partial):
        from noisyrk import perturbed_ls_distance

        eps = np.sin(np.arange(40.0))  # fixed small perturbation
        noisy = dataclasses.replace(partial, sigma_b=0.01, b_tilde=small_system.b + 0.01 * eps)
        bound = perturbed_ls_distance(noisy)
        x_nls = pseudoinverse(noisy.a_tilde) @ noisy.b_tilde
        assert bound >= np.linalg.norm(x_nls - small_system.x_ls)

    def test_large_noise_rejected(self, small_system):
        from noisyrk import perturbed_ls_distance

        noisy = additive_noise(small_system, 5.0, 0.0, seed=1)
        with pytest.raises(HypothesisError, match="smallness"):
            perturbed_ls_distance(noisy)


class TestBoundPerturbationDoubly:
    def test_zero_noise_collapse_to_unsquared_decay(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.0, 0.0, seed=1)
        curve = evaluate_bound(BoundKind.PERTURBATION_DOUBLY, noisy, x0s, KS)
        squared = evaluate_bound(BoundKind.NOISELESS, noisy, x0s, KS)
        assert not curve.squared
        assert curve.horizon == pytest.approx(0.0, abs=1e-15)
        assert_allclose(curve.values**2, squared.values, rtol=1e-10)

    def test_partial_instance_horizon_formula(self, small_system, partial):
        curve = evaluate_bound(BoundKind.PERTURBATION_DOUBLY, partial, small_system.x_ls[None], KS)
        q = 0.4
        expected = 2 * np.linalg.norm(small_system.x_ls) * q / (1 - q)
        assert curve.horizon == pytest.approx(expected, rel=1e-9)

    def test_dominates_unsquared_empirical_mean(self, partial):
        cfg = RkConfig(max_iterations=2000, trials=20, record_stride=100, seed=6)
        traj = solve(partial, cfg)
        x0s = initial_iterates(partial.a_tilde, cfg)
        curve = evaluate_bound(BoundKind.PERTURBATION_DOUBLY, partial, x0s, traj.recorded_iterations)
        assert np.all(traj.mean_error() <= curve.values + 1e-9)

    def test_inconsistent_system_rejected(self, small_system):
        noisy = additive_noise(small_system, 0.01, 0.0, seed=2)
        with pytest.raises(HypothesisError, match="consistency"):
            evaluate_bound(BoundKind.PERTURBATION_DOUBLY, noisy, small_system.x_ls[None], KS)

    def test_zero_rhs_rejected(self):
        sys_ = zero_rhs_system(30)
        noisy = additive_noise(sys_, 0.0, 0.0, seed=1)
        with pytest.raises(HypothesisError, match="right-hand side is zero"):
            evaluate_bound(BoundKind.PERTURBATION_DOUBLY, noisy, np.ones((1, 15)), KS)


class TestBoundPerturbationPartial:
    def test_model_mismatch_rejected(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.01, 0.0, seed=2)
        with pytest.raises(HypothesisError, match="partial"):
            evaluate_bound(BoundKind.PERTURBATION_PARTIAL, noisy, x0s, KS)

    def test_zero_noise_horizon_zero(self, small_system, partial, x0s):
        clean = dataclasses.replace(partial, a_tilde=small_system.a.copy())
        curve = evaluate_bound(BoundKind.PERTURBATION_PARTIAL, clean, x0s, KS)
        assert curve.horizon == pytest.approx(0.0, abs=1e-15)

    def test_matrix_only_horizon(self, small_system, partial, x0s):
        curve = evaluate_bound(BoundKind.PERTURBATION_PARTIAL, partial, x0s, KS)
        q = 0.4
        expected = 2 * np.linalg.norm(small_system.x_ls) * q / (1 - q)
        assert curve.horizon == pytest.approx(expected, rel=1e-9)
        # with no right-hand side noise this equals the doubly-noisy horizon
        doubly = evaluate_bound(BoundKind.PERTURBATION_DOUBLY, partial, x0s, KS)
        assert curve.horizon == pytest.approx(doubly.horizon, rel=1e-12)

    def test_initial_error_uses_partial_solution(self, small_system, partial, x0s):
        curve = evaluate_bound(BoundKind.PERTURBATION_PARTIAL, partial, x0s, KS)
        x_pnls = pseudoinverse(partial.a_tilde) @ small_system.b
        assert curve.initial_error == pytest.approx(np.linalg.norm(x0s[0] - x_pnls), rel=1e-12)


class TestBoundAdditive:
    def test_zero_noise(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.0, 0.0, seed=1)
        curve = bound_additive(noisy, x0s, KS)
        assert curve.horizon == 0.0
        clean = evaluate_bound(BoundKind.NOISELESS, noisy, x0s, KS)
        assert curve.rate == pytest.approx(clean.rate, rel=1e-14)

    def test_preconditioner_toy_horizon(self):
        sys_ = toy_system_aligned_with_last_direction()
        noisy = preconditioner_noise(sys_)
        curve = bound_additive(noisy, sys_.x_ls[None], [0, 1])
        # noise maps the solution to 2 u_r, and sigma_min of the filled
        # spectrum is 3, so the horizon is 4/9
        assert curve.horizon == pytest.approx(4.0 / 9.0, rel=1e-9)
        assert curve.rate == pytest.approx(1 - 1 / 3, rel=1e-9)

    def test_any_model_accepted(self, small_system, partial):
        curve = bound_additive(partial, small_system.x_ls[None], KS)
        assert curve.horizon > 0

    def test_full_column_rank_keeps_no_basis_and_adds_no_key(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.1, 0.1, seed=1)
        curve = bound_additive(noisy, x0s, KS)
        assert noisy.analysis.row_basis is None
        assert "null_space_error" not in curve.scalars

    def test_wide_system_carries_the_null_space_part(self):
        sys_ = generate_system(SpectrumSpec(m=5, n=12, r=3, sigma_min=1.0, sigma_max=4.0), seed=3)
        noisy = additive_noise(sys_, 0.2, 0.1, seed=2)
        x0s = initial_iterates(noisy.a_tilde, RkConfig(max_iterations=1, trials=3, seed=5))
        curve = bound_additive(noisy, x0s, KS)
        p_null = np.eye(12) - pseudoinverse(noisy.a_tilde) @ noisy.a_tilde
        d = (x0s - sys_.x_ls) @ p_null
        expected = float(np.mean(np.sum(d * d, axis=1)))
        assert noisy.analysis.row_basis.shape == (12, 5)
        assert curve.scalars["null_space_error"] == pytest.approx(expected, rel=1e-10)
        mismatch = curve.scalars["noise_mismatch_norm"] / curve.scalars["sigma_min_tilde"]
        assert curve.horizon == pytest.approx(mismatch**2 + expected, rel=1e-12)


class TestBoundMultiplicative:
    def test_zero_noise(self, small_system, x0s):
        noisy = multiplicative_noise(small_system, 0.0, 0.0, seed=4)
        curve = evaluate_bound(BoundKind.MULTIPLICATIVE, noisy, x0s, KS)
        assert curve.horizon == 0.0

    def test_left_only_effective_noise(self, small_system, x0s):
        noisy = multiplicative_noise(small_system, 0.05, 0.0, use_f=False, seed=4)
        expected = 0.05 * noisy.e @ small_system.a
        assert np.max(np.abs(noisy.matrix_noise() - expected)) <= 1e-12
        curve = evaluate_bound(BoundKind.MULTIPLICATIVE, noisy, x0s, KS)
        mism = expected @ small_system.x_ls
        sigma_min = sigma_min_nonzero(noisy.a_tilde)
        assert curve.horizon == pytest.approx(float(mism @ mism) / sigma_min**2, rel=1e-10)

    def test_matrix_noise_matches_the_expansion(self, small_system):
        noisy = multiplicative_noise(small_system, 0.03, 0.0, seed=4)
        a, e, f = small_system.a, 0.03 * noisy.e, 0.03 * noisy.f
        expansion = e @ a + a @ f + e @ a @ f
        assert np.max(np.abs(noisy.matrix_noise() - expansion)) <= 1e-10 * spectral_norm(a)

    def test_model_mismatch_rejected(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.1, 0.0, seed=4)
        with pytest.raises(HypothesisError, match="multiplicative"):
            evaluate_bound(BoundKind.MULTIPLICATIVE, noisy, x0s, KS)


def consistent_multiplicative_instance(sys_, sigma_a, use_f, seed):
    """Multiplicative instance made consistent by absorbing the matrix
    perturbation into the right-hand side noise."""
    noisy = multiplicative_noise(sys_, sigma_a, 0.0, use_f=use_f, seed=seed)
    eps = noisy.matrix_noise() @ sys_.x_ls
    return dataclasses.replace(
        noisy, eps=eps, sigma_b=1.0, b_tilde=sys_.b + eps
    )


def singular_factor_instance(sys_, factor, consistent):
    """Multiplicative instance whose I + sigma_a E (``factor`` "E") or I + sigma_a F is singular.

    sigma_a times that factor is -u u^T / ||u||^2, so I + sigma_a * factor annihilates u.
    With ``consistent`` the noisy right-hand side is a_tilde x_ls; else it keeps a drawn
    rhs noise that leaves the 40x20 noisy system inconsistent.
    """
    sigma_a = 0.5
    noisy = multiplicative_noise(sys_, 0.0, 0.3, seed=5)
    m, n = sys_.a.shape
    u = np.random.default_rng(3).standard_normal(m if factor == "E" else n)
    drop = -np.outer(u, u) / (sigma_a * (u @ u))
    if factor == "E":
        e, f, a_tilde = drop, None, (np.eye(m) + sigma_a * drop) @ sys_.a
    else:
        e, f, a_tilde = None, drop, sys_.a @ (np.eye(n) + sigma_a * drop)
    b_tilde = a_tilde @ sys_.x_ls if consistent else noisy.b_tilde
    return dataclasses.replace(
        noisy, e=e, f=f, sigma_a=sigma_a, a_tilde=a_tilde,
        eps=b_tilde - sys_.b, sigma_b=1.0, b_tilde=b_tilde,
    )


class TestBoundMultiplicativePerturbation:
    def test_zero_noise_horizon_zero(self, small_system, x0s):
        noisy = multiplicative_noise(small_system, 0.0, 0.0, seed=5)
        curve = evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, x0s, KS)
        assert curve.horizon == pytest.approx(0.0, abs=1e-12)
        assert curve.scalars["e1"] == 0.0
        assert curve.scalars["e2"] == 0.0

    def test_left_only_consistent_collapse(self, small_system, x0s):
        # E = b c^T keeps b inside the perturbed range, so the noisy
        # system stays consistent with no right-hand side noise at all
        rng = np.random.default_rng(15)
        c = rng.standard_normal(40)
        e = np.outer(small_system.b, c) / (np.linalg.norm(small_system.b) * np.linalg.norm(c))
        sigma_a = 0.1
        left = np.eye(40) + sigma_a * e
        base_mult = multiplicative_noise(small_system, 0.0, 0.0, seed=5)
        noisy = dataclasses.replace(
            base_mult, e=e, f=None, sigma_a=sigma_a,
            a_tilde=left @ small_system.a,
        )
        curve = evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, x0s, KS)
        assert curve.scalars["e1"] == 0.0
        e_eff = sigma_a * e
        e2_direct = (
            np.hypot(
                spectral_norm(e_eff),
                spectral_norm(np.linalg.inv(np.eye(40) + e_eff) @ e_eff),
            )
        )
        assert curve.scalars["e2"] == pytest.approx(e2_direct, rel=1e-10)
        pinv_norm = 1.0 / sigma_min_nonzero(small_system.a)
        expected = e2_direct * pinv_norm * np.linalg.norm(small_system.b)
        assert curve.horizon == pytest.approx(expected, rel=1e-10)

    def test_horizon_dominates_direct_distance(self, small_system, x0s):
        noisy = consistent_multiplicative_instance(small_system, 0.02, use_f=True, seed=16)
        curve = evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, x0s, KS)
        x_nls = pseudoinverse(noisy.a_tilde) @ noisy.b_tilde
        assert curve.horizon >= np.linalg.norm(x_nls - small_system.x_ls)

    def test_inconsistent_rejected(self, small_system, x0s):
        noisy = multiplicative_noise(small_system, 0.05, 0.3, seed=5)
        with pytest.raises(HypothesisError, match="consistency"):
            evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, x0s, KS)

    @pytest.mark.parametrize("factor", ["E", "F"])
    def test_singular_factor_rejected(self, small_system, x0s, factor):
        noisy = singular_factor_instance(small_system, factor, consistent=True)
        with pytest.raises(HypothesisError, match=rf"invertibility of \(I \+ {factor}\) failed"):
            evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, x0s, KS)

    @pytest.mark.parametrize("factor", ["E", "F"])
    def test_consistency_is_named_before_a_singular_factor(self, small_system, x0s, factor, svd_calls):
        noisy = singular_factor_instance(small_system, factor, consistent=False)
        _ = noisy.analysis  # factor At before counting
        del svd_calls[:]
        with pytest.raises(HypothesisError, match="consistency of the noisy linear system failed"):
            evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, x0s, KS)
        assert svd_calls == []  # the factor checks were never reached

    @pytest.mark.parametrize("consistent", [True, False])
    @pytest.mark.parametrize("factor", ["E", "F"])
    def test_squared_bounds_need_no_invertible_factor(self, small_system, x0s, factor, consistent):
        # why multiplicative_noise checks no factor: the squared bounds hold for any perturbation
        noisy = singular_factor_instance(small_system, factor, consistent)
        for kind in (BoundKind.ADDITIVE, BoundKind.MULTIPLICATIVE):
            curve = evaluate_bound(kind, noisy, x0s, KS)
            assert np.isfinite(curve.values).all() and np.isfinite(curve.horizon)

    @pytest.mark.parametrize(
        "m, sigma_b, match",
        [
            (30, 0.0, "right-hand side is zero"),  # zero noisy rhs: consistency undefined
            (15, 0.1, "b is zero"),  # square, so consistent: rho = ||eps|| / ||b|| undefined
        ],
    )
    def test_zero_rhs_rejected(self, m, sigma_b, match):
        sys_ = zero_rhs_system(m)
        noisy = multiplicative_noise(sys_, 0.01, sigma_b, seed=3)
        with pytest.raises(HypothesisError, match=match):
            evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, np.ones((1, 15)), KS)


class TestHorizonComparison:
    def test_zero_noise_chain(self, small_system, partial):
        clean = dataclasses.replace(partial, a_tilde=small_system.a.copy())
        cmp_ = horizon_comparison(clean)
        assert cmp_.condition_holds
        assert cmp_.main_horizon == pytest.approx(0.0, abs=1e-15)
        assert cmp_.partial_horizon == pytest.approx(0.0, abs=1e-15)
        assert cmp_.chain_verified

    def test_random_instances(self):
        spec = SpectrumSpec(m=30, n=15, r=15, sigma_min=1.0, sigma_max=6.0)
        for seed in range(20):
            sys_ = generate_system(spec, seed=seed)
            noisy = partial_consistent_noise(sys_, 0.2 + 0.03 * seed % 0.7, seed=seed)
            cmp_ = horizon_comparison(noisy)
            assert cmp_.condition_holds
            assert cmp_.chain_verified
            assert cmp_.main_horizon <= cmp_.partial_horizon + 1e-9

    def test_weyl_implies_condition(self, small_system, partial):
        # rank-preserving noise with ||pinv(A)|| ||E|| < 1 keeps
        # sigma_min(A) - ||E|| <= sigma_min(At) < 2 sigma_min(At)
        noise_norm = spectral_norm(partial.matrix_noise())
        s_min = sigma_min_nonzero(small_system.a)
        s_min_tilde = sigma_min_nonzero(partial.a_tilde)
        assert s_min - noise_norm <= s_min_tilde + 1e-9
        assert horizon_comparison(partial).condition_holds

    def test_model_mismatch_rejected(self, small_system):
        noisy = additive_noise(small_system, 0.1, 0.0, seed=2)
        with pytest.raises(HypothesisError):
            horizon_comparison(noisy)

    def test_rank_deficient_main_horizon_is_the_additive_horizon(self, rank_deficient_system):
        # the row space of A(I + M) turns away from that of A, so x_ls leaves it: the additive horizon
        # of a start in the row space of At carries ||P_null(At) x_ls||^2 (0.0367 of 0.9744 here)
        noisy = partial_consistent_noise(rank_deficient_system, 0.5, seed=6)
        x0s = initial_iterates(noisy.a_tilde, RkConfig(max_iterations=1, trials=10, seed=0))
        cmp_ = horizon_comparison(noisy)
        assert cmp_.main_horizon**2 == pytest.approx(bound_additive(noisy, x0s, [0]).horizon, rel=1e-12)
        assert cmp_.main_horizon**2 == pytest.approx(0.97442, rel=1e-5)
        assert cmp_.chain_verified


@st.composite
def unsquared_instances(draw):
    """An unsquared kind whose hypotheses hold on a rank-deficient A, and free standard-normal starts."""
    kind = draw(st.sampled_from(
        ["perturbation_doubly", "perturbation_partial", "multiplicative_perturbation"]))
    n = draw(st.integers(2, 20))
    r = draw(st.integers(1, n - 1))
    spec = SpectrumSpec(m=draw(st.integers(r, 40)), n=n, r=r, sigma_min=1.0, sigma_max=draw(st.floats(1.01, 10.0)))
    seed = draw(st.integers(0, 1000))
    sys_ = generate_system(spec, seed)
    if kind == "multiplicative_perturbation":
        noisy = consistent_multiplicative_instance(sys_, draw(st.floats(1e-3, 0.1)), draw(st.booleans()), seed)
    else:
        noisy = partial_consistent_noise(sys_, draw(st.floats(0.05, 0.9)), seed=seed)
    return kind, noisy, np.random.default_rng(seed).standard_normal((draw(st.integers(1, 5)), n))


def _found_partial_instance():
    spec = SpectrumSpec(m=60, n=30, r=20, sigma_min=2.0, sigma_max=10.0)
    noisy = partial_consistent_noise(generate_system(spec, seed=19), 0.5, seed=6)
    return "perturbation_partial", noisy, np.random.default_rng(0).standard_normal((10, 30))


@settings(max_examples=60, deadline=None)
@given(unsquared_instances())
@example(_found_partial_instance())
def test_unsquared_bounds_keep_the_part_rk_never_moves(instance):
    # RK never moves P_null(At) x_k, so the mean error of every trial stays at least
    # ||P_null(At)(x0 - x_ls)||, however large k grows
    kind, noisy, x0s = instance
    n = x0s.shape[1]
    curve = evaluate_bound(kind, noisy, x0s, [0, 10, 100, 10**3, 10**4, 10**6])
    p_null = np.eye(n) - pseudoinverse(noisy.a_tilde) @ noisy.a_tilde
    floor = float(np.mean(np.linalg.norm((x0s - noisy.base.x_ls) @ p_null, axis=1)))
    assert np.all(curve.values >= floor * (1.0 - 1e-12)), (kind, curve.values, floor)


class TestIterationsToTolerance:
    def test_toy_noiseless_count(self):
        assert iterations_to_tolerance(19, 1e6, 0.5) == 269

    def test_toy_noisy_count(self):
        k = iterations_to_tolerance(3, 1e6, 0.5, 4.0 / 9.0)
        assert 37 <= k <= 43

    def test_already_satisfied(self):
        assert iterations_to_tolerance(5, 1.0, 2.0, 1.0) == 0

    @pytest.mark.parametrize("initial, expected", [(1e6, 1), (0.5, 1), (0.4, 0)])
    def test_rank_one_rate_zero(self, initial, expected):
        # r = 1 gives rate 0: one step reaches any tolerance the start does not already meet
        assert iterations_to_tolerance(1.0, initial, 0.5, 0.1) == expected

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0 - 1e-12])
    def test_condition_number_below_one_rejected(self, r):
        with pytest.raises(ValueError, match="scaled condition number must be at least 1"):
            iterations_to_tolerance(r, 1.0, 0.5)

    def test_unreachable_tolerance(self):
        with pytest.raises(ValueError, match="unreachable"):
            iterations_to_tolerance(5, 1.0, 0.1, 0.2)

    def test_minimality(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            r = float(rng.uniform(1.5, 500))
            init = float(rng.uniform(1.0, 1e8))
            target = float(rng.uniform(1e-8, 0.5)) * init
            k = iterations_to_tolerance(r, init, target, 0.0)
            rate = 1 - 1 / r
            assert rate**k * init <= target * (1 + 1e-12)
            if k > 0:
                assert rate ** (k - 1) * init > target * (1 - 1e-12)


class TestDispatcherAndCsv:
    def test_noiseless_kind_requires_clean_system(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.1, 0.0, seed=2)
        with pytest.raises(HypothesisError, match="noise"):
            evaluate_bound(BoundKind.NOISELESS, noisy, x0s, KS)

    def test_rhs_kind_requires_clean_matrix(self, small_system, x0s):
        noisy = additive_noise(small_system, 0.1, 0.1, seed=2)
        with pytest.raises(HypothesisError, match="matrix"):
            evaluate_bound(BoundKind.RHS_NOISE, noisy, x0s, KS)

    @pytest.mark.parametrize("kind", [BoundKind.ADDITIVE, BoundKind.PERTURBATION_DOUBLY])
    def test_stacked_x0_carries_trial_mean_initial_error(self, partial, kind):
        cfg = RkConfig(max_iterations=1, trials=5, seed=8)
        x0s = initial_iterates(partial.a_tilde, cfg)
        stacked = evaluate_bound(kind, partial, x0s, KS)
        rows = [evaluate_bound(kind, partial, x[None], KS) for x in x0s]
        initial = float(np.mean([c.initial_error for c in rows]))
        exponent = np.asarray(KS, dtype=float) / (1.0 if stacked.squared else 2.0)
        assert stacked.squared == (kind is BoundKind.ADDITIVE)
        assert stacked.initial_error == initial
        assert np.array_equal(stacked.values, rows[0].rate ** exponent * initial + rows[0].horizon)
        # the mean of the per-trial curves, since each is affine in its initial error
        assert np.allclose(stacked.values, np.mean([c.values for c in rows], axis=0), rtol=1e-12)

    def test_csv_and_sidecar(self, small_system, x0s, tmp_path):
        noisy = additive_noise(small_system, 0.1, 0.1, seed=2)
        curve = bound_additive(noisy, x0s, KS)
        path = tmp_path / "bound_additive.csv"
        write_bound_csv(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,bound_value"
        assert len(lines) == 1 + KS.size
        import json

        meta = json.loads((tmp_path / "bound_additive.meta.json").read_text())
        assert meta["kind"] == "additive"
        assert meta["squared"] is True
        assert meta["horizon"] == curve.horizon
        assert "scaled_condition_number_tilde" in meta["scalars"]

    def test_domination_squared_small_instance(self, small_system):
        noisy = additive_noise(small_system, 0.05, 0.05, seed=31)
        cfg = RkConfig(max_iterations=3000, trials=30, record_stride=100, seed=32)
        traj = solve(noisy, cfg)
        x0s = initial_iterates(noisy.a_tilde, cfg)
        curve = bound_additive(noisy, x0s, traj.recorded_iterations)
        frac = np.mean(traj.mean_squared_error <= curve.values + 1e-12)
        assert frac >= 0.95


SYSTEMS = {
    "clean": noise_free,
    "rhs_only": lambda sys_: additive_noise(sys_, 0.0, 0.3, seed=1),
    "additive": lambda sys_: additive_noise(sys_, 0.05, 0.05, seed=2),
    "multiplicative": lambda sys_: multiplicative_noise(sys_, 0.05, 0.05, seed=4),
    "partial_consistent": lambda sys_: partial_consistent_noise(sys_, 0.4, seed=21),
    "preconditioner": preconditioner_noise,
}


# kind -> (the SYSTEMS that meet its noise hypothesis, the message for one that does not)
GATES = {
    BoundKind.NOISELESS: ({"clean"}, "noiseless bound requested but the system carries noise"),
    BoundKind.RHS_NOISE: ({"clean", "rhs_only"}, "rhs-noise bound requested but the matrix carries noise"),
    BoundKind.MULTIPLICATIVE: (
        {"multiplicative"}, "multiplicative bound requested for a non-multiplicative model"),
    BoundKind.PERTURBATION_PARTIAL: (
        {"partial_consistent"},
        "partial perturbation bound requested for a model other than partial_consistent"),
    BoundKind.MULTIPLICATIVE_PERTURBATION: (
        {"multiplicative"}, "multiplicative perturbation bound requested for a non-multiplicative model"),
}


class TestOneSignature:
    @pytest.mark.parametrize("kind", list(BoundKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_kind_gives_its_curve_or_a_failed_hypothesis(self, small_system, x0s, system, kind):
        noisy = SYSTEMS[system](small_system)
        meets, failure = GATES.get(kind, (set(SYSTEMS), None))
        if system not in meets:
            with pytest.raises(HypothesisError) as info:
                evaluate_bound(kind, noisy, x0s, KS)
            assert str(info.value) == failure
            return
        try:
            curve = evaluate_bound(kind, noisy, x0s, KS)
        except HypothesisError as exc:  # a hypothesis the kind checks past its noise hypothesis
            assert str(exc) not in {message for _, message in GATES.values()}
            return
        assert curve.kind is kind
        if kind in (BoundKind.NOISELESS, BoundKind.RHS_NOISE, BoundKind.MULTIPLICATIVE):
            additive = bound_additive(noisy, x0s, KS)
            assert np.array_equal(curve.values, additive.values)
            assert curve.scalars == additive.scalars

    @pytest.mark.parametrize(
        "evaluate",
        [bound_additive,
         lambda *args: evaluate_bound(BoundKind.PERTURBATION_DOUBLY, *args),
         lambda *args: evaluate_bound(BoundKind.PERTURBATION_PARTIAL, *args)],
        ids=["bound_additive", "perturbation_doubly", "perturbation_partial"],
    )
    @pytest.mark.parametrize("shape", [(20,), (3, 1), (3, 21)], ids=["1-D", "width-1", "width-n+1"])
    def test_start_that_is_not_a_trials_by_n_stack_raises(self, small_system, partial, evaluate, shape):
        # n = 20, and every hypothesis of the three holds for partial, so only the shape can fail
        assert small_system.a.shape[1] == 20
        with pytest.raises(ValueError, match=re.escape(f"x0s has shape {shape}")):
            evaluate(partial, np.ones(shape), KS)


class TestNoisyAnalysisMemo:
    def test_one_svd_of_a_for_every_bound_that_needs_it(self, svds_of):
        sys_ = generate_system(SpectrumSpec(m=40, n=20, r=20, sigma_min=1.0, sigma_max=4.0), seed=7)
        noisy = partial_consistent_noise(sys_, 0.4, seed=21)
        x0s = initial_iterates(sys_.a, RkConfig(max_iterations=1, trials=1, seed=5))
        evaluate_bound(BoundKind.PERTURBATION_DOUBLY, noisy, x0s, KS)
        evaluate_bound(BoundKind.PERTURBATION_PARTIAL, noisy, x0s, KS)
        horizon_comparison(noisy)
        perturbed_ls_distance(noisy)
        assert svds_of(sys_.a) == 1  # partial_consistent_noise took it; the _q bounds read the memo

    @pytest.mark.parametrize(
        "make_noisy",
        [
            lambda sys_: multiplicative_noise(sys_, 0.05, 0.05, seed=4),
            lambda sys_: partial_consistent_noise(sys_, 0.4, seed=21),
        ],
        ids=["multiplicative", "partial_consistent"],
    )
    def test_analysis_keeps_no_matrix(self, small_system, x0s, make_noisy):
        noisy = make_noisy(small_system)
        for kind in BoundKind:
            try:
                evaluate_bound(kind, noisy, x0s, KS)
            except HypothesisError:
                pass
        if noisy.model is NoiseModel.PARTIAL_CONSISTENT:
            horizon_comparison(noisy)
            perturbed_ls_distance(noisy)
        own = {f.name for f in dataclasses.fields(noisy)}
        memo = {k: v for k, v in vars(noisy).items() if k not in own}
        assert set(memo) == {"analysis", "matrix_noise_norm"}  # a_tilde - a is formed at each call, not kept
        values = [getattr(memo["analysis"], f.name) for f in dataclasses.fields(memo["analysis"])]
        arrays = [v for v in values if isinstance(v, np.ndarray)]
        assert len(arrays) == 3
        assert max(a.size for a in arrays) <= max(noisy.a_tilde.shape)
        assert isinstance(memo["matrix_noise_norm"], float)


def _outcome(evaluate):
    """What ``evaluate()`` gives: its curve's fields, or the message of the hypothesis it fails."""
    try:
        result = evaluate()
    except HypothesisError as exc:
        return str(exc)
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}


def _same(first, second) -> bool:
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    if isinstance(first, dict):
        return first.keys() == second.keys() and all(_same(first[k], second[k]) for k in first)
    return first == second


@pytest.mark.parametrize(
    "make_noisy",
    [
        lambda sys_: additive_noise(sys_, 0.05, 0.05, seed=4),
        lambda sys_: partial_consistent_noise(sys_, 0.4, seed=21),
    ],
    ids=["additive", "partial_consistent"],
)
def test_the_bounds_read_the_noise_from_the_two_systems(small_system, x0s, make_noisy):
    # the system keeps no noise piece; given all-NaN ones, every bound that reads only A, b, At and bt
    # is unchanged
    noisy = make_noisy(small_system)
    assert noisy.e is None and noisy.f is None and noisy.eps is None
    m, n = small_system.a.shape
    blind = dataclasses.replace(
        noisy, e=np.full((m, m), np.nan), f=np.full((n, n), np.nan), eps=np.full(m, np.nan),
    )
    for kind in set(BoundKind) - {BoundKind.MULTIPLICATIVE_PERTURBATION}:
        expected = _outcome(lambda: evaluate_bound(kind, noisy, x0s, KS))
        assert _same(_outcome(lambda: evaluate_bound(kind, blind, x0s, KS)), expected), kind
    assert _same(_outcome(lambda: horizon_comparison(blind)), _outcome(lambda: horizon_comparison(noisy)))
