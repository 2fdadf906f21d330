import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisyrk import (
    BoundKind,
    LinearSystem,
    NoiseModel,
    RkConfig,
    Spacing,
    SpectrumSpec,
    additive_noise,
    evaluate_bound,
    generate_system,
    load_system,
    multiplicative_noise,
    partial_consistent_noise,
    preconditioner_noise,
    pseudoinverse,
    save_system,
    scaled_condition_number,
    sigma_min_nonzero,
    solve,
    spectral_norm,
    svd,
    write_matrix,
    write_vector,
)
from noisyrk import problems, seeding
from noisyrk.linalg import _nonsingular, orthonormalize_columns
from noisyrk.problems import _spectrum_values
from test_oracle import instances, spectra


def additive_draw(seed, shape):
    """The unit matrix draw E of ``additive_noise``."""
    return seeding.stream(seed, seeding.MATRIX_NOISE).standard_normal(shape)


def rhs_draw(seed, m):
    """The unit right-hand side draw eps of ``additive_noise`` and ``multiplicative_noise``."""
    return seeding.stream(seed, seeding.RHS_NOISE).standard_normal(m)


def factor_draws(seed, m, n, use_e=True, use_f=True):
    """The unit factors E and F of ``multiplicative_noise``, a switched-off one as zeros."""
    e = seeding.stream(seed, seeding.MATRIX_NOISE, 0).standard_normal((m, m))
    f = seeding.stream(seed, seeding.RIGHT_FACTOR_NOISE, 0).standard_normal((n, n))
    return e * use_e, f * use_f


def flat_top_system(m, n, r, lo, hi, seed=1):
    spec = SpectrumSpec(m=m, n=n, r=r, sigma_min=lo, sigma_max=hi, spacing=Spacing.FLAT_TOP)
    return generate_system(spec, seed)


class TestGenerateSystem:
    def test_full_size_spectrum_span(self):
        spec = SpectrumSpec(m=500, n=300, r=300, sigma_min=5.0, sigma_max=50.0)
        sys_ = generate_system(spec, seed=0)
        s = sys_.factors.sigma
        assert s[0] == pytest.approx(50.0, rel=1e-10)
        assert s[-1] == pytest.approx(5.0, rel=1e-10)
        assert s[0] / s[-1] == pytest.approx(10.0, rel=1e-10)
        assert sys_.factors.sigma.size == 300

    def test_full_size_scaled_condition_number_matches_published(self):
        # sum(linspace(50, 5, 300)^2) / 25 reproduces the reference value
        # 11113.545 for this spectrum, pinning the inclusive-endpoint
        # convention of even spacing
        spec = SpectrumSpec(m=500, n=300, r=300, sigma_min=5.0, sigma_max=50.0)
        sys_ = generate_system(spec, seed=0)
        assert scaled_condition_number(sys_.a) == pytest.approx(11113.545150501672, rel=1e-9)

    def test_consistency_residual(self, small_system):
        rel = np.linalg.norm(small_system.a @ small_system.x_ls - small_system.b)
        assert rel <= 1e-9 * np.linalg.norm(small_system.b)

    def test_equal_endpoints_distinctness_error(self):
        spec = SpectrumSpec(m=3, n=3, r=3, sigma_min=1.0, sigma_max=1.0)
        with pytest.raises(ValueError, match="distinct"):
            generate_system(spec, seed=0)

    def test_deterministic(self):
        spec = SpectrumSpec(m=10, n=6, r=6, sigma_min=1.0, sigma_max=2.0)
        s1 = generate_system(spec, seed=4)
        s2 = generate_system(spec, seed=4)
        assert np.array_equal(s1.a, s2.a)
        assert np.array_equal(s1.b, s2.b)
        assert np.array_equal(s1.x_ls, s2.x_ls)

    def test_factors_are_taken_at_first_read(self, svd_calls):
        sys_ = generate_system(SpectrumSpec(m=10, n=6, r=6, sigma_min=1.0, sigma_max=2.0), seed=4)
        assert svd_calls == []  # x_ls comes from the construction
        factors = sys_.factors
        assert svd_calls == [(10, 6)]
        assert sys_.factors is factors
        assert svd_calls == [(10, 6)]
        x = factors.pinv_apply(sys_.b)
        assert np.linalg.norm(x - sys_.x_ls) <= 1e-13 * np.linalg.norm(sys_.x_ls)

    @pytest.mark.parametrize("spec", [
        SpectrumSpec(m=40, n=20, r=20, sigma_min=1.0, sigma_max=4.0),
        SpectrumSpec(m=60, n=30, r=20, sigma_min=2.0, sigma_max=10.0),
        SpectrumSpec(m=30, n=12, r=12, sigma_min=1.0, sigma_max=5.0, spacing=Spacing.FLAT_TOP),
        SpectrumSpec(m=15, n=40, r=15, sigma_min=1.0, sigma_max=3.0),
    ], ids=["full-rank", "rank-deficient", "flat-top", "wide"])
    def test_x_ls_from_the_construction(self, spec):
        sys_ = generate_system(spec, seed=11)
        x, b = sys_.x_ls, sys_.b
        assert np.linalg.norm(sys_.a @ x - b) <= 1e-13 * np.linalg.norm(b)
        v = sys_.factors.v  # the row space of A, from its own SVD
        assert np.linalg.norm(x - v @ (v.T @ x)) <= 1e-13 * np.linalg.norm(x)
        assert np.linalg.norm(x - pseudoinverse(sys_.a) @ b) <= 1e-13 * np.linalg.norm(x)

    @pytest.mark.parametrize("spacing", list(Spacing))
    def test_a_is_the_product_of_the_scaled_bases(self, spacing):
        spec = SpectrumSpec(m=40, n=25, r=12, sigma_min=0.5, sigma_max=7.0, spacing=spacing)
        u = orthonormalize_columns(seeding.stream(6, seeding.LEFT_BASIS).standard_normal((40, 12)))
        v = orthonormalize_columns(seeding.stream(6, seeding.RIGHT_BASIS).standard_normal((25, 12)))
        assert np.array_equal(generate_system(spec, 6).a, (u * _spectrum_values(spec, 6)) @ v.T)

    def test_solution_in_row_space(self, rank_deficient_system):
        sys_ = rank_deficient_system
        p = pseudoinverse(sys_.a)
        residual = sys_.x_ls - p @ (sys_.a @ sys_.x_ls)
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(sys_.x_ls)

    def test_random_distinct_spacing(self):
        spec = SpectrumSpec(
            m=30, n=15, r=15, sigma_min=1.0, sigma_max=9.0, spacing=Spacing.RANDOM_DISTINCT
        )
        sys_ = generate_system(spec, seed=5)
        s = sys_.factors.sigma
        assert s[0] <= 9.0 + 1e-9 and s[-1] >= 1.0 - 1e-9
        assert np.min(-np.diff(s)) >= 1e-6 * 9.0 * 0.5  # gap survives the factorization

    def test_flat_top_spectrum(self):
        sys_ = flat_top_system(12, 8, 8, 1.0, 4.0)
        s = sys_.factors.sigma
        assert_allclose(s[:-1], 4.0, rtol=1e-10)
        assert s[-1] == pytest.approx(1.0, rel=1e-10)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SpectrumSpec(m=5, n=5, r=6, sigma_min=1.0, sigma_max=2.0)
        with pytest.raises(ValueError):
            SpectrumSpec(m=5, n=5, r=3, sigma_min=-1.0, sigma_max=2.0)
        with pytest.raises(ValueError):
            SpectrumSpec(m=5, n=5, r=1, sigma_min=1.0, sigma_max=2.0, spacing="flat_top")


class TestAdditiveNoise:
    def test_zero_noise_is_bit_exact(self, small_system):
        noisy = additive_noise(small_system, 0.0, 0.0, seed=3)
        assert np.array_equal(noisy.a_tilde, small_system.a)
        assert np.array_equal(noisy.b_tilde, small_system.b)

    def test_rhs_only_configuration(self, small_system):
        noisy = additive_noise(small_system, 0.0, 1.0, seed=3)
        assert np.array_equal(noisy.a_tilde, small_system.a)
        assert_allclose(noisy.b_tilde, small_system.b + rhs_draw(3, 40), atol=1e-12)

    def test_entrywise_construction(self, small_system):
        noisy = additive_noise(small_system, 0.3, 0.7, seed=3)
        e, eps = additive_draw(3, (40, 20)), rhs_draw(3, 40)
        assert np.max(np.abs(noisy.a_tilde - (small_system.a + 0.3 * e))) <= 1e-12
        assert np.max(np.abs(noisy.b_tilde - (small_system.b + 0.7 * eps))) <= 1e-12
        # summed onto 0.3 * E in place, bit for bit the same
        assert np.array_equal(noisy.a_tilde, small_system.a + 0.3 * e)

    def test_same_seed_bit_identical(self, small_system):
        n1 = additive_noise(small_system, 0.1, 0.2, seed=9)
        n2 = additive_noise(small_system, 0.1, 0.2, seed=9)
        assert np.array_equal(n1.a_tilde, n2.a_tilde)
        assert np.array_equal(n1.b_tilde, n2.b_tilde)

    def test_unit_draws_shared_across_magnitudes(self, small_system):
        e, eps = additive_draw(9, (40, 20)), rhs_draw(9, 40)
        for s in (0.01, 0.5):
            noisy = additive_noise(small_system, s, s, seed=9)
            assert np.array_equal(noisy.a_tilde, small_system.a + s * e)
            assert np.array_equal(noisy.b_tilde, small_system.b + s * eps)

    @pytest.mark.parametrize("sigma_a, sigma_b, drawn", [
        (0.0, 0.0, []), (0.1, 0.0, [(seeding.MATRIX_NOISE,)]), (0.0, 0.1, [(seeding.RHS_NOISE,)]),
    ])
    def test_a_zero_magnitude_draws_nothing(self, small_system, monkeypatch, sigma_a, sigma_b, drawn):
        problems._unit_draw.cache_clear()
        real_stream, keys = seeding.stream, []
        monkeypatch.setattr(seeding, "stream", lambda seed, *key: keys.append(key) or real_stream(seed, *key))
        additive_noise(small_system, sigma_a, sigma_b, seed=9)
        assert keys == drawn

    def test_negative_magnitude_rejected(self, small_system):
        with pytest.raises(ValueError):
            additive_noise(small_system, -0.1, 0.0, seed=0)


class TestMultiplicativeNoise:
    def test_all_off_is_exact(self, small_system):
        noisy = multiplicative_noise(small_system, 0.3, 0.0, use_e=False, use_f=False, seed=2)
        assert np.array_equal(noisy.a_tilde, small_system.a)
        assert np.array_equal(noisy.b_tilde, small_system.b)

    def test_left_only_perturbation(self, small_system):
        noisy = multiplicative_noise(small_system, 0.05, 0.0, use_e=True, use_f=False, seed=2)
        assert noisy.f is None
        delta = noisy.a_tilde - small_system.a
        expected = 0.05 * noisy.e @ small_system.a
        assert np.max(np.abs(delta - expected)) <= 1e-10 * spectral_norm(small_system.a)

    def test_two_sided_draws(self, small_system):
        noisy = multiplicative_noise(small_system, 0.05, 0.05, seed=2)
        m, n = small_system.a.shape
        assert noisy.e.shape == (m, m)
        assert noisy.f.shape == (n, n)
        assert sigma_min_nonzero(np.eye(m) + 0.05 * noisy.e) >= 1e-8
        assert sigma_min_nonzero(np.eye(n) + 0.05 * noisy.f) >= 1e-8
        assert noisy.model is NoiseModel.MULTIPLICATIVE

    @pytest.mark.parametrize("use_e, use_f", [(True, True), (True, False), (False, True), (False, False)])
    def test_bit_identical_to_the_literal_product(self, small_system, use_e, use_f):
        # a switched-off factor is a zero draw in the literal product: I + 0 multiplied through,
        # equal to skipping it up to the sign of a zero entry, which array_equal does not see
        noisy = multiplicative_noise(small_system, 0.05, 0.0, use_e=use_e, use_f=use_f, seed=2)
        e, f = factor_draws(2, 40, 20, use_e, use_f)
        literal = (np.eye(40) + 0.05 * e) @ small_system.a @ (np.eye(20) + 0.05 * f)
        assert np.array_equal(noisy.a_tilde, literal)

    def test_matrix_noise_matches_the_expansion(self, small_system):
        noisy = multiplicative_noise(small_system, 0.05, 0.0, seed=2)
        a, e, f = small_system.a, 0.05 * noisy.e, 0.05 * noisy.f
        expansion = e @ a + a @ f + e @ a @ f
        assert np.max(np.abs(noisy.matrix_noise() - expansion)) <= 1e-10 * spectral_norm(a)

    def test_matrix_noise_is_not_kept(self, small_system):
        noisy = multiplicative_noise(small_system, 0.05, 0.0, seed=2)
        kept = dict(vars(noisy))
        first = noisy.matrix_noise()
        assert np.array_equal(noisy.matrix_noise(), first)
        assert vars(noisy).keys() == kept.keys()  # no m x n array stays behind

    @pytest.mark.parametrize("use_e, use_f", [(True, False), (False, True)])
    def test_switched_off_factor_takes_no_svd(self, svd_calls, use_e, use_f):
        sys_ = generate_system(SpectrumSpec(m=30, n=15, r=15, sigma_min=1.0, sigma_max=3.0), seed=4)
        svd_calls.clear()
        noisy = multiplicative_noise(sys_, 0.2, 0.1, use_e=use_e, use_f=use_f, seed=5)
        assert svd_calls == []  # no factor is checked at draw time
        # the factor that is on is the first draw, unchanged; the one that is off is None
        e, f = factor_draws(5, 30, 15, use_e, use_f)
        assert (noisy.e is None) != use_e and (noisy.f is None) != use_f
        on, draw = (noisy.e, e) if use_e else (noisy.f, f)
        assert np.array_equal(on, draw)
        assert np.array_equal(noisy.a_tilde, (np.eye(30) + 0.2 * e) @ sys_.a @ (np.eye(15) + 0.2 * f))


class TestPartialConsistentNoise:
    def test_strength_is_exact(self, small_system):
        noisy = partial_consistent_noise(small_system, 0.4, seed=6)
        q = spectral_norm(noisy.a_tilde - small_system.a) / sigma_min_nonzero(small_system.a)
        assert q == pytest.approx(0.4, abs=1e-9)
        assert (noisy.sigma_a, noisy.sigma_b) == (0.4, 0.0)  # the magnitudes it was built with

    def test_consistency_of_noisy_system(self, small_system):
        noisy = partial_consistent_noise(small_system, 0.4, seed=6)
        x_pnls = pseudoinverse(noisy.a_tilde) @ small_system.b
        rel = np.linalg.norm(noisy.a_tilde @ x_pnls - small_system.b)
        assert rel <= 1e-9 * np.linalg.norm(small_system.b)
        assert np.array_equal(noisy.b_tilde, small_system.b)

    def test_rank_preserved(self, rank_deficient_system):
        noisy = partial_consistent_noise(rank_deficient_system, 0.5, seed=6)
        assert svd(noisy.a_tilde).sigma.size == rank_deficient_system.factors.sigma.size

    def test_small_strength_limit(self, small_system):
        noisy = partial_consistent_noise(small_system, 1e-8, seed=6)
        rel = spectral_norm(noisy.a_tilde - small_system.a) / spectral_norm(small_system.a)
        assert rel <= 1e-7

    def test_strength_range_enforced(self, small_system):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                partial_consistent_noise(small_system, bad, seed=0)


class TestFactorNonsingularity:
    @pytest.mark.parametrize("factor, nonsingular", [
        (np.eye(3), True),
        (np.diag([1.0, 1.0, 0.0]), False),  # rank 2: its kept singular values all pass the floor
        (np.diag([1.0, 1.0, 1e-9]), False),  # full numerical rank, below the floor
        (np.zeros((2, 2)), False),
    ], ids=["identity", "rank-deficient", "below-floor", "zero"])
    def test_full_rank_and_floor(self, factor, nonsingular):
        assert _nonsingular(factor) is nonsingular


class TestBaseFactors:
    def test_noise_models_share_one_svd_of_a(self, svds_of):
        sys_ = generate_system(SpectrumSpec(m=30, n=15, r=15, sigma_min=1.0, sigma_max=3.0), seed=4)
        partial_consistent_noise(sys_, 0.4, seed=6)
        preconditioner_noise(sys_)
        assert svds_of(sys_.a) == 1  # both read the lazy LinearSystem.factors


class TestPreconditionerNoise:
    def test_toy_3_3_1(self):
        sys_ = flat_top_system(3, 3, 3, 1.0, 3.0)
        noisy = preconditioner_noise(sys_)
        assert spectral_norm(noisy.matrix_noise()) == pytest.approx(2.0, rel=1e-9)
        assert (noisy.sigma_a, noisy.sigma_b) == (0.0, 0.0)  # the model takes no magnitude
        assert_allclose(svd(noisy.a_tilde).sigma, [3.0, 3.0, 3.0], rtol=1e-9)
        assert scaled_condition_number(noisy.a_tilde) == pytest.approx(3.0, rel=1e-9)

    def test_two_by_two_gap(self):
        sys_ = flat_top_system(2, 2, 2, 4.0, 5.0)
        noisy = preconditioner_noise(sys_)
        assert spectral_norm(noisy.matrix_noise()) == pytest.approx(1.0, rel=1e-9)
        assert_allclose(svd(noisy.a_tilde).sigma, [5.0, 5.0], rtol=1e-9)

    def test_degenerate_spectrum_errors(self):
        a = np.diag([3.0, 3.0])
        b = a @ np.array([1.0, 1.0])
        sys_ = LinearSystem(a=a, b=b, x_ls=svd(a).pinv_apply(b))
        with pytest.raises(ValueError, match="distinct"):
            preconditioner_noise(sys_)

    def test_rank_one_errors(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        b = a @ np.ones(2)
        sys_ = LinearSystem(a=a, b=b, x_ls=svd(a).pinv_apply(b))
        with pytest.raises(ValueError, match="rank"):
            preconditioner_noise(sys_)

    def test_frobenius_identity(self, small_system):
        noisy = preconditioner_noise(small_system)
        s = small_system.factors.sigma
        expected = np.sum(s[:-1] ** 2) + s[-2] ** 2
        assert np.linalg.norm(noisy.a_tilde, "fro") ** 2 == pytest.approx(expected, rel=1e-9)


# the files of a saved system: the base and noisy system, and a multiplicative system's unit draws
SYSTEM_FILES = {"A.mat", "b.vec", "xls.vec", "atilde.mat", "btilde.vec", "meta.json"}
MODELS = {
    "additive": lambda sys_: additive_noise(sys_, 0.2, 0.3, seed=13),
    "multiplicative": lambda sys_: multiplicative_noise(sys_, 0.05, 0.1, seed=13),
    "partial_consistent": lambda sys_: partial_consistent_noise(sys_, 0.4, seed=13),
    "preconditioner": preconditioner_noise,
}


def assert_same_system(back, noisy):
    """``back`` holds every array of ``noisy`` bit for bit, each absent piece as None, and its scalars."""
    for name in ("a", "b", "x_ls"):
        assert np.array_equal(getattr(back.base, name), getattr(noisy.base, name))
    for name in ("a_tilde", "b_tilde", "e", "f", "eps"):
        mine, theirs = getattr(back, name), getattr(noisy, name)
        assert (mine is None and theirs is None) or np.array_equal(mine, theirs), name
    assert (back.sigma_a, back.sigma_b, back.model) == (noisy.sigma_a, noisy.sigma_b, noisy.model)
    assert (back.base.spec, back.base.seed) == (noisy.base.spec, noisy.base.seed)


class TestSerialization:
    @pytest.mark.parametrize("model", MODELS)
    def test_roundtrip(self, small_system, tmp_path, model):
        noisy = MODELS[model](small_system)
        save_system(noisy, tmp_path / "sys")
        assert_same_system(load_system(tmp_path / "sys"), noisy)

    @pytest.mark.parametrize("model", MODELS)
    def test_each_model_writes_exactly_its_files(self, small_system, tmp_path, model):
        save_system(MODELS[model](small_system), tmp_path)
        pieces = {"e.mat", "f.mat", "eps.vec"} if model == "multiplicative" else set()
        assert {p.name for p in tmp_path.iterdir()} == SYSTEM_FILES | pieces
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert ("use_e" in meta, "use_f" in meta) == (bool(pieces), bool(pieces))

    @pytest.mark.parametrize("use_e, use_f", [(True, True), (True, False), (False, True), (False, False)])
    def test_every_switch_setting_roundtrips(self, small_system, tmp_path, use_e, use_f):
        noisy = multiplicative_noise(small_system, 0.05, 0.1, use_e=use_e, use_f=use_f, seed=13)
        save_system(noisy, tmp_path)
        on = {name for name, used in (("e.mat", use_e), ("f.mat", use_f)) if used}
        assert {p.name for p in tmp_path.iterdir()} == SYSTEM_FILES | on | {"eps.vec"}
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert (meta["use_e"], meta["use_f"]) == (use_e, use_f)
        back = load_system(tmp_path)
        assert_same_system(back, noisy)
        assert (back.e is None) != use_e and (back.f is None) != use_f

    # (model, file, replacement): a shape that disagrees with the 40x20 A.mat,
    # or for meta.json a rewrite of the saved object
    @pytest.mark.parametrize("model, name, bad, message", [
        ("multiplicative", "b.vec", (39,), "b.vec: shape (39,) does not match (40,)"),
        ("multiplicative", "xls.vec", (21,), "xls.vec: shape (21,) does not match (20,)"),
        ("multiplicative", "atilde.mat", (30, 20), "atilde.mat: shape (30, 20) does not match (40, 20)"),
        ("multiplicative", "btilde.vec", (42,), "btilde.vec: shape (42,) does not match (40,)"),
        ("multiplicative", "eps.vec", (41,), "eps.vec: shape (41,) does not match (40,)"),
        ("multiplicative", "e.mat", (40, 20), "e.mat: shape (40, 20) does not match (40, 40)"),
        ("multiplicative", "f.mat", (20, 19), "f.mat: shape (20, 19) does not match (20, 20)"),
        ("multiplicative", "meta.json", lambda meta: {**meta, "use_f": 0}, "meta.json: bad value for 'use_f'"),
        ("additive", "meta.json", lambda meta: [1, 2], "meta.json: expected a JSON object, got list"),
        ("additive", "meta.json", lambda meta: {**meta, "spec": {**meta["spec"], "m": 30}},
         "meta.json: spec shape (30, 20) does not match A.mat (40, 20)"),
        ("additive", "meta.json", lambda meta: {**meta, "sigma_a": True}, "meta.json: bad value for 'sigma_a'"),
        ("additive", "meta.json", lambda meta: {**meta, "sigma_b": "0.3"}, "meta.json: bad value for 'sigma_b'"),
        ("additive", "meta.json", lambda meta: {**meta, "sigma_a": float("nan")},
         "meta.json: bad value for 'sigma_a'"),
        ("additive", "meta.json", lambda meta: {**meta, "seed": 13.0}, "meta.json: bad value for 'seed'"),
        ("additive", "meta.json", lambda meta: {**meta, "bogus": 1}, "meta.json: unknown key 'bogus'"),
        ("additive", "meta.json", lambda meta: {**meta, "use_e": False}, "meta.json: noise: bad value for 'use_e'"),
    ])
    def test_rejects_misshaped_directory(self, small_system, tmp_path, model, name, bad, message):
        save_system(MODELS[model](small_system), tmp_path)
        target = tmp_path / name
        if name == "meta.json":
            target.write_text(json.dumps(bad(json.loads(target.read_text()))))
        elif name.endswith(".mat"):
            write_matrix(target, np.ones(bad))
        else:
            write_vector(target, np.ones(bad))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_system(tmp_path)

    def test_load_and_solve_take_no_svd(self, small_system, tmp_path, svd_calls):
        save_system(multiplicative_noise(small_system, 0.05, 0.1, seed=13), tmp_path)
        del svd_calls[:]
        back = load_system(tmp_path)
        solve(back, RkConfig(max_iterations=50, trials=2, seed=1))
        assert svd_calls == []
        # the base factors are taken at first read, from the loaded A
        assert_allclose(back.base.factors.sigma, small_system.factors.sigma, rtol=1e-14)
        assert svd_calls == [(40, 20)]

    def test_multiplicative_requires_f(self, small_system, tmp_path):
        save_system(multiplicative_noise(small_system, 0.05, 0.1, seed=13), tmp_path)
        (tmp_path / "f.mat").unlink()
        with pytest.raises(FileNotFoundError, match="f.mat"):
            load_system(tmp_path)

    @pytest.mark.parametrize("use_e, use_f, name", [(True, False, "e.mat"), (False, True, "f.mat")])
    def test_a_factor_that_meta_names_is_required(self, small_system, tmp_path, use_e, use_f, name):
        save_system(multiplicative_noise(small_system, 0.05, 0.1, use_e=use_e, use_f=use_f, seed=13), tmp_path)
        (tmp_path / name).unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(name)):
            load_system(tmp_path)

    def test_an_older_directory_loads_as_before(self, small_system, tmp_path):
        # saved before the switches: a zero f.mat for the switched-off factor and no use_e/use_f,
        # read as both factors on; the zero one adds 0 to the bound, as the switched-off one does
        noisy = multiplicative_noise(small_system, 0.05, 0.0, use_f=False, seed=13)
        noisy = dataclasses.replace(noisy, b_tilde=noisy.a_tilde @ small_system.x_ls)  # consistent
        save_system(noisy, tmp_path)
        write_matrix(tmp_path / "f.mat", np.zeros((20, 20)))
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps({k: v for k, v in meta.items() if k not in ("use_e", "use_f")}))
        back = load_system(tmp_path)
        assert not np.any(back.f)
        x0s = np.ones((2, 20))
        old = evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, back, x0s, [0, 100])
        new = evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, x0s, [0, 100])
        assert np.array_equal(old.values, new.values) and old.scalars == new.scalars
        assert old.scalars["e1"] == 0.0 and old.scalars["e2"] > 0.0

    @pytest.mark.parametrize("use_e, use_f", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("sigma_a", [0.0, 0.05])
    def test_the_bound_takes_no_svd_of_an_identity(self, small_system, svds_of, use_e, use_f, sigma_a):
        noisy = multiplicative_noise(small_system, sigma_a, 0.0, use_e=use_e, use_f=use_f, seed=13)
        noisy = dataclasses.replace(noisy, b_tilde=noisy.a_tilde @ small_system.x_ls)  # consistent
        evaluate_bound(BoundKind.MULTIPLICATIVE_PERTURBATION, noisy, np.ones((1, 20)), [0, 100])
        assert svds_of(np.eye(40)) == 0 and svds_of(np.eye(20)) == 0
        # each factor that is on and scaled by a nonzero sigma_a takes its one nonsingularity SVD
        assert svds_of(np.eye(40) + sigma_a * factor_draws(13, 40, 20)[0]) == (use_e and sigma_a > 0)
        assert svds_of(np.eye(20) + sigma_a * factor_draws(13, 40, 20)[1]) == (use_f and sigma_a > 0)


@pytest.mark.parametrize("sigma_a, expected", [
    (0.1, ["lstsq"]),  # the noise fills the rank gap: full column rank
    (0.0, ["lstsq", "svd"]),  # rank 20 < n: the least-squares call finds it, then V needs the SVD
])
def test_factorizations_of_a_tall_noisy_matrix(rank_deficient_system, factorizations, sigma_a, expected):
    noisy = additive_noise(rank_deficient_system, sigma_a, 0.1, seed=4)
    assert noisy.analysis.sigma.size == (30 if sigma_a else 20)
    assert factorizations == [(name, (60, 30)) for name in expected]


def test_a_wide_noisy_matrix_takes_only_the_svd(factorizations):
    base = generate_system(SpectrumSpec(m=20, n=30, r=20, sigma_min=1.0, sigma_max=4.0), seed=2)
    assert additive_noise(base, 0.1, 0.1, seed=4).analysis.row_basis.shape == (30, 20)
    assert factorizations == [("svd", (20, 30))]


@settings(max_examples=100, deadline=None)
@given(instances())
def test_analysis_matches_the_svd_of_the_noisy_matrix(instance):
    # least_squares at full column rank, the SVD below it: one analysis either way
    _, noisy, _, _ = instance
    factors, tilde = svd(noisy.a_tilde), noisy.analysis
    assert tilde.sigma.size == factors.sigma.size
    assert np.max(np.abs(tilde.sigma - factors.sigma)) <= 1e-12 * factors.sigma[0]
    for x, y in ((tilde.x_nls, noisy.b_tilde), (tilde.x_pnls, noisy.base.b)):
        exact = factors.pinv_apply(y)
        assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


@st.composite
def noisy_systems(draw):
    """A noisy system of every model on any shape and rank of the oracle test."""
    spec, seed = draw(spectra()), draw(st.integers(0, 1000))
    base = generate_system(spec, seed)
    model = draw(st.sampled_from(NoiseModel))
    level = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    if model is NoiseModel.ADDITIVE:
        return additive_noise(base, draw(level), draw(level), seed)
    if model is NoiseModel.MULTIPLICATIVE:
        return multiplicative_noise(base, draw(level), draw(level), draw(st.booleans()), draw(st.booleans()), seed)
    if model is NoiseModel.PARTIAL_CONSISTENT:
        return partial_consistent_noise(base, draw(st.floats(0.01, 0.99)), seed)
    assume(spec.r >= 2)
    return preconditioner_noise(base)


@settings(max_examples=100, deadline=None)
@given(noisy_systems())
def test_the_noise_read_from_the_systems_is_each_models_recipe(noisy):
    a, s, seed = noisy.base.a, noisy.sigma_a, noisy.base.seed
    m, n = a.shape
    rhs = np.zeros(m)
    if noisy.model is NoiseModel.ADDITIVE:
        e = additive_draw(seed, (m, n))
        recipe, scale = s * e, 1.0 + s * np.linalg.norm(e)
        rhs = noisy.sigma_b * rhs_draw(seed, m)
    elif noisy.model is NoiseModel.MULTIPLICATIVE:
        e, f = factor_draws(seed, m, n, noisy.e is not None, noisy.f is not None)
        recipe = s * e @ a + s * a @ f + s * s * e @ a @ f
        scale = (1.0 + s * np.linalg.norm(e)) * np.linalg.norm(a) * (1.0 + s * np.linalg.norm(f))
        rhs = noisy.sigma_b * rhs_draw(seed, m)
    elif noisy.model is NoiseModel.PARTIAL_CONSISTENT:
        # A M for a square M, so range(A) holds every column; q = ||pinv(A)|| ||dA|| is sigma_a
        recipe = noisy.base.factors.u @ (noisy.base.factors.u.T @ noisy.matrix_noise())
        scale = np.linalg.norm(a)
        assert spectral_norm(noisy.matrix_noise()) / noisy.base.factors.sigma[-1] == pytest.approx(s, rel=1e-9)
    else:
        sigma, u, v = noisy.base.factors.sigma, noisy.base.factors.u, noisy.base.factors.v
        recipe, scale = (sigma[-2] - sigma[-1]) * np.outer(u[:, -1], v[:, -1]), np.linalg.norm(a)
    assert np.linalg.norm(noisy.matrix_noise() - recipe) <= 1e-12 * scale
    assert np.linalg.norm(noisy.rhs_noise() - rhs) <= 1e-12 * (np.linalg.norm(noisy.base.b) + np.linalg.norm(rhs))
    if noisy.model in (NoiseModel.ADDITIVE, NoiseModel.MULTIPLICATIVE) and s == 0.0:
        assert not np.any(noisy.matrix_noise())
    if noisy.sigma_b == 0.0:
        assert not np.any(noisy.rhs_noise())
    # a non-multiplicative system keeps no noise array
    assert (noisy.eps is None) == (noisy.model is not NoiseModel.MULTIPLICATIVE)
