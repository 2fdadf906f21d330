import dataclasses
import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisyrk import (
    HypothesisError,
    KernelBuildError,
    RkConfig,
    SpectrumSpec,
    additive_noise,
    empirical_horizon,
    generate_system,
    initial_iterates,
    kaczmarz,
    linalg,
    make_sampler,
    record_points,
    rk_step,
    scaled_condition_number,
    seeding,
    solve,
    svd,
)
from noisyrk.cli import write_trajectory_csv


@pytest.fixture(scope="module")
def noiseless(small_system):
    return additive_noise(small_system, 0.0, 0.0, seed=1)


def kernel_sum(terms):
    """``sum(terms)`` in the kernel's order: term j into s[j mod 4], the tail into s0, (s0 + s1) + (s2 + s3)."""
    whole = terms.size - terms.size % 4
    s = np.zeros(4)
    for quad in terms[:whole].reshape(-1, 4):
        s = s + quad
    for term in terms[whole:]:
        s[0] += term
    return (s[0] + s[1]) + (s[2] + s[3])


def reference_rows(weights, seed, trial, count):
    """A trial's first ``count`` rows, resolved in numpy, not by the kernel's resolver.

    Its stream's uniforms go through inverse-CDF lookup over the prefix sums of
    the squared row norms ``weights``, clamped to the last row of positive weight.
    """
    cumulative = np.cumsum(weights)
    u = seeding.stream(seed, seeding.SAMPLER, trial).random(count)
    return np.minimum(np.searchsorted(cumulative, u * cumulative[-1], side="right"), np.flatnonzero(weights > 0)[-1])


def reference_errors(noisy, cfg, trial):
    """Squared errors after each of a trial's steps, from the projection written out in numpy."""
    a, b, x_ls = noisy.a_tilde, noisy.b_tilde, noisy.base.x_ls
    x = initial_iterates(a, cfg)[trial]
    weights = np.einsum("ij,ij->i", a, a)  # the kernel's squared row norms
    errors = []
    for i in reference_rows(weights, cfg.seed, trial, cfg.max_iterations):
        x = x - (kernel_sum(a[i] * x) - b[i]) / weights[i] * a[i]
        errors.append(kernel_sum((x - x_ls) * (x - x_ls)))
    return np.array(errors)


class TestRkStep:
    def test_fixed_point(self):
        x = np.array([1.0, 2.0])
        row = np.array([3.0, 1.0])
        rhs = float(row @ x)
        assert_allclose(rk_step(x, row, rhs), x, atol=1e-14)

    def test_axis_projection(self):
        x = rk_step(np.zeros(2), np.array([1.0, 0.0]), 2.0)
        assert_allclose(x, [2.0, 0.0], atol=1e-14)

    def test_diagonal_projection(self):
        x = rk_step(np.zeros(2), np.array([1.0, 1.0]), 1.0)
        assert_allclose(x, [0.5, 0.5], atol=1e-14)

    def test_residual_zeroed(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.standard_normal(8)
            row = rng.standard_normal(8)
            rhs = float(rng.standard_normal())
            x1 = rk_step(x, row, rhs)
            scale = abs(rhs) + np.linalg.norm(row) * np.linalg.norm(x)
            assert abs(row @ x1 - rhs) <= 1e-12 * scale

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            rk_step(np.zeros(3), np.zeros(3), 1.0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width 2"):
            rk_step(np.zeros(3), np.ones(2), 1.0)

    @pytest.mark.parametrize("rhs", [np.nan, np.inf, -np.inf])
    def test_non_finite_rhs_rejected(self, rhs):
        with pytest.raises(ValueError, match="rhs must be finite"):
            rk_step(np.zeros(2), np.array([1.0, 0.0]), rhs)

    def test_row_whose_squared_norm_underflows_is_named(self):
        with pytest.raises(ValueError, match=r"row \[1e-200, 0\.0\]: its squared norm underflows"):
            rk_step(np.zeros(2), np.array([1e-200, 0.0]), 1.0)

    def test_overflowing_step_rejected(self):
        # c = 1e300 / 1e-300 overflows; the step must not return inf or NaN
        with pytest.raises(ValueError, match="overflowed"):
            rk_step(np.zeros(2), np.array([1e-150, 0.0]), 1e300)


class TestRowSampler:
    def test_equal_weights_frequencies(self):
        sampler = make_sampler(np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0)
        idx = sampler.sample_block(100_000)
        freq = np.bincount(idx, minlength=2) / idx.size
        assert abs(freq[0] - 0.5) <= 0.01

    def test_nine_to_one_frequencies(self):
        sampler = make_sampler(np.array([[3.0, 0.0], [1.0, 0.0]]), seed=1)
        idx = sampler.sample_block(100_000)
        freq = np.bincount(idx, minlength=2) / idx.size
        assert abs(freq[0] - 0.9) <= 0.01
        assert abs(freq[1] - 0.1) <= 0.01

    def test_zero_row_never_sampled(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        sampler = make_sampler(a, seed=2)
        idx = sampler.sample_block(50_000)
        assert not np.any(idx == 1)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            make_sampler(np.zeros((3, 2)), seed=0)

    def test_matrix_whose_squared_norms_underflow_rejected(self):
        with pytest.raises(ValueError, match="no row of positive squared norm"):
            make_sampler(np.full((3, 2), 1e-200), seed=0)

    def test_matrix_whose_total_squared_norm_overflows_rejected(self):
        # each squared row norm is 1e308, their sum is not finite
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="cumulative squared row norms"):
            make_sampler(np.full((3, 1), 1e154), seed=0)

    def test_deterministic_per_seed(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        one = make_sampler(a, seed=5).sample_block(1000)
        two = make_sampler(a, seed=5).sample_block(1000)
        assert np.array_equal(one, two)
        assert not np.array_equal(one, make_sampler(a, seed=6).sample_block(1000))

    @pytest.mark.parametrize("first, second", [(1, 1), (7, 1024), (1024, 1), (300, 2200)])
    def test_blocks_concatenate_to_one_draw(self, small_system, first, second):
        # a stream split into blocks must give the rows of one draw
        split = make_sampler(small_system.a, seed=3, trial=2)
        parts = np.concatenate([split.sample_block(first), split.sample_block(second)])
        whole = make_sampler(small_system.a, seed=3, trial=2).sample_block(first + second)
        assert np.array_equal(parts, whole)


class TestGuideTableResolver:
    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1e12)), min_size=1, max_size=70)
        .filter(lambda w: any(w)),
        drawn=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
    )
    def test_rk_sample_is_searchsorted_plus_clamp(self, weights, drawn):
        # one column, so the squared row norms are the squared entries
        sampler = kaczmarz.RowSampler(np.sqrt(weights)[:, None], None)
        w, cum, total = sampler.weights, sampler.table[1], sampler.table[2]
        # the uniforms lie in [0, 1); every prefix-sum boundary below 1 is a draw
        below_one = np.nextafter(1.0, 0.0)
        u = np.concatenate([[0.0, below_one], np.minimum(cum / total, below_one), drawn])
        idx = np.empty(u.size, dtype=np.int64)
        kaczmarz._kernel().rk_sample(u.size, u, *sampler.table, idx)
        expected = np.searchsorted(cum, u * total, side="right")
        expected[expected >= w.size] = np.flatnonzero(w > 0)[-1]
        assert np.array_equal(idx, expected)
        assert np.all(w[idx] > 0)


class TestRecordPoints:
    def test_includes_endpoints(self):
        ks = record_points(10, stride=4)
        assert list(ks) == [0, 4, 8, 10]

    def test_default_stride_caps_records(self):
        ks = record_points(1_000_000)
        assert ks[0] == 0 and ks[-1] == 1_000_000
        assert ks.size <= 2002


class TestSolve:
    def test_noiseless_decay(self, small_system, noiseless):
        r = scaled_condition_number(small_system.a)
        budget = int(50 * r)
        traj = solve(noiseless, RkConfig(max_iterations=budget, trials=10, seed=2))
        assert traj.mean_squared_error[-1] <= 1e-6 * traj.mean_squared_error[0]

    def test_zero_noise_horizon_is_machine_level(self, noiseless):
        traj = solve(noiseless, RkConfig(max_iterations=7000, trials=10, seed=2))
        assert empirical_horizon(traj) <= 1e-10

    def test_bit_identical_for_same_seed(self, noiseless):
        cfg = RkConfig(max_iterations=500, trials=3, seed=11)
        t1 = solve(noiseless, cfg)
        t2 = solve(noiseless, cfg)
        assert np.array_equal(t1.per_trial_squared_error, t2.per_trial_squared_error)

    def test_matches_reference_projection(self, small_system):
        noisy = additive_noise(small_system, 0.1, 0.1, seed=4)
        cfg = RkConfig(max_iterations=20, trials=1, record_stride=20, seed=9)
        traj = solve(noisy, cfg)
        assert_allclose(traj.per_trial_squared_error[0, -1], reference_errors(noisy, cfg, 0)[-1], rtol=1e-12)

    @pytest.mark.parametrize("stride", [7, 1])
    def test_every_trial_matches_reference_projection(self, small_system, stride):
        # a stride of 7 does not divide the 2500 steps
        noisy = additive_noise(small_system, 0.1, 0.1, seed=4)
        cfg = RkConfig(max_iterations=2500, trials=3, record_stride=stride, seed=9)
        traj = solve(noisy, cfg)
        ks = traj.recorded_iterations
        assert ks[-1] == 2500
        for trial in range(cfg.trials):
            expected = reference_errors(noisy, cfg, trial)[ks[1:] - 1]
            assert np.array_equal(traj.per_trial_squared_error[trial, 1:], expected)

    def test_tail_terms_match_reference_projection(self):
        # n = 23: three terms past the last group of four go into the first accumulator
        sys_ = generate_system(SpectrumSpec(m=30, n=23, r=23, sigma_min=1.0, sigma_max=4.0), seed=2)
        noisy = additive_noise(sys_, 0.1, 0.1, seed=4)
        cfg = RkConfig(max_iterations=300, trials=2, record_stride=1, seed=9)
        traj = solve(noisy, cfg)
        for trial in range(cfg.trials):
            assert np.array_equal(traj.per_trial_squared_error[trial, 1:], reference_errors(noisy, cfg, trial))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), extra_rows=st.integers(0, 5), seed=st.integers(0, 1000))
    def test_every_width_matches_reference_projection(self, n, extra_rows, seed):
        # widths 1-9 reach every tail of the two-lane update and of the four-accumulator sums
        spec = SpectrumSpec(m=n + extra_rows, n=n, r=n, sigma_min=1.0, sigma_max=4.0)
        noisy = additive_noise(generate_system(spec, seed=seed), 0.1, 0.1, seed=seed)
        cfg = RkConfig(max_iterations=40, trials=2, record_stride=1, seed=seed)
        traj = solve(noisy, cfg)
        for trial in range(cfg.trials):
            assert np.array_equal(traj.per_trial_squared_error[trial, 1:], reference_errors(noisy, cfg, trial))

    def test_solve_advances_each_stream_by_its_step_count(self, small_system, monkeypatch):
        noisy = additive_noise(small_system, 0.1, 0.1, seed=4)
        real_stream, streams = seeding.stream, {}

        def recording_stream(seed, *key):
            streams[key] = real_stream(seed, *key)
            return streams[key]

        monkeypatch.setattr(seeding, "stream", recording_stream)
        solve(noisy, RkConfig(max_iterations=777, trials=3, record_stride=50, seed=9))
        for trial in range(3):
            # the next draw of trial t's stream is draw 778 of a fresh one
            fresh = real_stream(9, seeding.SAMPLER, trial).random(778)
            assert streams[(seeding.SAMPLER, trial)].random() == fresh[-1]

    @pytest.mark.parametrize("ks", [[1, 5], [0, 3, 3, 5], [0, 5, 4], [0]])
    def test_record_grid_must_rise_strictly_from_zero(self, noiseless, ks):
        a, n = noiseless.a_tilde, noiseless.a_tilde.shape[1]
        with pytest.raises(ValueError, match="record grid must rise strictly from 0"):
            kaczmarz._rk_solve(a, noiseless.b_tilde, [np.random.default_rng(0)], np.array(ks, np.int64),
                               np.zeros(n), np.zeros((1, n)), np.empty((1, len(ks))))

    def test_trial_independent_of_other_trials(self, small_system):
        noisy = additive_noise(small_system, 0.1, 0.1, seed=4)
        three = solve(noisy, RkConfig(max_iterations=2500, trials=3, record_stride=7, seed=9))
        one = solve(noisy, RkConfig(max_iterations=2500, trials=1, record_stride=7, seed=9))
        assert np.array_equal(three.per_trial_squared_error[0], one.per_trial_squared_error[0])

    def test_monotone_decrease_in_expectation(self, noiseless):
        cfg = RkConfig(max_iterations=1500, trials=100, record_stride=50, seed=3)
        mse = solve(noiseless, cfg).mean_squared_error
        assert np.all(mse[1:] <= mse[:-1] * 1.05)

    def test_iterates_confined_to_row_space(self, small_system):
        noisy = additive_noise(small_system, 0.2, 0.2, seed=8)
        cfg = RkConfig(max_iterations=200, trials=1, seed=8)
        x0 = initial_iterates(noisy.a_tilde, cfg)[0]
        x = x0.copy()
        for i in reference_rows(np.einsum("ij,ij->i", noisy.a_tilde, noisy.a_tilde), cfg.seed, 0, 200):
            x = rk_step(x, noisy.a_tilde[i], noisy.b_tilde[i])
        v = svd(noisy.a_tilde).v
        drift = x - x0
        outside = drift - v @ (v.T @ drift)
        assert np.linalg.norm(outside) <= 1e-8 * np.linalg.norm(drift)

    def test_given_x0_per_trial(self, noiseless, small_system):
        n = small_system.a.shape[1]
        x0s = np.arange(2 * n, dtype=float).reshape(2, n)
        traj = solve(noiseless, RkConfig(max_iterations=5, trials=2, seed=0), x0s)
        d0 = x0s[0] - small_system.x_ls
        d1 = x0s[1] - small_system.x_ls
        assert traj.per_trial_squared_error[0, 0] == pytest.approx(float(d0 @ d0))
        assert traj.per_trial_squared_error[1, 0] == pytest.approx(float(d1 @ d1))

    def test_x0_stack_needs_one_row_per_trial(self, noiseless, small_system):
        x0s = np.zeros((2, small_system.a.shape[1]))
        with pytest.raises(ValueError, match=r"shape \(2, 20\); one start per trial needs \(3, 20\)"):
            solve(noiseless, RkConfig(max_iterations=5, trials=3), x0s)

    def test_non_finite_x0_rejected(self, noiseless, small_system):
        x0s = np.zeros((2, small_system.a.shape[1]))
        x0s[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve(noiseless, RkConfig(max_iterations=5, trials=2), x0s)

    @pytest.mark.parametrize("mode", ["range", "zero"])
    def test_default_starts_are_initial_iterates(self, small_system, mode):
        noisy = additive_noise(small_system, 0.1, 0.1, seed=4)
        cfg = RkConfig(max_iterations=300, trials=3, seed=9, x0_mode=mode)
        x0s = initial_iterates(noisy.a_tilde, cfg)
        kept = x0s.copy()
        given = solve(noisy, cfg, x0s)
        assert np.array_equal(x0s, kept)  # the caller's stack is not advanced in place
        assert np.array_equal(given.per_trial_squared_error, solve(noisy, cfg).per_trial_squared_error)

    def test_initial_iterates_rows_depend_only_on_seed_and_trial(self, small_system):
        a = small_system.a
        five = initial_iterates(a, RkConfig(max_iterations=1, trials=5, seed=3))
        two = initial_iterates(a, RkConfig(max_iterations=1, trials=2, seed=3))
        assert five.shape == (5, a.shape[1])
        assert np.array_equal(five[:2], two)
        assert not np.array_equal(five[0], five[1])
        assert np.array_equal(initial_iterates(a, RkConfig(max_iterations=1, trials=2, x0_mode="zero")),
                              np.zeros((2, a.shape[1])))

    def test_inconsistent_system_shapes_rejected(self, noiseless):
        # the kernel would read past the end of b_tilde
        short = dataclasses.replace(noiseless, b_tilde=noiseless.b_tilde[:-1])
        with pytest.raises(ValueError, match="inconsistent shapes"):
            solve(short, RkConfig(max_iterations=5, trials=1))

    def test_overflowing_error_is_a_failed_hypothesis(self, noiseless, small_system):
        # ||x0 - x_ls||^2 overflows for entries of 1e200: solve must not return inf or NaN
        x0s = np.full((2, small_system.a.shape[1]), 1e200)
        with np.errstate(over="ignore"), pytest.raises(HypothesisError, match="non-finite"):
            solve(noiseless, RkConfig(max_iterations=5, trials=2), x0s)

    @pytest.mark.parametrize("shape", [(19,), (2, 21)])
    def test_x0_width_must_match_system(self, noiseless, shape):
        with pytest.raises(ValueError, match=r"one start per trial needs \(2, 20\)"):
            solve(noiseless, RkConfig(max_iterations=5, trials=2), np.zeros(shape))


class TestKernelBuild:
    def test_source_ships_as_package_data(self):
        assert (importlib.resources.files("noisyrk") / "_rk.c").is_file()

    def test_source_compiles_without_warnings(self):
        command = [linalg._COMPILER, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", *linalg._CFLAGS,
                   str(linalg._KERNEL_SOURCE)]
        done = subprocess.run(command, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_missing_compiler_names_the_command(self, kernel_cache, monkeypatch, tmp_path):
        monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
        with pytest.raises(KernelBuildError, match="gcc -O2 -fPIC -shared -ffp-contract=off"):
            rk_step(np.zeros(2), np.array([1.0, 0.0]), 2.0)

    def test_warm_start_runs_no_process(self, kernel_cache, monkeypatch):
        rk_step(np.zeros(2), np.array([1.0, 0.0]), 2.0)
        kaczmarz._kernel.cache_clear()

        def no_process(*args, **kwargs):
            raise AssertionError("a warm kernel cache ran a process")

        monkeypatch.setattr(subprocess, "run", no_process)
        assert_allclose(rk_step(np.zeros(2), np.array([1.0, 0.0]), 2.0), [2.0, 0.0])
        assert [p.suffix for p in kernel_cache.iterdir()] == [".so"]

    def test_leftover_temp_file_does_not_break_a_build(self, kernel_cache):
        kernel_cache.mkdir(parents=True)
        (kernel_cache / "stale.tmp").write_bytes(b"not a library")
        assert_allclose(rk_step(np.zeros(2), np.array([1.0, 1.0]), 1.0), [0.5, 0.5])

    def test_concurrent_builds_into_one_empty_cache(self, kernel_cache):
        env = {**os.environ, "XDG_CACHE_HOME": str(kernel_cache.parent),
               "PYTHONPATH": str(Path(kaczmarz.__file__).parents[1])}
        code = "import numpy as np, noisyrk; print(noisyrk.rk_step(np.zeros(2), np.array([1.0, 0.0]), 2.0))"
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) for _ in range(2)]
        outcomes = [p.communicate(timeout=120) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], outcomes
        assert [p.suffix for p in kernel_cache.iterdir()] == [".so"]


class TestProjectionGeometry:
    def test_projection_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.standard_normal(10)
            a /= np.linalg.norm(a)
            p = np.eye(10) - np.outer(a, a)
            assert np.max(np.abs(p @ p - p)) <= 1e-12

    def test_update_components_orthogonal(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.standard_normal(10)
            x = rng.standard_normal(10)
            c = float(rng.standard_normal())
            p_x = x - a * (a @ x) / (a @ a)
            step = (c / (a @ a)) * a
            assert abs(p_x @ step) <= 1e-10 * max(1.0, np.linalg.norm(x))


class TestTrajectoryCsv:
    def test_layout_and_values(self, noiseless, tmp_path):
        traj = solve(noiseless, RkConfig(max_iterations=100, trials=3, record_stride=50, seed=1))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,mean_sq_err,std_sq_err,trial_0,trial_1,trial_2"
        assert len(lines) == 1 + traj.recorded_iterations.size
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == traj.mean_squared_error[0]
