import dataclasses
import json
import os
import re

import numpy as np
import pytest

from noisyrk import (
    BoundKind,
    ExperimentConfig,
    NoiseModel,
    NoiseSpec,
    RkConfig,
    Spacing,
    SpectrumSpec,
    TABLE2_GRID,
    X0Mode,
    additive_noise,
    apply_paper_scale,
    bound_additive,
    generate_system,
    initial_iterates,
    iterations_to_tolerance,
    run_figure_experiment,
    run_preconditioner_demo,
    run_table2,
)
from noisyrk import cli, experiments, problems, seeding
from noisyrk.experiments import build_noisy

from conftest import run_command

SPEC = SpectrumSpec(m=30, n=15, r=15, sigma_min=1.0, sigma_max=4.0)


def make_config(**overrides):
    defaults = dict(
        spectrum=SPEC,
        rk=RkConfig(max_iterations=3000, trials=5, record_stride=150, seed=42),
        master_seed=42,
        grid=((0.0, 0.0),),
        bounds=(BoundKind.ADDITIVE,),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestFigureExperiment:
    def test_noiseless_point_decays_and_is_dominated(self, tmp_path):
        cfg = make_config(bounds=(BoundKind.NOISELESS, BoundKind.ADDITIVE))
        results = run_figure_experiment(cfg)
        res = results[(0.0, 0.0)]
        mse = res.trajectory.mean_squared_error
        assert mse[-1] <= 1e-6 * mse[0]
        for curve in res.curves.values():
            assert np.all(mse <= curve.values + 1e-12)
        files = run_command("figure", cfg, tmp_path / "out")
        assert {"traj_0_0.csv", "band_0_0.csv", "bound_noiseless_0_0.csv", "meta.json"} <= set(files)

    def test_larger_noise_larger_final_error(self):
        grid = ((0.01, 0.01), (0.1, 0.1), (0.5, 0.5))
        cfg = make_config(grid=grid)
        results = run_figure_experiment(cfg)
        finals = [results[g].trajectory.mean_squared_error[-1] for g in grid]
        assert finals[0] < finals[1] < finals[2]

    def test_multiplicative_regime_emits_bound(self, tmp_path):
        cfg = make_config(
            noise=NoiseSpec(NoiseModel.MULTIPLICATIVE, use_f=False),
            grid=((0.05, 0.05),),
            bounds=(BoundKind.MULTIPLICATIVE,),
        )
        results = run_figure_experiment(cfg)
        res = results[(0.05, 0.05)]
        assert BoundKind.MULTIPLICATIVE in res.curves
        assert "bound_multiplicative_0.05_0.05.csv" in run_command("figure", cfg, tmp_path / "out")

    def test_partial_regime_emits_both_horizon_bounds(self, tmp_path):
        # matrix-noise-only grid point comparing the perturbation-route
        # bound against the hypothesis-free one on the same dataset
        cfg = make_config(
            noise=NoiseSpec(NoiseModel.PARTIAL_CONSISTENT),
            grid=((0.4, 0.0),),
            bounds=(BoundKind.PERTURBATION_PARTIAL, BoundKind.ADDITIVE),
        )
        results = run_figure_experiment(cfg)
        res = results[(0.4, 0.0)]
        assert not res.bound_errors
        partial_curve = res.curves[BoundKind.PERTURBATION_PARTIAL]
        direct_curve = res.curves[BoundKind.ADDITIVE]
        assert not partial_curve.squared and direct_curve.squared
        # the direct route gives the smaller horizon here (unsquared comparison)
        assert np.sqrt(direct_curve.horizon) <= partial_curve.horizon + 1e-12
        assert "bound_perturbation_partial_0.4_0.csv" in run_command("figure", cfg, tmp_path / "out")

    def test_invalid_bound_recorded_not_fatal(self, tmp_path):
        cfg = make_config(
            grid=((0.1, 0.1),),
            bounds=(BoundKind.NOISELESS, BoundKind.ADDITIVE),
        )
        results = run_figure_experiment(cfg)
        res = results[(0.1, 0.1)]
        assert BoundKind.ADDITIVE in res.curves
        assert BoundKind.NOISELESS in res.bound_errors
        meta = json.loads(run_command("figure", cfg, tmp_path / "out")["meta.json"])
        assert "noiseless" in meta["bound_errors"]["0.1_0.1"]

    def test_noise_draw_shared_across_grid(self):
        # every grid point scales the same unit draws by its own magnitudes
        sys_ = generate_system(SPEC, 42)
        for model, draws in ((NoiseModel.ADDITIVE, "e eps"), (NoiseModel.MULTIPLICATIVE, "e f eps")):
            low = build_noisy(NoiseSpec(model), sys_, 0.01, 0.01, 42)
            high = build_noisy(NoiseSpec(model), sys_, 0.5, 0.5, 42)
            for name in draws.split():
                assert np.array_equal(getattr(low, name), getattr(high, name)), (model, name)
            assert not np.array_equal(low.a_tilde, high.a_tilde)

    def test_byte_identical_under_same_config(self, tmp_path):
        cfg = make_config(grid=((0.0, 0.0), (0.1, 0.1)))
        snapshot = run_command("figure", cfg, tmp_path / "runs")
        assert run_command("figure", cfg, tmp_path / "runs") == snapshot

    def test_threads_do_not_change_results(self, tmp_path):
        cfg = make_config(grid=((0.0, 0.0), (0.05, 0.05), (0.2, 0.2)))
        snapshot = run_command("figure", cfg, tmp_path / "runs", threads=1)
        assert run_command("figure", cfg, tmp_path / "runs", threads=2) == snapshot

    def test_one_factorization_of_the_noisy_matrix_per_point(self, factorizations):
        grid = ((0.01, 0.0), (0.02, 0.01), (0.05, 0.05))
        kinds = (
            BoundKind.ADDITIVE, BoundKind.MULTIPLICATIVE, BoundKind.MULTIPLICATIVE_PERTURBATION,
        )
        cfg = make_config(
            noise=NoiseSpec(NoiseModel.MULTIPLICATIVE), grid=grid, bounds=kinds,
            rk=RkConfig(max_iterations=200, trials=10, seed=42),
        )
        results = run_figure_experiment(cfg)
        for res in results.values():
            assert set(res.bound_errors) == {BoundKind.MULTIPLICATIVE_PERTURBATION}
            assert "consistency" in res.bound_errors[BoundKind.MULTIPLICATIVE_PERTURBATION]
        # per point one least-squares call on At shared by every kind: generate_system and the
        # noise draw factor nothing, and the failing kind stops at consistency, before its factor checks
        assert factorizations == [("lstsq", (SPEC.m, SPEC.n))] * len(grid)

    def test_the_grid_shares_one_draw_of_each_factor(self, monkeypatch):
        problems._unit_draw.cache_clear()
        real_stream, keys = seeding.stream, []

        def recording_stream(seed, *key):
            keys.append(key)
            return real_stream(seed, *key)

        monkeypatch.setattr(seeding, "stream", recording_stream)
        grid = ((0.01, 0.0), (0.02, 0.01), (0.05, 0.05), (0.1, 0.1))
        cfg = make_config(noise=NoiseSpec(NoiseModel.MULTIPLICATIVE), grid=grid)
        run_figure_experiment(cfg)
        assert keys.count((seeding.MATRIX_NOISE, 0)) == 1
        assert keys.count((seeding.RIGHT_FACTOR_NOISE, 0)) == 1
        e = build_noisy(cfg.noise, generate_system(SPEC, 42), 0.1, 0.1, 42).e
        assert np.array_equal(e, real_stream(42, seeding.MATRIX_NOISE, 0).standard_normal((SPEC.m, SPEC.m)))
        with pytest.raises(ValueError, match="read-only"):
            e[0, 0] = 0.0

    def test_grid_required(self):
        with pytest.raises(ValueError, match="grid"):
            run_figure_experiment(make_config(grid=None))

    def test_grid_points_sharing_a_tag_rejected(self):
        # both would write traj_0.123456_0.csv and share one meta.json key
        grid = ((0.1234561, 0.0), (0.1, 0.1), (0.1234562, 0.0))
        message = "grid points [0.1234561, 0.0] and [0.1234562, 0.0] share the tag '0.123456_0'"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_config(grid=grid)
        # a repeated point would be solved twice and, in table2, repeat its row
        message = "grid points [0.1, 0.1] and [0.1, 0.1] share the tag '0.1_0.1'"
        with pytest.raises(ValueError, match=re.escape(message)):
            make_config(grid=((0.1, 0.1), (0.1, 0.1)))

    def test_pool_has_no_more_workers_than_points(self, monkeypatch):
        # every worker is forked at once: a pool must never outnumber the grid
        sizes, fork = [], os.fork

        def counting_fork():
            pid = fork()
            if pid:
                sizes[-1] += 1
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        for grid, threads in [(((0.0, 0.0), (0.1, 0.1)), 5000), (((0.0, 0.0), (0.1, 0.1), (0.2, 0.2)), 2)]:
            sizes.append(0)
            run_figure_experiment(make_config(grid=grid), threads=threads)
        assert sizes == [2, 2]


class TestTable2:
    def test_rows_and_csv(self, tmp_path):
        cfg = make_config(grid=((0.0, 0.0), (0.0, 1.0)))
        rows = run_table2(cfg)
        assert [(r.sigma_a, r.sigma_b) for r in rows] == [(0.0, 0.0), (0.0, 1.0)]
        clean = rows[0]
        assert clean.theoretical_horizon == 0.0
        assert clean.empirical_horizon <= 1e-10
        noisy = rows[1]
        assert noisy.theoretical_horizon > 0
        assert noisy.empirical_horizon <= noisy.theoretical_horizon
        lines = run_command("table2", cfg, tmp_path / "out")["table2.csv"].decode().splitlines()
        assert lines[0] == "sigma_a,sigma_b,kappa,r_tilde,theo_horizon,emp_horizon"
        assert len(lines) == 3

    def test_one_factorization_of_the_noisy_matrix_per_point(self, factorizations):
        grid = ((0.0, 0.0), (0.01, 0.01), (0.1, 0.0))
        rows = run_table2(make_config(grid=grid))
        # generate_system factors nothing; per point one least-squares call on At gives kappa and r_tilde
        assert factorizations == [("lstsq", (SPEC.m, SPEC.n))] * len(grid)
        assert all(r.kappa_a_tilde >= 1.0 and r.r_tilde >= SPEC.n for r in rows)

    def test_rhs_only_horizon_independent_of_matrix_draw(self):
        cfg = make_config(grid=((1.0, 0.0),))
        rows = run_table2(cfg)
        # with sigma_b = 0 the horizon only carries the matrix term
        sys_ = generate_system(SPEC, cfg.master_seed)
        noisy = additive_noise(sys_, 1.0, 0.0, cfg.master_seed)
        mism = noisy.matrix_noise() @ sys_.x_ls
        from noisyrk import sigma_min_nonzero

        expected = float(mism @ mism) / sigma_min_nonzero(noisy.a_tilde) ** 2
        assert rows[0].theoretical_horizon == pytest.approx(expected, rel=1e-12)

    def test_default_grid_is_standard(self):
        cfg = make_config(grid=None)
        assert cfg.grid is None
        assert len(TABLE2_GRID) == 10

    def test_non_additive_rejected(self):
        cfg = make_config(noise=NoiseSpec(NoiseModel.MULTIPLICATIVE), grid=((0.0, 0.0),))
        with pytest.raises(ValueError, match="additive"):
            run_table2(cfg)

    def test_diagonal_horizon_monotone_at_desk_scale(self):
        spec = SpectrumSpec(m=200, n=100, r=100, sigma_min=5.0, sigma_max=50.0)
        sys_ = generate_system(spec, seed=1)
        x0s = initial_iterates(sys_.a, RkConfig(max_iterations=1, trials=1, seed=1))
        horizons = []
        for s in (0.005, 0.01, 0.05, 0.1, 0.5):
            noisy = additive_noise(sys_, s, s, seed=1)
            horizons.append(bound_additive(noisy, x0s, [0]).horizon)
        assert all(a < b for a, b in zip(horizons, horizons[1:]))


# the table2-sweep benchmark config (demos/04_noise_sweep.py) at a given --seed
SWEEP_GRID = ((0.0, 0.0), (0.0, 1.0), (0.01, 0.01), (0.1, 0.1), (0.5, 0.5), (1.0, 1.0))


def sweep_config(seed: int, **rk) -> ExperimentConfig:
    return ExperimentConfig(spectrum=SpectrumSpec(m=100, n=50, r=50, sigma_min=5.0, sigma_max=50.0),
                            rk=RkConfig(max_iterations=1, trials=10, seed=seed, **rk), master_seed=seed,
                            grid=SWEEP_GRID)


class Budget(Exception):
    """Raised by a patched ``solve`` with the budget it was given, so a test never runs it."""


def budgets(monkeypatch, cfg) -> list:
    """Each grid point's adaptive budget, computed without solving."""
    def stop(noisy, rk, x0s):
        raise Budget(rk.max_iterations)

    monkeypatch.setattr(experiments, "solve", stop)
    sys_ = generate_system(cfg.spectrum, cfg.master_seed)
    found = []
    for sigma_a, sigma_b in cfg.grid:
        with pytest.raises(Budget) as info:
            experiments._run_table2_point(cfg, sys_, sigma_a, sigma_b)
        found.append(info.value.args[0])
    return found


def decay_target_budget(cfg, sys_, sigma_a, sigma_b) -> int:
    """The budget that drives the geometric term, measured from ``x_ls``, below 1e-12 at every point."""
    noisy = build_noisy(cfg.noise, sys_, sigma_a, sigma_b, cfg.master_seed)
    curve = bound_additive(noisy, initial_iterates(noisy.a_tilde, cfg.rk), [0])
    return max(1, iterations_to_tolerance(curve.scalars["scaled_condition_number_tilde"], curve.initial_error, 1e-12))


class TestTable2Budget:
    def test_the_sweep_at_desk_scale(self, monkeypatch):
        cfg = sweep_config(1)
        found = budgets(monkeypatch, cfg)
        assert found == [71631, 35547, 45587, 35746, 23233, 15010] and sum(found) == 226754
        sys_ = generate_system(cfg.spectrum, cfg.master_seed)
        floorless = [decay_target_budget(cfg, sys_, a, b) for a, b in cfg.grid]
        assert sum(floorless) == 373784
        assert found[0] == floorless[0]  # the noiseless point's floor is 0, so 1e-12 alone sets its budget
        assert all(k <= was for k, was in zip(found, floorless))

    def test_the_sweep_at_paper_scale(self, monkeypatch):
        assert sum(budgets(monkeypatch, apply_paper_scale(sweep_config(1)))) == 1300778

    def test_a_zero_start_is_budgeted_from_the_noisy_solution(self, monkeypatch):
        # the floor exceeds ||x0 - x_ls||^2 here, so a transient measured from x_ls would stop at 12 106
        cfg = dataclasses.replace(sweep_config(1, x0_mode=X0Mode.ZERO), grid=((0.0, 20.0),))
        [k] = budgets(monkeypatch, cfg)
        assert k == 14019
        noisy = build_noisy(cfg.noise, generate_system(cfg.spectrum, 1), 0.0, 20.0, 1)
        x0s, x_nls = initial_iterates(noisy.a_tilde, cfg.rk), noisy.analysis.x_nls
        transient = float(np.mean([d @ d for d in x0s - x_nls]))
        shift = x_nls - noisy.base.x_ls
        rate = bound_additive(noisy, x0s, [0]).rate
        assert rate ** k * transient <= 1e-3 * float(shift @ shift) < rate ** (k - 1) * transient

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_the_sweep_solves_between_its_floor_and_its_horizon(self, seed):
        rows = run_table2(sweep_config(seed))
        assert [r.warnings for r in rows] == [()] * len(SWEEP_GRID)
        for r in rows:
            assert r.empirical_horizon <= r.theoretical_horizon + 1e-10
            # exact: x_nls - P_row x_ls = pinv(At)(eps - E x_ls), and the horizon adds the null part
            assert r.ls_shift <= r.theoretical_horizon * (1 + 1e-9) + 1e-20

    def test_the_floor_is_below_the_horizon_at_lower_rank(self, rank_deficient_system):
        grid = ((0.0, 0.0), (0.0, 1.0), (0.1, 0.1))
        cfg = ExperimentConfig(spectrum=rank_deficient_system.spec, rk=RkConfig(max_iterations=1, trials=5, seed=19),
                               master_seed=19, grid=grid)
        assert build_noisy(cfg.noise, rank_deficient_system, 0.0, 1.0, 19).analysis.sigma.size == 20
        rows = run_table2(cfg)
        assert all(r.ls_shift <= r.theoretical_horizon * (1 + 1e-9) + 1e-20 for r in rows)
        assert rows[1].ls_shift > 0 and not rows[1].warnings


class TestPreconditionerDemo:
    def test_small_flat_top_constants(self, tmp_path):
        spec = SpectrumSpec(m=20, n=10, r=10, sigma_min=1.0, sigma_max=4.0, spacing=Spacing.FLAT_TOP)
        rk = RkConfig(max_iterations=2000, trials=4, record_stride=100, seed=3)
        demo = run_preconditioner_demo(spec, tau=5.0, rk=rk, master_seed=3)
        assert demo.r == pytest.approx(9 * 16 + 1, rel=1e-9)
        assert demo.r_tilde == pytest.approx(10.0, rel=1e-9)
        assert demo.k_noisy < demo.k_noiseless
        assert demo.initial_sq_error == pytest.approx(demo.traj_noisy.mean_squared_error[0], rel=1e-12)
        config = tmp_path / "pre.json"
        config.write_text(json.dumps({"spectrum": dataclasses.asdict(spec), "tau": 5.0, "master_seed": 3, "rk": {
            "max_iterations": 2000, "trials": 4, "record_stride": 100, "seed": 3}}))
        assert cli.main(["precondition", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert {p.name for p in (tmp_path / "out").iterdir()} == {
            "traj_noiseless.csv", "traj_noisy.csv", "preconditioner.json"}
        summary = json.loads((tmp_path / "out" / "preconditioner.json").read_text())
        assert summary["k_noiseless"] == demo.k_noiseless
        assert summary["initial_sq_error"] == demo.initial_sq_error

    def test_toy_override_count(self):
        spec = SpectrumSpec(m=3, n=3, r=3, sigma_min=1.0, sigma_max=3.0, spacing=Spacing.FLAT_TOP)
        rk = RkConfig(max_iterations=10, trials=2, seed=1)
        demo = run_preconditioner_demo(spec, tau=0.5, rk=rk, master_seed=2, initial_sq_error=1e6)
        assert demo.k_noiseless == 269
        assert demo.initial_sq_error == 1e6

    def test_one_svd_of_a(self, svds_of):
        spec = SpectrumSpec(m=20, n=10, r=10, sigma_min=1.0, sigma_max=4.0, spacing=Spacing.FLAT_TOP)
        run_preconditioner_demo(spec, tau=5.0, rk=RkConfig(max_iterations=10, trials=2, seed=3), master_seed=3)
        # the gap fill and the noiseless rate read the same LinearSystem.factors
        assert svds_of(generate_system(spec, 3).a) == 1

    def test_shared_start_points(self):
        spec = SpectrumSpec(m=20, n=10, r=10, sigma_min=1.0, sigma_max=4.0, spacing=Spacing.FLAT_TOP)
        rk = RkConfig(max_iterations=50, trials=3, record_stride=50, seed=3)
        demo = run_preconditioner_demo(spec, tau=5.0, rk=rk, master_seed=3)
        start_noisy = demo.traj_noisy.per_trial_squared_error[:, 0]
        start_clean = demo.traj_noiseless.per_trial_squared_error[:, 0]
        assert np.array_equal(start_noisy, start_clean)


class TestConfigSerialization:
    def test_paper_scale_swaps_dimensions(self):
        cfg = make_config()
        big = apply_paper_scale(cfg)
        assert (big.spectrum.m, big.spectrum.n, big.spectrum.r) == (500, 300, 300)
        assert big.rk.max_iterations == 300_000
        assert big.rk.trials == 10
        assert big.spectrum.sigma_min == cfg.spectrum.sigma_min
