"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced; without ``-s`` they still appear for any failure.
"""

import json

import numpy as np
import scipy.stats

from noisyrk import (
    BoundKind,
    ExperimentConfig,
    LinearSystem,
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
    preconditioner_noise,
    pseudoinverse,
    rk_step,
    run_preconditioner_demo,
    run_table2,
    scaled_condition_number,
    solve,
    spectral_norm,
)

from conftest import make_matrix_with_rank, run_command
from oracle import expected_squared_error


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_iteration_counts():
    k_clean = iterations_to_tolerance(19, 1e6, 0.5, 0.0)
    k_noisy = iterations_to_tolerance(3, 1e6, 0.5, 4.0 / 9.0)
    ok = k_clean == 269 and 37 <= k_noisy <= 43
    report(1, ok, f"noiseless count {k_clean} (want 269), gap-filled count {k_noisy} (want 37..43)")


def test_criterion_2_flat_top_condition_numbers():
    results = []
    for (m, n, r), (want_r, want_rt) in (
        ((100, 50, 50), (785.0, 50.0)),
        ((100, 100, 100), (1585.0, 100.0)),
    ):
        spec = SpectrumSpec(m=m, n=n, r=r, sigma_min=1.0, sigma_max=4.0, spacing=Spacing.FLAT_TOP)
        sys_ = generate_system(spec, seed=1)
        got_r = scaled_condition_number(sys_.a)
        got_rt = scaled_condition_number(preconditioner_noise(sys_).a_tilde)
        results.append(
            abs(got_r - want_r) <= 1e-9 * want_r and abs(got_rt - want_rt) <= 1e-9 * want_rt
        )
    report(2, all(results), "R = 785 / Rt = 50 and R = 1585 / Rt = 100 to 1e-9 relative")


def test_criterion_3_zero_noise_sweep_row():
    spec = SpectrumSpec(m=200, n=100, r=100, sigma_min=5.0, sigma_max=50.0)
    cfg = ExperimentConfig(
        spectrum=spec,
        rk=RkConfig(max_iterations=1, trials=10, seed=11),
        master_seed=11,
        grid=((0.0, 0.0),),
    )
    row = run_table2(cfg)[0]
    ok = row.theoretical_horizon <= 1e-10 and row.empirical_horizon <= 1e-10
    report(3, ok, f"horizons at (0,0): theoretical {row.theoretical_horizon:.3e}, "
                  f"empirical {row.empirical_horizon:.3e} (both <= 1e-10)")


def _domination_fraction(noisy, cfg, kind):
    traj = solve(noisy, cfg)
    x0s = initial_iterates(noisy.a_tilde, cfg)
    values = evaluate_bound(kind, noisy, x0s, traj.recorded_iterations).values
    return float(np.mean(traj.mean_squared_error <= values + 1e-12))


def test_criterion_4_bound_domination():
    fractions = []
    spec = SpectrumSpec(m=200, n=100, r=100, sigma_min=5.0, sigma_max=50.0)
    sys_add = generate_system(spec, 17)
    cfg_add = RkConfig(max_iterations=80_000, trials=50, record_stride=400, seed=18)
    for sa, sb in ((0.0, 0.01), (0.01, 0.01), (0.1, 0.1), (0.5, 0.5)):
        noisy = additive_noise(sys_add, sa, sb, 17)
        fractions.append(_domination_fraction(noisy, cfg_add, BoundKind.ADDITIVE))

    spec_m = SpectrumSpec(m=200, n=100, r=100, sigma_min=1.0, sigma_max=10.0)
    sys_mult = generate_system(spec_m, 19)
    cfg_mult = RkConfig(max_iterations=40_000, trials=50, record_stride=200, seed=20)
    for use_e, use_f in ((True, False), (False, True), (True, True)):
        noisy = multiplicative_noise(sys_mult, 0.05, 0.05, use_e=use_e, use_f=use_f, seed=19)
        fractions.append(_domination_fraction(noisy, cfg_mult, BoundKind.MULTIPLICATIVE))

    ok = all(f >= 0.95 for f in fractions)
    detail = "mean squared error under the bound at " + ", ".join(f"{f:.0%}" for f in fractions)
    report(4, ok, detail + " of records (want >= 95% each)")


def test_criterion_5_horizon_ordering():
    spec = SpectrumSpec(m=30, n=15, r=15, sigma_min=1.0, sigma_max=6.0)
    checked = 0
    ok = True
    for seed in range(100):
        sys_ = generate_system(spec, seed=seed)
        strength = 0.05 + 0.9 * (seed / 99.0) * 0.95
        noisy = partial_consistent_noise(sys_, strength, seed=seed)
        cmp_ = horizon_comparison(noisy)
        if not cmp_.condition_holds:
            continue
        checked += 1
        ok = ok and cmp_.chain_verified
        ok = ok and cmp_.main_horizon <= cmp_.partial_horizon + 1e-9
    ok = ok and checked >= 100
    report(5, ok, f"direct horizon <= perturbation horizon with verified chain "
                  f"on {checked} instances")


def test_criterion_6_preconditioner_crossover():
    spec = SpectrumSpec(m=100, n=50, r=50, sigma_min=1.0, sigma_max=4.0, spacing=Spacing.FLAT_TOP)
    rk = RkConfig(max_iterations=5000, trials=10, record_stride=50, seed=5)
    demo = run_preconditioner_demo(spec, tau=50.0, rk=rk, master_seed=1)
    ks = list(demo.traj_noisy.recorded_iterations)
    i_early, i_late = ks.index(100), ks.index(5000)
    noisy_mse = demo.traj_noisy.mean_squared_error
    clean_mse = demo.traj_noiseless.mean_squared_error
    ok = noisy_mse[i_early] < clean_mse[i_early] and noisy_mse[i_late] > clean_mse[i_late]
    report(6, ok, f"at k=100 noisy {noisy_mse[i_early]:.1f} < clean {clean_mse[i_early]:.1f}; "
                  f"at k=5000 noisy {noisy_mse[i_late]:.3g} > clean {clean_mse[i_late]:.3g}")


def test_criterion_6_preconditioner_crossover_exact():
    # the Monte-Carlo check's system and starts, through the exact expectation in place of 10 trials
    spec = SpectrumSpec(m=100, n=50, r=50, sigma_min=1.0, sigma_max=4.0, spacing=Spacing.FLAT_TOP)
    sys = generate_system(spec, 1)
    noisy = preconditioner_noise(sys)
    x0s = initial_iterates(noisy.a_tilde, RkConfig(max_iterations=5000, trials=10, record_stride=50, seed=5))
    noisy_mse = expected_squared_error(noisy, x0s, [100, 5000])
    clean_mse = expected_squared_error(additive_noise(sys, 0.0, 0.0, seed=1), x0s, [100, 5000])
    ok = noisy_mse[0] < clean_mse[0] and noisy_mse[1] > clean_mse[1]
    report(6, ok, f"exactly, at k=100 noisy {noisy_mse[0]:.2f} < clean {clean_mse[0]:.2f}; "
                  f"at k=5000 noisy {noisy_mse[1]:.4g} > clean {clean_mse[1]:.4g}")


class TestCriterion7Properties:
    def test_penrose_identities(self):
        rng = np.random.default_rng(123)
        ok = True
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            r = int(rng.integers(1, min(m, n) + 1))
            a = make_matrix_with_rank(rng, m, n, r)
            p = pseudoinverse(a)
            ok = ok and np.linalg.norm(a @ p @ a - a, "fro") <= 1e-9 * np.linalg.norm(a, "fro")
            ok = ok and np.linalg.norm(p @ a @ p - p, "fro") <= 1e-9 * np.linalg.norm(p, "fro")
            ap, pa = a @ p, p @ a
            ok = ok and np.linalg.norm(ap.T - ap, "fro") <= 1e-9 * max(1.0, np.linalg.norm(ap, "fro"))
            ok = ok and np.linalg.norm(pa.T - pa, "fro") <= 1e-9 * max(1.0, np.linalg.norm(pa, "fro"))
        report(7, ok, "Penrose identities to 1e-9 on 100 random matrices")

    def test_weyl_inequality(self):
        rng = np.random.default_rng(77)
        worst = np.inf
        for _ in range(100):
            m = int(rng.integers(2, 10))
            n = int(rng.integers(2, 10))
            a = rng.standard_normal((m, n))
            e = rng.standard_normal((m, n)) * float(rng.uniform(0.01, 2.0))
            sa = np.linalg.svd(a, compute_uv=False)
            st = np.linalg.svd(a + e, compute_uv=False)
            worst = min(worst, spectral_norm(e) - np.max(np.abs(st - sa)))
        report(7, worst >= -1e-9, f"singular value shifts within the noise norm "
                                  f"(worst slack {worst:.3e}) on 100 pairs")

    def test_projection_idempotence(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(100):
            a = rng.standard_normal(12)
            a /= np.linalg.norm(a)
            p = np.eye(12) - np.outer(a, a)
            worst = max(worst, float(np.max(np.abs(p @ p - p))))
        report(7, worst <= 1e-12, f"projector idempotent to {worst:.3e} (<= 1e-12)")

    def test_step_residual_zeroing(self):
        rng = np.random.default_rng(5)
        ok = True
        for _ in range(100):
            x = rng.standard_normal(10)
            row = rng.standard_normal(10)
            rhs = float(rng.standard_normal())
            x1 = rk_step(x, row, rhs)
            scale = abs(rhs) + np.linalg.norm(row) * np.linalg.norm(x)
            ok = ok and abs(row @ x1 - rhs) <= 1e-12 * scale
        report(7, ok, "selected equation holds to 1e-12 (scaled) after each step")

    def test_sampler_chi_square(self):
        # the draws of a solve, read back: on a one-column system with b_i / a_i = i + 1 the
        # iterate after each step is i + 1 for the row i just drawn, so its squared distance
        # to 0 names that row
        rng = np.random.default_rng(40)
        a = rng.choice([-1.0, 1.0], size=20) * rng.uniform(0.2, 3.0, size=20)
        ratios = np.arange(1.0, 21.0)
        noisy = additive_noise(LinearSystem(a=a[:, None], b=a * ratios, x_ls=np.zeros(1)), 0.0, 0.0, seed=0)
        n_draws = 1_000_000
        traj = solve(noisy, RkConfig(max_iterations=n_draws, trials=1, record_stride=1, seed=41))
        rows = np.rint(np.sqrt(traj.per_trial_squared_error[0, 1:])).astype(np.int64) - 1
        assert np.allclose(ratios[rows] ** 2, traj.per_trial_squared_error[0, 1:], rtol=1e-12)
        counts = np.bincount(rows, minlength=20)
        expected = n_draws * a * a / np.sum(a * a)
        stat = float(np.sum((counts - expected) ** 2 / expected))
        threshold = float(scipy.stats.chi2.ppf(1 - 0.001, df=19))
        report(7, stat <= threshold,
               f"chi-square {stat:.1f} <= {threshold:.1f} at significance 0.001, N=1e6 draws of one solve")

    def test_rhs_bound_equals_additive_with_zero_matrix_noise(self, small_system):
        noisy = additive_noise(small_system, 0.0, 0.8, seed=3)
        x0s = initial_iterates(noisy.a_tilde, RkConfig(max_iterations=1, trials=1, seed=4))
        ks = np.arange(0, 2001, 100)
        via_additive = bound_additive(noisy, x0s, ks)
        via_rhs = evaluate_bound(BoundKind.RHS_NOISE, noisy, x0s, ks)
        gap = float(np.max(np.abs(via_additive.values - via_rhs.values)))
        ok = gap <= 1e-12 * float(via_rhs.values[0])
        report(7, ok, f"zero-matrix-noise reduction matches pointwise (gap {gap:.3e})")

    def test_end_to_end_determinism(self, tmp_path):
        spec = SpectrumSpec(m=30, n=15, r=15, sigma_min=1.0, sigma_max=4.0)
        cfg = ExperimentConfig(
            spectrum=spec,
            rk=RkConfig(max_iterations=2000, trials=5, record_stride=100, seed=42),
            master_seed=42,
            grid=((0.0, 0.0), (0.1, 0.1)),
            bounds=(BoundKind.ADDITIVE,),
        )
        snapshot = run_command("figure", cfg, tmp_path / "out")
        again = run_command("figure", cfg, tmp_path / "out")
        table2 = run_command("table2", cfg, tmp_path / "t2")
        table2_again = run_command("table2", cfg, tmp_path / "t2")
        warnings = json.loads(table2["meta.json"])["warnings"]
        ok = snapshot == again and table2 == table2_again and warnings == {}
        report(7, ok, f"{len(snapshot)} figure and {len(table2)} table2 output files byte-identical across reruns, "
                      f"table2 warnings {warnings}")


def test_criterion_8_noiseless_rate_sanity():
    spec = SpectrumSpec(m=200, n=100, r=100, sigma_min=1.0, sigma_max=4.0)
    sys_ = generate_system(spec, 13)
    r = scaled_condition_number(sys_.a)
    budget = int(5 * r)
    noisy = additive_noise(sys_, 0.0, 0.0, 13)
    cfg = RkConfig(max_iterations=budget, trials=50, record_stride=max(1, budget // 100), seed=14)
    traj = solve(noisy, cfg)
    slope = np.polyfit(traj.recorded_iterations.astype(float),
                       np.log(traj.mean_squared_error), 1)[0]
    factor = float(np.exp(slope))
    limit = (1 - 1 / r) * 1.05
    report(8, factor <= limit, f"fitted decay factor {factor:.6f} <= {limit:.6f}")
