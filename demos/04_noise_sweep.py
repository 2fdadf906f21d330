"""Sweep the noise magnitudes and watch the rate/accuracy trade-off.

More noise shrinks the scaled condition number of the corrupted matrix
(faster iterations) while both horizons grow (worse final accuracy).
The empirical horizon stays below the theoretical one on every row.
"""

from noisyrk import ExperimentConfig, RkConfig, SpectrumSpec, run_table2

cfg = ExperimentConfig(
    spectrum=SpectrumSpec(m=100, n=50, r=50, sigma_min=5.0, sigma_max=50.0),
    rk=RkConfig(max_iterations=1, trials=10, seed=11),  # budget is chosen adaptively
    master_seed=11,
    grid=((0.0, 0.0), (0.0, 1.0), (0.01, 0.01), (0.1, 0.1), (0.5, 0.5), (1.0, 1.0)),
)

rows = run_table2(cfg)

header = f"{'sigma_a':>8} {'sigma_b':>8} {'kappa':>8} {'R~':>10} {'theo horizon':>14} {'emp horizon':>13}"
print(header)
print("-" * len(header))
for r in rows:
    print(f"{r.sigma_a:>8g} {r.sigma_b:>8g} {r.kappa_a_tilde:>8.3f} {r.r_tilde:>10.1f} "
          f"{r.theoretical_horizon:>14.4f} {r.empirical_horizon:>13.4f}")
