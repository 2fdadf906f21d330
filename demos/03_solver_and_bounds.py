"""Run the randomized solver on a noisy system and check it against theory.

The trial-averaged squared error should decay geometrically at rate
1 - 1/Rt and then flatten at the convergence horizon; the bound curve
has to sit above the empirical curve the whole way.
"""

import numpy as np

from noisyrk import (
    RkConfig,
    SpectrumSpec,
    additive_noise,
    bound_additive,
    empirical_horizon,
    generate_system,
    initial_iterates,
    solve,
)

spec = SpectrumSpec(m=100, n=50, r=50, sigma_min=2.0, sigma_max=20.0)
base = generate_system(spec, seed=3)
noisy = additive_noise(base, sigma_a=0.05, sigma_b=0.05, seed=3)

cfg = RkConfig(max_iterations=20_000, trials=20, record_stride=500, seed=4)
x0s = initial_iterates(noisy.a_tilde, cfg)
traj = solve(noisy, cfg, x0s)

# one curve from the trial-mean initial error of the same start points
curve = bound_additive(noisy, x0s, traj.recorded_iterations)
bound_values = curve.values

print(f"rate per iteration: {curve.rate:.6f}")
print(f"theoretical horizon: {curve.horizon:.4f}")
print(f"empirical horizon:   {empirical_horizon(traj):.4f}")
print()
print(f"{'iter':>6}  {'mean ||x_k - x_ls||^2':>22}  {'bound':>12}")
for j in range(0, traj.recorded_iterations.size, 5):
    k = traj.recorded_iterations[j]
    print(f"{k:>6}  {traj.mean_squared_error[j]:>22.4f}  {bound_values[j]:>12.4f}")

dominated = np.mean(traj.mean_squared_error <= bound_values)
print(f"\nempirical curve under the bound at {dominated:.0%} of records")
