"""The four ways a consistent system gets corrupted.

Every model starts from the same generated system and reports the
quantity that matters for its bound: effective noise norms, rank
preservation, consistency of the corrupted system.
"""

import numpy as np

from noisyrk import (
    SpectrumSpec,
    additive_noise,
    generate_system,
    multiplicative_noise,
    partial_consistent_noise,
    preconditioner_noise,
    pseudoinverse,
    scaled_condition_number,
    sigma_min_nonzero,
    spectral_norm,
    svd,
)

spec = SpectrumSpec(m=60, n=30, r=30, sigma_min=1.0, sigma_max=10.0)
base = generate_system(spec, seed=7)
print(f"base system: {spec.m}x{spec.n}, sigma in [{base.factors.sigma[-1]:.2f}, "
      f"{base.factors.sigma[0]:.2f}], R = {scaled_condition_number(base.a):.1f}")
print("consistency:", np.linalg.norm(base.a @ base.x_ls - base.b) / np.linalg.norm(base.b))

print("\n--- additive: A + sigma_a E, b + sigma_b eps")
add = additive_noise(base, 0.1, 0.1, seed=7)
print("||A~ - A|| =", spectral_norm(add.matrix_noise()))
print("||b~ - b|| =", np.linalg.norm(add.rhs_noise()))

print("\n--- multiplicative: (I + sigma_a E) A (I + sigma_a F)")
mult = multiplicative_noise(base, 0.05, 0.0, seed=7)
delta = mult.matrix_noise()
print("||dA|| via E A + A F + E A F:", spectral_norm(delta))
print("matches A~ - A:", np.allclose(delta, mult.a_tilde - base.a))

print("\n--- partial consistent: A(I + M), right-hand side untouched")
part = partial_consistent_noise(base, 0.4, seed=7)
q = spectral_norm(part.matrix_noise()) / sigma_min_nonzero(base.a)
x_pnls = pseudoinverse(part.a_tilde) @ base.b
print("||pinv(A)|| ||dA|| =", q, "(the requested q)")
print("rank preserved:", svd(part.a_tilde).sigma.size == base.factors.sigma.size)
print("A~ x = b still solvable:",
      np.linalg.norm(part.a_tilde @ x_pnls - base.b) / np.linalg.norm(base.b) < 1e-9)

print("\n--- gap fill: A + (sigma_{r-1} - sigma_r) u_r v_r^T")
pre = preconditioner_noise(base)
print("R before:", round(scaled_condition_number(base.a), 2),
      " after:", round(scaled_condition_number(pre.a_tilde), 2))
print("trailing singular values now:", svd(pre.a_tilde).sigma[-3:])
