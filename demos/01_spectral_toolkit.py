"""Tour of the dense linear algebra toolkit.

The scaled condition number sum(sigma^2)/sigma_min^2 is the quantity
that drives the solver's convergence rate, so this walks through the
spectral helpers on a tiny matrix where everything is checkable by hand.
"""

import numpy as np

from noisyrk import (
    pseudoinverse,
    scaled_condition_number,
    sigma_min_nonzero,
    spectral_norm,
    svd,
)

a = np.diag([3.0, 3.0, 1.0])
print("A =\n", a)

factors = svd(a)
print("\nsingular values:", factors.sigma, " rank:", factors.sigma.size)
print("spectral norm:   ", spectral_norm(a))
print("frobenius norm:  ", np.linalg.norm(a, "fro"))
print("sigma_min:       ", sigma_min_nonzero(a))

# (9 + 9 + 1) / 1 = 19: the last tiny singular value dominates the count
print("\nscaled condition number:", scaled_condition_number(a))

# lifting the trailing value to 3 collapses it to (9 + 9 + 9) / 9 = 3
print("after filling the gap:   ", scaled_condition_number(np.diag([3.0, 3.0, 3.0])))

p = pseudoinverse(a)
print("\npinv(A) diagonal:", np.diag(p))
print("A pinv(A) A == A:", np.allclose(a @ p @ a, a))

# rank-deficient input: zero singular values simply drop out
b = np.diag([2.0, 0.0])
print("\npinv(diag(2, 0)) =\n", pseudoinverse(b))
