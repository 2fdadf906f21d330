"""The exact expected squared error of a randomized Kaczmarz solve, for tests.

With ``e_k = x_k - x_ls``, one step on row i of a_tilde is ``e -> P_i e + g_i``,
where ``P_i = I - a_i a_i^T / w_i``, ``g_i = r_i / w_i * a_i``, ``w_i = ||a_i||^2``
and ``r_i = bt_i - a_i . x_ls``.  Row i is drawn with ``p_i = w_i / W``,
``W = sum(w)``: the kernel's own weights, so a zero row is never drawn.  The
mean ``mu`` and the second moment ``S = E[e e^T]`` then follow exactly::

    mu' = sum_i p_i (P_i mu + g_i)
    S'  = sum_i p_i (P_i S P_i + P_i mu g_i^T + g_i mu^T P_i + g_i g_i^T)

and ``E||e_k||^2 = tr S_k``.  Because ``p_i w_i^-1 = 1 / W``, the sums collapse
to products with a_tilde, O(m n^2) a step::

    mu' = mu - M mu + h
    S'  = S - M S - S M + mu h^T + h mu^T + a_tilde^T diag(c) a_tilde

with ``M = a_tilde^T a_tilde / W``, ``h = a_tilde^T r / W`` and
``c_i = (a_i^T S a_i - 2 (a_i . mu) r_i + r_i^2) / (W w_i)``.

Background: Strohmer & Vershynin, JFAA 2009; Needell, BIT 2010.
"""

from __future__ import annotations

import numpy as np

from noisyrk.kaczmarz import RowSampler


def expected_squared_error(noisy, x0s: np.ndarray, ks) -> np.ndarray:
    """``E||x_k - x_ls||^2`` at each k of the rising grid ``ks``, for a start drawn uniformly from ``x0s``.

    The expectation is over the row draws of ``solve(noisy, ...)``; ``S_0`` is
    the mean of ``e_0 e_0^T`` over the (trials, n) stack ``x0s``, so the result
    is the limit of the trial-mean squared error as the trials grow.
    """
    w = RowSampler(noisy.a_tilde, None).weights
    drawn = w > 0
    a, w = noisy.a_tilde[drawn], w[drawn]
    total = float(w.sum())
    x_ls = noisy.base.x_ls
    r = noisy.b_tilde[drawn] - a @ x_ls
    m_mat = a.T @ a / total
    h = a.T @ r / total
    e0 = np.asarray(x0s, dtype=float) - x_ls
    mu = e0.mean(axis=0)
    s = e0.T @ e0 / len(e0)
    out, k = [], 0
    for target in ks:
        for _ in range(int(target) - k):
            a_mu = a @ mu
            c = (np.einsum("ij,ij->i", a @ s, a) - 2.0 * a_mu * r + r * r) / (total * w)
            ms = m_mat @ s
            s = s - ms - ms.T + np.outer(mu, h) + np.outer(h, mu) + a.T @ (c[:, None] * a)
            mu = mu - a.T @ a_mu / total + h
        k = int(target)
        out.append(float(np.trace(s)))
    return np.array(out)
