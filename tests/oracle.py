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

The limit as k grows is the fixed point: ``M mu = h``, and ``L(S) = mu h^T + h mu^T +
a_tilde^T diag((r_i^2 - 2 (a_i . mu) r_i) / (W w_i)) a_tilde`` with
``L(S) = M S + S M - a_tilde^T diag(a_i^T S a_i / (W w_i)) a_tilde``.  ``L = I - T``, where
``T(S) = E[P_i S P_i]`` is self-adjoint in the Frobenius inner product with norm below 1 on
the row space of a_tilde, so conjugate gradients solve it there.  The part of ``e`` outside
that row space never moves.

Background: Strohmer & Vershynin, JFAA 2009; Needell, BIT 2010.
"""

from __future__ import annotations

import numpy as np

from noisyrk.kaczmarz import RowSampler
from noisyrk.linalg import svd


def _drawn_rows(noisy) -> tuple:
    """The rows of a_tilde the kernel can draw, their weights ``w``, ``W`` and the residuals ``r`` at ``x_ls``."""
    w = RowSampler(noisy.a_tilde, None).weights
    drawn = w > 0
    a = noisy.a_tilde[drawn]
    return a, w[drawn], float(w.sum()), noisy.b_tilde[drawn] - a @ noisy.base.x_ls


def expected_squared_error(noisy, x0s: np.ndarray, ks) -> np.ndarray:
    """``E||x_k - x_ls||^2`` at each k of the rising grid ``ks``, for a start drawn uniformly from ``x0s``.

    The expectation is over the row draws of ``solve(noisy, ...)``; ``S_0`` is
    the mean of ``e_0 e_0^T`` over the (trials, n) stack ``x0s``, so the result
    is the limit of the trial-mean squared error as the trials grow.
    """
    a, w, total, r = _drawn_rows(noisy)
    x_ls = noisy.base.x_ls
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


def stationary_squared_error(noisy, x0s: np.ndarray, rtol: float = 1e-13) -> float:
    """``lim E||x_k - x_ls||^2`` as k grows, for a start drawn uniformly from ``x0s``: the fixed point above.

    It is solved in an orthonormal basis ``q`` of the row space of a_tilde, where ``M`` is
    nonsingular and ``L`` positive definite, by conjugate gradients on symmetric matrices
    until the residual is ``rtol`` of the right-hand side.  The trial mean of ``||e_0||^2``
    outside the row space is added.
    """
    q = svd(noisy.a_tilde).v
    a, w, total, r = _drawn_rows(noisy)
    a = a @ q
    m_mat = a.T @ a / total
    h = a.T @ r / total
    mu = np.linalg.lstsq(a, r, rcond=None)[0]  # the solution of M mu = h

    def operator(s):
        ms = m_mat @ s
        return ms + ms.T - a.T @ ((np.einsum("ij,ij->i", a @ s, a) / (total * w))[:, None] * a)

    rhs = np.outer(mu, h) + np.outer(h, mu) + a.T @ (((r - 2.0 * (a @ mu)) * r / (total * w))[:, None] * a)
    s, res = np.zeros_like(rhs), rhs.copy()
    p, rr = res.copy(), float(np.vdot(res, res))
    for _ in range(10 * rhs.size + 100):
        if np.sqrt(rr) <= rtol * np.linalg.norm(rhs):
            break
        lp = operator(p)
        alpha = rr / float(np.vdot(p, lp))
        s, res = s + alpha * p, res - alpha * lp
        rr, rr_old = float(np.vdot(res, res)), rr
        p = res + (rr / rr_old) * p
    else:
        raise AssertionError("conjugate gradients did not converge")
    e0 = np.asarray(x0s, dtype=float) - noisy.base.x_ls
    null = e0 - (e0 @ q) @ q.T
    return float(np.trace(s)) + float(np.mean(np.einsum("ij,ij->i", null, null)))
