"""The exact expected squared error of a randomized Kaczmarz solve, for tests.

With ``e_k = x_k - x_ls``, one step on row i of a_tilde is ``e -> P_i e + g_i``,
where ``P_i = I - a_i a_i^T / w_i``, ``g_i = r_i / w_i * a_i``, ``w_i = ||a_i||^2``
and ``r_i = bt_i - a_i . x_ls``.  Row i is drawn with ``p_i = w_i / W``,
``W = sum(w)``: the kernel's own weights, so a zero row is never drawn.  Since
``p_i / w_i = 1 / W``, the mean ``mu`` and second moment ``S = E[e e^T]`` follow
exactly as products with a_tilde::

    mu' = mu - M mu + h,    S' = S - L(S) + F(mu),
    L(S)  = M S + S M - a_tilde^T diag(a_i^T S a_i / (W w_i)) a_tilde,
    F(mu) = mu h^T + h mu^T + a_tilde^T diag((r_i^2 - 2 (a_i . mu) r_i) / (W w_i)) a_tilde,

with ``M = a_tilde^T a_tilde / W``, ``h = a_tilde^T r / W`` and ``E||e_k||^2 = tr S_k``.
Its limit is the fixed point ``M mu = h``, ``L(S) = F(mu)``.  ``L = I - T`` with
``T(S) = E[P_i S P_i]``, self-adjoint in the Frobenius inner product, of norm below 1 on
the row space of a_tilde and the identity outside it; every a_i, h and g_i lies in that
row space.  So both run in an orthonormal basis of it, conjugate gradients solve the
limit, and the part of e outside it, which never moves, is added once.  The step is
written through L, as ``S - T(S)`` would cancel about log10(Rt) digits.

Background: Strohmer & Vershynin, JFAA 2009; Needell, BIT 2010.
"""

import numpy as np

from noisyrk.kaczmarz import RowSampler
from noisyrk.linalg import svd

_RTOL = 1e-13  # conjugate gradients stop when the residual is this part of the right-hand side


class _RowSpaceChain:
    """In a basis q of the row space: the drawable rows ``a``, ``r``, ``M``, ``h`` and the starts'
    mean ``mu0`` and second moment ``s0``; ``null`` is their mean square outside the row space."""

    def __init__(self, noisy, x0s: np.ndarray):
        w = RowSampler(noisy.a_tilde, None).weights
        drawn, total = w > 0, float(w.sum())
        q = svd(noisy.a_tilde).v
        self.r = noisy.b_tilde[drawn] - noisy.a_tilde[drawn] @ noisy.base.x_ls
        self.a = noisy.a_tilde[drawn] @ q
        self.scale = total * w[drawn]  # W w_i
        self.m, self.h = self.a.T @ self.a / total, self.a.T @ self.r / total
        e0 = np.asarray(x0s, dtype=float) - noisy.base.x_ls
        c = e0 @ q
        null = e0 - c @ q.T
        self.mu0, self.s0 = c.mean(axis=0), c.T @ c / len(c)
        self.null = float(np.mean(np.einsum("ij,ij->i", null, null)))

    def _rows(self, d: np.ndarray) -> np.ndarray:  # a^T diag(d_i / (W w_i)) a
        return self.a.T @ ((d / self.scale)[:, None] * self.a)

    def loss(self, s: np.ndarray) -> np.ndarray:  # L(S), for a symmetric S
        ms = self.m @ s
        return ms + ms.T - self._rows(np.einsum("ij,ij->i", self.a @ s, self.a))

    def forcing(self, mu: np.ndarray) -> np.ndarray:  # F(mu)
        return np.outer(mu, self.h) + np.outer(self.h, mu) + self._rows((self.r - 2.0 * (self.a @ mu)) * self.r)


def expected_squared_error(noisy, x0s: np.ndarray, ks) -> np.ndarray:
    """``E||x_k - x_ls||^2`` at each k of the rising grid ``ks``, for a start drawn uniformly from ``x0s``.

    The expectation is over the row draws of ``solve(noisy, ...)`` and the (trials, n)
    stack ``x0s``: the limit of the trial-mean squared error as the trials grow.
    """
    chain = _RowSpaceChain(noisy, x0s)
    mu, s = chain.mu0, chain.s0
    out, k = [], 0
    for target in ks:
        for _ in range(int(target) - k):
            s = s - chain.loss(s) + chain.forcing(mu)
            mu = mu - chain.m @ mu + chain.h
        k = int(target)
        out.append(float(np.trace(s)) + chain.null)
    return np.array(out)


def stationary_squared_error(noisy, x0s: np.ndarray) -> float:
    """``lim E||x_k - x_ls||^2`` as k grows, for a start drawn uniformly from ``x0s``: the fixed point above.

    In the row-space basis L is positive definite: conjugate gradients solve ``L(S) = F(mu)``.
    """
    chain = _RowSpaceChain(noisy, x0s)
    rhs = chain.forcing(np.linalg.lstsq(chain.a, chain.r, rcond=None)[0])  # mu solves M mu = h
    s, res = np.zeros_like(rhs), rhs.copy()
    p, rr = res.copy(), float(np.vdot(res, res))
    for _ in range(10 * rhs.size + 100):
        if np.sqrt(rr) <= _RTOL * np.linalg.norm(rhs):
            break
        lp = chain.loss(p)
        alpha = rr / float(np.vdot(p, lp))
        s, res = s + alpha * p, res - alpha * lp
        rr, rr_old = float(np.vdot(res, res)), rr
        p = res + (rr / rr_old) * p
    else:
        raise AssertionError("conjugate gradients did not converge")
    return float(np.trace(s)) + chain.null
