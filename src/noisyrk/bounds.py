"""Convergence rates and horizons for randomized Kaczmarz on noisy systems.

Every bound has the shape ``rate^k * initial_error + horizon`` (with the
exponent halved for bounds on the unsquared error).  The rate is always
``1 - 1/Rt`` where ``Rt = ||pinv(At)||^2 ||At||_F^2`` is the scaled
condition number of the matrix the iteration actually touches.  RK steps
move only within the row space of ``At``, so when ``rank(At) < n`` every
horizon also carries the trial mean of the part of ``x_0 - target``
outside that row space (squared for a squared bound), where ``target`` is
the point the error is measured against (``x_ls`` for a squared bound).
``E = At - A`` and ``eps = bt - b`` are read from the two systems, whatever
model built them; only ``multiplicative_perturbation`` reads a model's own
factors, those that are on.  The catalog:

* ``noiseless``       ``additive`` where At = A and bt = b, so horizon 0
* ``rhs_noise``       ``additive`` where At = A, so horizon
                      (||eps|| / sigma_min(A))^2
* ``additive``        squared, for any matrix noise, horizon
                      (||E x_ls - eps|| / sigma_min(At))^2
* ``multiplicative``  the same bound, asked of a multiplicative system
* ``perturbation_doubly``   unsquared, routed through the noisy least
                      squares solution; needs the perturbation argument
                      and a consistent noisy system
* ``perturbation_partial``  unsquared, for matrix noise that keeps the
                      original right-hand side reachable; needs the
                      perturbation argument and a consistent At x = b
* ``multiplicative_perturbation``  unsquared, valid for perturbations of
                      any size but needs a consistent noisy system

``evaluate_bound(kind, noisy, x0s, ks)`` is the one entry: it checks the
kind's hypothesis, reads the noiseless system as ``noisy.base``, and
carries the trial-mean initial error of the (trials, n) stack ``x0s``.
``bound_additive`` is kept as the name of the squared bound that
``noiseless``, ``rhs_noise`` and ``multiplicative`` share.  Every kind
reads ``noisy.analysis``, the one factorization of ``At``.

``_perturbation`` is the one place of the perturbation argument: rank
preservation, ``q = ||pinv(A)|| ||E|| < 1`` and Weyl's inequality, checked
in that order once per call of either perturbation kind or of ``horizon_comparison``.

Pure functions throughout; safe to evaluate concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .linalg import _identity_plus, _nonsingular, scaled_condition_number, spectral_norm
from .kaczmarz import _start_stack
from .problems import NoiseModel, NoisySystem

__all__ = [
    "BoundKind",
    "BoundCurve",
    "HorizonComparison",
    "bound_additive",
    "horizon_comparison",
    "iterations_to_tolerance",
    "evaluate_bound",
]

_CONSISTENCY_RTOL = 1e-8


class BoundKind(str, enum.Enum):
    NOISELESS = "noiseless"
    RHS_NOISE = "rhs_noise"
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    PERTURBATION_DOUBLY = "perturbation_doubly"
    PERTURBATION_PARTIAL = "perturbation_partial"
    MULTIPLICATIVE_PERTURBATION = "multiplicative_perturbation"


@dataclass(frozen=True, eq=False)
class BoundCurve:
    """A theoretical error bound evaluated on a recording grid.

    ``values[j] = rate**k_j * initial_error + horizon`` with the exponent
    halved when ``squared`` is False.  ``scalars`` records every norm and
    condition number that went into the formula.
    """

    kind: BoundKind
    rate: float
    horizon: float
    initial_error: float
    squared: bool
    iterations: np.ndarray
    values: np.ndarray
    scalars: dict


@dataclass(frozen=True)
class HorizonComparison:
    """Side-by-side horizons of the direct and the perturbation bound.

    ``condition_holds`` is ``2 sigma_min(At) > sigma_min(A) - ||E||``;
    when it does, the three-term inequality chain linking the two
    horizons is checked numerically and reported as ``chain_verified``.
    """

    condition_holds: bool
    main_horizon: float
    partial_horizon: float
    chain_verified: bool


def _norm(v: np.ndarray) -> float:
    """``||v||``: inf, with no warning, when its square overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(v))


def _curve(kind, noisy, x0s, target, horizon, squared, ks, scalars) -> BoundCurve:
    """The bound at rate ``1 - 1/Rt`` from the mean initial error of the starts ``x0s`` against ``target``.

    ``horizon`` gains the part of ``x0 - target`` that no RK step moves (see the module docstring), recorded
    as ``null_space_error`` when ``rank(At) < n``.  A non-finite initial error or horizon is out of scale.
    """
    starts = _start_stack(x0s, target.size)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named right below
        initial = float(np.mean([float(d @ d) if squared else _norm(d) for d in (x - target for x in starts)]))
    if not math.isfinite(initial):
        raise HypothesisError(f"the trial-mean initial error is not finite ({initial}): the system is out of scale")
    r = scaled_condition_number(noisy.analysis)
    scalars = {"scaled_condition_number_tilde": r, **scalars}
    v = noisy.analysis.row_basis
    if v is not None:
        d = starts - target
        null = d - (d @ v) @ v.T
        sq = np.einsum("ij,ij->i", null, null)
        scalars["null_space_error"] = float(np.mean(sq if squared else np.sqrt(sq)))
        horizon += scalars["null_space_error"]
    if not math.isfinite(horizon):
        raise HypothesisError(f"the horizon is not finite ({horizon}): the system is out of scale")
    rate = 1.0 - 1.0 / r
    exponent = np.asarray(ks, dtype=float) / (1.0 if squared else 2.0)
    return BoundCurve(
        kind=kind, rate=rate, horizon=horizon, initial_error=initial, squared=squared,
        iterations=np.asarray(ks, dtype=np.int64),
        values=rate ** exponent * initial + horizon, scalars=scalars,
    )


def _perturbation(noisy: NoisySystem) -> tuple:
    """``q = ||pinv(A)|| ||E||`` and the scalars the perturbation kinds record, once rank preservation, ``q < 1``
    and Weyl hold."""
    sigma, sigma_tilde = noisy.base.factors.sigma, noisy.analysis.sigma
    if sigma_tilde.size != sigma.size:
        raise HypothesisError(
            f"rank preservation failed: rank(A) = {sigma.size}, "
            f"rank of the noisy matrix = {sigma_tilde.size}"
        )
    q = noisy.matrix_noise_norm / float(sigma[-1])
    if q >= 1.0:
        raise HypothesisError(f"noise smallness failed: ||pinv(A)|| * ||E|| = {q:.6g} >= 1")
    # opportunistic singular-value perturbation sanity check
    slack = 1e-9 * max(1.0, float(sigma[0]), float(sigma_tilde[0]))
    if np.max(np.abs(sigma_tilde - sigma)) > noisy.matrix_noise_norm + slack:
        raise HypothesisError("singular value perturbation exceeded the noise norm (Weyl check)")
    return q, {
        "sigma_min_tilde": float(sigma_tilde[-1]),
        "matrix_noise_norm": noisy.matrix_noise_norm,
        "rhs_noise_norm": _norm(noisy.rhs_noise()),
        "x_ls_norm": _norm(noisy.base.x_ls),
    }


def _partial_horizon(q: float, scalars: dict) -> float:
    """``2 ||x_ls|| q / (1 - q) + ||eps|| / sigma_min(At)``, the ``perturbation_partial`` horizon."""
    return 2.0 * scalars["x_ls_norm"] * q / (1.0 - q) + scalars["rhs_noise_norm"] / scalars["sigma_min_tilde"]


def _factor(sigma_a: float, unit: np.ndarray | None, label: str) -> tuple | None:
    """``(M, I + M)``, ``M = sigma_a unit``, once ``I + M`` is nonsingular; None, with no SVD, if M is off or 0."""
    if unit is None or not np.any(eff := sigma_a * unit):
        return None
    i_plus = _identity_plus(sigma_a, unit)
    if not _nonsingular(i_plus):
        raise HypothesisError(f"invertibility of ({label}) failed")
    return eff, i_plus


def _factor_size(eff: np.ndarray, i_plus: np.ndarray) -> float:
    """``sqrt(||M||^2 + ||inv(I + M) M||^2)`` of a :func:`_factor` ``(M, I + M)``."""
    return math.hypot(spectral_norm(eff), spectral_norm(np.linalg.solve(i_plus, eff)))


def _require_consistent(a: np.ndarray, x: np.ndarray, b: np.ndarray, what: str) -> None:
    with np.errstate(over="ignore", invalid="ignore"):  # a norm that overflows is named below
        b_norm, residual = _norm(b), _norm(a @ x - b)
    if not (math.isfinite(b_norm) and math.isfinite(residual)):
        raise HypothesisError(f"a norm that consistency of {what} reads is not finite: the system is out of scale")
    if b_norm == 0.0:
        raise HypothesisError(f"consistency of {what} is undefined: its right-hand side is zero")
    rel = residual / b_norm
    if rel > _CONSISTENCY_RTOL:
        raise HypothesisError(
            f"consistency of {what} failed: relative residual {rel:.3e} exceeds {_CONSISTENCY_RTOL:g}"
        )


def _additive(noisy: NoisySystem):
    """The squared bound against the noiseless solution, for any matrix perturbation.

    The horizon is ``(||E x_ls - eps|| / sigma_min(At))^2``, squared last so
    no ``sigma_min^2`` underflows: 0 with no noise, Needell's (BIT 2010) with a clean matrix.
    """
    sigma_min = float(noisy.analysis.sigma[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite horizon is named by _curve
        mismatch = _norm(noisy.matrix_noise() @ noisy.base.x_ls - noisy.rhs_noise())
        horizon = float(np.float64(mismatch / sigma_min) ** 2)  # Python's ** would raise OverflowError
    scalars = {"sigma_min_tilde": sigma_min, "noise_mismatch_norm": mismatch}
    return noisy.base.x_ls, horizon, True, scalars


def _perturbed_ls_distance(noisy: NoisySystem, q: float, scalars: dict) -> float:
    """Upper bound on the distance between the noisy and noiseless solutions, from :func:`_perturbation`'s result.

    ``(2 q ||x_ls|| + ||pinv(A)|| ||eps||) / (1 - q)`` with
    ``q = ||pinv(A)|| ||E||``.  The returned value is verified to dominate
    the directly computed distance ``||pinv(At) bt - x_ls||``.
    """
    base = noisy.base
    pinv_norm = 1.0 / float(base.factors.sigma[-1])
    value = (2.0 * q * scalars["x_ls_norm"] + pinv_norm * scalars["rhs_noise_norm"]) / (1.0 - q)
    direct = _norm(noisy.analysis.x_nls - base.x_ls)
    if direct > value + 1e-9 * max(1.0, value):
        raise HypothesisError(
            f"perturbed least squares distance bound violated: {direct:.6g} > {value:.6g}"
        )
    return float(value)


def _perturbation_doubly(noisy: NoisySystem):
    """The unsquared bound routed through the noisy least squares solution.

    Needs rank preservation, small noise, and consistency of the noisy
    system itself; the horizon is :func:`_perturbed_ls_distance`.
    """
    tilde = noisy.analysis
    q, scalars = _perturbation(noisy)  # rank preservation and small noise are checked before consistency
    _require_consistent(noisy.a_tilde, tilde.x_nls, noisy.b_tilde, "the noisy linear system")
    return tilde.x_nls, _perturbed_ls_distance(noisy, q, scalars), False, scalars


def _perturbation_partial(noisy: NoisySystem):
    """The unsquared bound for matrix noise with the original right-hand side.

    The horizon is ``2 ||x_ls|| q / (1 - q) + ||eps|| / sigma_min(At)``,
    the initial error is measured against ``pinv(At) b``.
    """
    tilde = noisy.analysis
    q, scalars = _perturbation(noisy)
    _require_consistent(noisy.a_tilde, tilde.x_pnls, noisy.base.b, "the partially noisy linear system")
    return tilde.x_pnls, _partial_horizon(q, scalars), False, scalars


def _multiplicative_perturbation(noisy: NoisySystem):
    """The unsquared bound for multiplicative noise of arbitrary size.

    With scaled factors E, F and relative right-hand noise
    ``rho = ||eps|| / ||b||``::

        e1 = sqrt(||F||^2 + ||inv(I+F) F||^2)
        e2 = (1 + e1) * (rho + (1 + rho) * sqrt(||E||^2 + ||inv(I+E) E||^2))
        horizon = e1 ||x_ls|| + e2 ||pinv(A)|| ||b||

    Requires a consistent noisy system, a nonzero ``b``, nonsingular
    factors and a nonzero ``A``, checked in that order: the check of a
    factor that is on and nonzero takes an SVD; any other adds 0.
    """
    base, tilde = noisy.base, noisy.analysis
    _require_consistent(noisy.a_tilde, tilde.x_nls, noisy.b_tilde, "the noisy linear system")
    b_norm = _norm(base.b)
    if b_norm == 0.0:
        raise HypothesisError("relative right-hand side noise is undefined: b is zero")
    factors = [_factor(noisy.sigma_a, unit, label) for label, unit in (("I + E", noisy.e), ("I + F", noisy.f))]
    e_part, e1 = (_factor_size(*factor) if factor else 0.0 for factor in factors)
    rho = _norm(noisy.rhs_noise()) / b_norm
    e2 = (1.0 + e1) * (rho + (1.0 + rho) * e_part)
    if base.factors.sigma.size == 0:
        raise HypothesisError("||pinv(A)|| is undefined: the noiseless matrix is numerically zero")
    pinv_norm = 1.0 / float(base.factors.sigma[-1])
    horizon = e1 * _norm(base.x_ls) + e2 * pinv_norm * b_norm
    scalars = {"e1": e1, "e2": e2, "relative_rhs_noise": rho, "x_ls_norm": _norm(base.x_ls), "b_norm": b_norm}
    return tilde.x_nls, horizon, False, scalars


# kind -> (its (target, horizon, squared, scalars), the message when its noise hypothesis fails, that
# hypothesis); the first entry checks the rest of the kind's hypotheses itself
_KINDS = {
    BoundKind.NOISELESS: (_additive, "noiseless bound requested but the system carries noise",
                          lambda noisy: not (np.any(noisy.matrix_noise()) or np.any(noisy.rhs_noise()))),
    BoundKind.RHS_NOISE: (_additive, "rhs-noise bound requested but the matrix carries noise",
                          lambda noisy: not np.any(noisy.matrix_noise())),
    BoundKind.ADDITIVE: (_additive, None, lambda noisy: True),
    BoundKind.MULTIPLICATIVE: (_additive, "multiplicative bound requested for a non-multiplicative model",
                               lambda noisy: noisy.model is NoiseModel.MULTIPLICATIVE),
    BoundKind.PERTURBATION_DOUBLY: (_perturbation_doubly, None, lambda noisy: True),
    BoundKind.PERTURBATION_PARTIAL: (
        _perturbation_partial, "partial perturbation bound requested for a model other than partial_consistent",
        lambda noisy: noisy.model is NoiseModel.PARTIAL_CONSISTENT),
    BoundKind.MULTIPLICATIVE_PERTURBATION: (
        _multiplicative_perturbation, "multiplicative perturbation bound requested for a non-multiplicative model",
        lambda noisy: noisy.model is NoiseModel.MULTIPLICATIVE),
}


def evaluate_bound(kind: BoundKind, noisy: NoisySystem, x0s: np.ndarray, ks) -> BoundCurve:
    """The ``kind`` bound on ``noisy`` from the starts ``x0s``, on the grid ``ks``.

    Raises ``HypothesisError`` naming the first hypothesis of the kind
    that ``noisy`` fails.
    """
    kind = BoundKind(kind)
    terms, failure, holds = _KINDS[kind]
    if not holds(noisy):
        raise HypothesisError(failure)
    target, horizon, squared, scalars = terms(noisy)
    return _curve(kind, noisy, x0s, target, horizon, squared, ks, scalars)


def bound_additive(noisy: NoisySystem, x0s: np.ndarray, ks) -> BoundCurve:
    """``evaluate_bound(BoundKind.ADDITIVE, noisy, x0s, ks)``: the squared bound, valid for any perturbation."""
    return evaluate_bound(BoundKind.ADDITIVE, noisy, x0s, ks)


def horizon_comparison(noisy: NoisySystem) -> HorizonComparison:
    """Compare the direct and the perturbation horizon (unsquared forms).

    The direct horizon is the square root of the ``additive`` horizon from
    a start in the row space of ``At`` (0, or any ``initial_iterates``
    start): ``sqrt(||E x_ls - eps||^2 / s^2 + ||P_null(At) x_ls||^2)`` with
    ``s = sigma_min(At)``.  Whenever ``2 s > sigma_min(A) - ||E||`` the
    chain

        direct  <=  (||E|| ||x_ls|| + ||eps||) / s
                <=  2 ||E|| ||x_ls|| / (sigma_min(A) - ||E||) + ||eps|| / s

    is verified numerically; at full column rank the null part is 0 and
    the first link is the triangle inequality.
    """
    if noisy.model is not NoiseModel.PARTIAL_CONSISTENT:
        raise HypothesisError(
            "horizon comparison requested for a model other than partial_consistent"
        )
    q, scalars = _perturbation(noisy)
    sigma_min_tilde = scalars["sigma_min_tilde"]
    main = math.sqrt(bound_additive(noisy, np.zeros((1, noisy.a_tilde.shape[1])), [0]).horizon)
    partial = _partial_horizon(q, scalars)
    condition = 2.0 * sigma_min_tilde > float(noisy.base.factors.sigma[-1]) - noisy.matrix_noise_norm

    chain = False
    if condition:
        middle = (noisy.matrix_noise_norm * scalars["x_ls_norm"] + scalars["rhs_noise_norm"]) / sigma_min_tilde
        slack = 1e-9 * max(1.0, partial)
        chain = main <= middle + slack and middle <= partial + slack
    return HorizonComparison(
        condition_holds=bool(condition),
        main_horizon=float(main),
        partial_horizon=float(partial),
        chain_verified=bool(chain),
    )


def iterations_to_tolerance(r: float, initial_sq_error: float, tau: float, tau0: float = 0.0) -> int:
    """Smallest K with ``(1 - 1/r)^K * initial_sq_error <= tau - tau0``.

    ``tau0`` is the convergence horizon; a tolerance at or below it is
    unreachable and raises.  At ``r = 1`` (a rank-one matrix) the rate is
    0, so one step reaches any reachable tolerance.
    """
    if r < 1.0:
        raise ValueError("scaled condition number must be at least 1")
    if tau0 < 0.0:
        raise ValueError("horizon must be nonnegative")
    if tau <= tau0:
        raise ValueError(f"tau = {tau:g} is at or below the horizon {tau0:g}: the tolerance is unreachable")
    if initial_sq_error <= 0.0:
        raise ValueError(f"initial_sq_error must be positive, got {initial_sq_error:g}")
    target = tau - tau0
    if initial_sq_error <= target:
        return 0
    if r == 1.0:
        return 1
    log_rate = math.log1p(-1.0 / r)
    log_init = math.log(initial_sq_error)
    log_target = math.log(target)
    k = max(0, math.ceil((log_target - log_init) / log_rate))
    while k * log_rate + log_init > log_target:
        k += 1
    while k > 0 and (k - 1) * log_rate + log_init <= log_target:
        k -= 1
    return k
