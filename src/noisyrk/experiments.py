"""Seeded experiment suites: each computes its records and writes no file.

Three entry points:

* :func:`run_figure_experiment` -- for each noise magnitude pair on a
  grid, run the solver over trials and evaluate the requested bounds at
  the recorded iterations.
* :func:`run_table2` -- the noise-magnitude sweep: condition numbers,
  theoretical horizons, and empirical horizons per grid point, with the
  iteration budget chosen adaptively so the geometric term has decayed.
* :func:`run_preconditioner_demo` -- solve the same system with and
  without the spectral-gap perturbation from identical starting points,
  returning predicted iteration counts and both trajectories.

One unit-variance noise draw is shared by the whole grid (scaled by the
magnitudes per point), so trends across a grid are not confounded by
draw variance.  Identical configs, including the master seed, produce
identical records.  Grid points are independent and may be evaluated by
a process pool (``threads``); the records do not depend on the execution
order.  The command-line front end names and formats every file
written from the records.

:class:`ExperimentConfig` is the config of ``figure`` and ``table2``, read
from JSON through its fields, its nested records included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .bounds import BoundKind, bound_additive, evaluate_bound, iterations_to_tolerance
from .errors import HypothesisError
from .kaczmarz import (
    RkConfig,
    Trajectory,
    empirical_horizon,
    initial_iterates,
    solve,
)
from .linalg import scaled_condition_number
from .problems import (
    LinearSystem,
    NoiseModel,
    NoiseSpec,
    NoisySystem,
    SpectrumSpec,
    _MAX_COUNT, _SEED, _bad, _check, _list_of, _number, _or_none, _record, _rule,  # the config rules
    additive_noise,
    generate_system,
    multiplicative_noise,
    partial_consistent_noise,
    preconditioner_noise,
)

__all__ = [
    "ExperimentConfig",
    "GridPointResult",
    "Table2Row",
    "PreconditionerDemo",
    "TABLE2_GRID",
    "run_figure_experiment",
    "run_table2",
    "run_preconditioner_demo",
    "apply_paper_scale",
    "build_noisy",
]

# The ten magnitude pairs of the reference sweep.
TABLE2_GRID: tuple = (
    (0.0, 0.0), (0.0, 1.0), (0.005, 0.005), (0.01, 0.01), (0.05, 0.05),
    (0.1, 0.1), (0.5, 0.5), (1.0, 1.0), (1.0, 0.0), (20.0, 20.0),
)

# Full-fidelity dimensions and budget behind the --scale paper switch.
PAPER_DIMENSIONS = {"m": 500, "n": 300, "r": 300}
PAPER_ITERATIONS = 300_000
PAPER_TRIALS = 10

# Adaptive iteration budgets push the predicted geometric term below this.
_DECAY_TARGET = 1e-12
# The most RK steps (trials x adaptive budget) one table2 point may ask for: about 8 min at 50 ns a step.
_MAX_STEPS = 10**10


def _noise_grid(pairs) -> tuple:
    """The grid as float pairs, once it is nonempty and no two of its pairs share a file tag (see ``_tag``)."""
    grid = tuple((float(_number(a)), float(_number(b))) for a, b in pairs)
    if not grid:
        raise ValueError("the grid has no point")
    first = {}
    for pair in grid:
        tag = _tag(*pair)
        if tag in first:
            raise ValueError(f"grid points {list(first[tag])} and {list(pair)} share the tag {tag!r}")
        first[tag] = pair
    return grid


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Everything a suite needs: system, noise model, grid, solver, bounds; its fields are its config's keys.

    A ``spectrum``, ``rk`` or ``noise`` is a record or its JSON object; every grid point must be one the model takes.
    ``rk`` is required: a config's ``rk`` block, or its seed, defaults to one seeded by ``master_seed``.
    """

    spectrum: SpectrumSpec = _rule(_record(SpectrumSpec, "spectrum"))
    rk: RkConfig = _rule(_record(RkConfig, "rk"))
    master_seed: int = _rule(_SEED)
    noise: NoiseSpec = _rule(_record(NoiseSpec, "noise"), NoiseSpec())
    grid: tuple | None = _rule(_or_none(_noise_grid), None)
    bounds: tuple = _rule(_list_of(BoundKind), ())

    def __post_init__(self) -> None:
        _check(self, "config")
        for sigma_a, sigma_b in self.grid or ():  # a point the model does not take fails here, before anything runs
            self.noise.check(sigma_a, sigma_b, f"grid point [{sigma_a:g}, {sigma_b:g}]")


def apply_paper_scale(cfg: ExperimentConfig) -> ExperimentConfig:
    """Swap in the full-fidelity dimensions and iteration budget."""
    spectrum = replace(cfg.spectrum, **PAPER_DIMENSIONS)
    rk = replace(cfg.rk, max_iterations=PAPER_ITERATIONS, trials=PAPER_TRIALS)
    return replace(cfg, spectrum=spectrum, rk=rk)


@dataclass(frozen=True, eq=False)
class GridPointResult:
    """Solver trajectory and bound curves for one magnitude pair."""

    sigma_a: float
    sigma_b: float
    trajectory: Trajectory
    curves: dict
    bound_errors: dict


@dataclass(frozen=True)
class Table2Row:
    """One line of the noise-magnitude sweep."""

    sigma_a: float
    sigma_b: float
    kappa_a_tilde: float
    r_tilde: float
    theoretical_horizon: float
    empirical_horizon: float
    iterations: int  # the adaptive budget of the point's solve
    warnings: tuple = ()  # what the point found doubtful in its own horizons, as messages


@dataclass(frozen=True, eq=False)
class PreconditionerDemo:
    """Predicted iteration counts and trajectories with/without gap fill."""

    k_noiseless: int
    k_noisy: int
    traj_noiseless: Trajectory
    traj_noisy: Trajectory
    r: float
    r_tilde: float
    horizon: float
    initial_sq_error: float  # the one the counts used: the measured trial mean or the override


def build_noisy(noise: NoiseSpec, sys: LinearSystem, sigma_a: float, sigma_b: float, seed: int) -> NoisySystem:
    """The noisy system of one magnitude pair under ``noise``: the only noise-model dispatch.

    A pair the model does not take is a ``ValueError``; one that overflows fails :class:`NoisySystem`'s admission.
    """
    noise.check(sigma_a, sigma_b, "noise")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the system's admission
        if noise.model is NoiseModel.ADDITIVE:
            return additive_noise(sys, sigma_a, sigma_b, seed)
        if noise.model is NoiseModel.MULTIPLICATIVE:
            return multiplicative_noise(sys, sigma_a, sigma_b, use_e=noise.use_e, use_f=noise.use_f, seed=seed)
        if noise.model is NoiseModel.PARTIAL_CONSISTENT:
            return partial_consistent_noise(sys, sigma_a, seed)
        return preconditioner_noise(sys)


def _tag(sigma_a: float, sigma_b: float) -> str:
    """A grid point's name in file names and in ``meta.json``: ``0.1_0.01``."""
    return f"{float(sigma_a):g}_{float(sigma_b):g}"


def _run_grid_point(cfg, sys, sigma_a, sigma_b) -> GridPointResult:
    noisy = build_noisy(cfg.noise, sys, sigma_a, sigma_b, cfg.master_seed)
    x0s = initial_iterates(noisy.a_tilde, cfg.rk)
    traj = solve(noisy, cfg.rk, x0s)
    curves: dict = {}
    errors: dict = {}
    # bounds are affine in the initial error, so one curve from the trial-mean
    # initial error is the pointwise mean of the per-trial curves
    for kind in cfg.bounds:
        try:
            curves[kind] = evaluate_bound(kind, noisy, x0s, traj.recorded_iterations)
        except HypothesisError as exc:
            errors[kind] = str(exc)
    return GridPointResult(sigma_a, sigma_b, traj, curves, errors)


def _generate_and_run(worker, cfg: ExperimentConfig, sigma_a: float, sigma_b: float):
    return worker(cfg, generate_system(cfg.spectrum, cfg.master_seed), sigma_a, sigma_b)


def _map_grid(worker, cfg: ExperimentConfig, grid, threads: int) -> list:
    """``worker(cfg, sys, sigma_a, sigma_b)`` at each grid point.

    In process the system is generated once.  Pool tasks generate their own:
    generating it here would import ``numpy.random`` and run the QRs in this
    process before the fork.  As it is, on the ``table2-sweep`` benchmark
    config at seed 1 this process peaks at 30.8 MB and each worker at 32.2 MB.
    """
    if threads <= 1 or len(grid) <= 1:
        sys = generate_system(cfg.spectrum, cfg.master_seed)
        return [worker(cfg, sys, a, b) for a, b in grid]
    # imported here: every other command starts faster without it
    from concurrent.futures import ProcessPoolExecutor

    # fork starts every worker up front, so never more workers than points
    with ProcessPoolExecutor(max_workers=min(threads, len(grid))) as pool:
        return list(pool.map(partial(_generate_and_run, worker, cfg), *zip(*grid)))


def run_figure_experiment(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Trajectories and bound curves over the configured noise grid.

    Returns ``{(sigma_a, sigma_b): GridPointResult}`` in grid order.  Bound
    kinds whose hypotheses fail at a grid point are recorded in the result
    without aborting the rest of the run.
    """
    if cfg.grid is None:
        raise ValueError("figure experiments need an explicit noise grid")
    return {(r.sigma_a, r.sigma_b): r for r in _map_grid(_run_grid_point, cfg, cfg.grid, threads)}


def _adaptive_iterations(r_tilde: float, initial_sq_error: float) -> int:
    """Budget pushing the predicted geometric term below the decay target."""
    if initial_sq_error <= _DECAY_TARGET:
        return 1
    return max(1, iterations_to_tolerance(r_tilde, initial_sq_error, _DECAY_TARGET))


def _run_table2_point(cfg, sys, sigma_a, sigma_b) -> Table2Row:
    noisy = build_noisy(cfg.noise, sys, sigma_a, sigma_b, cfg.master_seed)
    x0s = initial_iterates(noisy.a_tilde, cfg.rk)
    curve = bound_additive(noisy, x0s, [0])  # its initial error is the trial mean
    r_tilde = curve.scalars["scaled_condition_number_tilde"]
    kappa = float(noisy.analysis.sigma[0] / noisy.analysis.sigma[-1])
    iterations = _adaptive_iterations(r_tilde, curve.initial_error)
    if iterations > _MAX_COUNT:
        raise HypothesisError(f"at grid point [{sigma_a:g}, {sigma_b:g}] the scaled condition number {r_tilde:.6g} "
                              f"needs an adaptive budget of {iterations} iterations, more than the {_MAX_COUNT} "
                              "the solver counts")
    if (steps := cfg.rk.trials * iterations) > _MAX_STEPS:
        raise HypothesisError(f"at grid point [{sigma_a:g}, {sigma_b:g}] the scaled condition number {r_tilde:.6g} "
                              f"needs an adaptive budget of {iterations} iterations, {steps} steps over its "
                              f"{cfg.rk.trials} trials, more than the {_MAX_STEPS} a grid point may take")
    traj = solve(noisy, replace(cfg.rk, max_iterations=iterations), x0s)
    empirical = empirical_horizon(traj)
    decayed = curve.rate ** iterations * curve.initial_error
    warnings = []
    if decayed > max(1e-3 * empirical, 1e-10):
        warnings.append(f"empirical horizon at ({sigma_a:g}, {sigma_b:g}) still carries a geometric term {decayed:.3e}")
    if empirical > curve.horizon + 1e-10 and curve.horizon > 0:
        warnings.append(f"empirical horizon {empirical:.6g} exceeds the theoretical horizon {curve.horizon:.6g} "
                        f"at ({sigma_a:g}, {sigma_b:g})")
    return Table2Row(
        sigma_a=sigma_a, sigma_b=sigma_b, kappa_a_tilde=kappa, r_tilde=float(r_tilde),
        theoretical_horizon=float(curve.horizon), empirical_horizon=empirical, iterations=iterations,
        warnings=tuple(warnings),
    )


def run_table2(cfg: ExperimentConfig, threads: int = 1) -> list:
    """The noise-magnitude sweep; returns one row per grid point.

    The iteration budget is chosen per point so the predicted geometric
    term is negligible next to the horizon being measured; a point whose
    budget over its trials exceeds ``_MAX_STEPS`` steps is a failed
    hypothesis before it solves.  A row's ``warnings`` are its own, for the
    caller to report.  Uses the standard ten-point grid when the config
    does not override it.
    """
    if cfg.noise.model is not NoiseModel.ADDITIVE:
        raise _bad("noise", "model", "the sweep is defined for the additive noise model")
    grid = cfg.grid if cfg.grid is not None else TABLE2_GRID
    return _map_grid(_run_table2_point, cfg, grid, threads)


def run_preconditioner_demo(
    spec: SpectrumSpec,
    tau: float,
    rk: RkConfig,
    master_seed: int = 0,
    initial_sq_error: float | None = None,
) -> PreconditionerDemo:
    """Race the original system against its gap-filled perturbation.

    Both solves start every trial from the same point (drawn in the row
    space of the perturbed matrix, which here equals the original row
    space).  Predicted iteration counts to reach ``tau`` come from the
    rate/horizon calculator; ``initial_sq_error`` overrides the measured
    mean initial error in those predictions when supplied.
    """
    sys = generate_system(spec, master_seed)
    noisy = build_noisy(NoiseSpec(NoiseModel.PRECONDITIONER), sys, 0.0, 0.0, master_seed)
    x0s = initial_iterates(noisy.a_tilde, rk)
    traj_noisy = solve(noisy, rk, x0s)
    zero = build_noisy(NoiseSpec(), sys, 0.0, 0.0, master_seed)
    traj_noiseless = solve(zero, rk, x0s)

    curve = bound_additive(noisy, x0s, [0])  # its initial error is the trial mean
    r = scaled_condition_number(sys.factors)
    r_tilde = float(curve.scalars["scaled_condition_number_tilde"])
    if initial_sq_error is None:
        initial_sq_error = curve.initial_error
    return PreconditionerDemo(
        k_noiseless=iterations_to_tolerance(r, initial_sq_error, tau),
        k_noisy=iterations_to_tolerance(r_tilde, initial_sq_error, tau, curve.horizon),
        traj_noiseless=traj_noiseless,
        traj_noisy=traj_noisy,
        r=r,
        r_tilde=r_tilde,
        horizon=float(curve.horizon),
        initial_sq_error=float(initial_sq_error),
    )
