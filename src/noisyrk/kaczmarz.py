"""Randomized Kaczmarz iteration with row sampling by squared row norm.

One step projects the iterate onto the hyperplane of a single equation:

    x' = x - (row . x - rhs) / ||row||^2 * row

Rows are drawn with replacement, with probability proportional to their
squared norm, via inverse-CDF lookup over the prefix sums.  ``solve``
runs multiple independent trials and records the squared error against
the noiseless least squares solution on a fixed iteration grid.

The trials run in lockstep: their iterates are the rows of one
(trials, n) block, and each step projects every row onto its own
trial's sampled equation at once (one gathered-row dot product per
trial).  Each trial still draws its rows from its own
generator stream, in fixed chunks of steps; a stream yields the same
uniforms however its draws are split into blocks, so batching changes
no draw, and a trial's result does not depend on how many trials run
beside it.  A single trial is inherently sequential.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import HypothesisError
from .linalg import _write_table, as_matrix, as_vector
from .problems import NoisySystem

__all__ = [
    "X0Mode",
    "RkConfig",
    "RowSampler",
    "Trajectory",
    "rk_step",
    "make_sampler",
    "initial_iterate",
    "record_points",
    "solve",
    "empirical_horizon",
    "write_trajectory_csv",
]

# Cap on stored records per run; the stride grows with the iteration count.
_MAX_RECORDS = 2000

# Steps per trial drawn at once; bounds the draw buffers at O(trials * chunk).
_CHUNK = 1024


class X0Mode(str, enum.Enum):
    ZERO = "zero"
    # a_tilde.T @ y for standard-normal y: a start inside the row space
    # of the iteration matrix
    RANGE_ROWSPACE = "range"
    GIVEN = "given"


@dataclass(frozen=True, eq=False)
class RkConfig:
    """Iteration budget, recording grid, and trial layout for a solve.

    In ``given`` mode ``x0`` is either one vector shared by all trials
    or a (trials, n) stack with one starting point per trial.
    """

    max_iterations: int
    trials: int = 10
    record_stride: int | None = None
    seed: int = 0
    x0_mode: X0Mode = X0Mode.RANGE_ROWSPACE
    x0: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0_mode", X0Mode(self.x0_mode))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.record_stride is not None and self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if (self.x0_mode is X0Mode.GIVEN) != (self.x0 is not None):
            raise ValueError("x0 must be supplied exactly when x0_mode is 'given'")
        if self.x0 is not None and np.ndim(self.x0) == 2 and len(self.x0) != self.trials:
            raise ValueError(f"x0 stack has {len(self.x0)} rows for {self.trials} trials")


class RowSampler:
    """Draws row indices with replacement, proportional to squared row norms.

    Zero rows carry zero weight and are never produced.  Sampling is
    inverse-CDF over the prefix sums of the weights, one uniform per
    draw, from a dedicated generator stream.
    """

    def __init__(self, weights: np.ndarray, rng: np.random.Generator):
        weights = as_vector(weights, "weights")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(weights > 0):
            raise ValueError("matrix has no nonzero rows to sample")
        self.weights = weights
        self.cumulative = np.cumsum(weights)
        self.rng = rng
        self._total = float(self.cumulative[-1])
        self._last_positive = int(np.flatnonzero(weights > 0)[-1])

    def sample_block(self, count: int) -> np.ndarray:
        """Draw ``count`` indices at once (order matters and is stable)."""
        u = self.rng.random(count)
        idx = np.searchsorted(self.cumulative, u * self._total, side="right")
        # guard the measure-zero case where u * total rounds up to total
        return np.where(idx >= self.weights.size, self._last_positive, idx)


def make_sampler(a_tilde: np.ndarray, seed: int, trial: int = 0) -> RowSampler:
    """Sampler over the rows of ``a_tilde`` with a per-(seed, trial) stream."""
    arr = as_matrix(a_tilde, "a_tilde")
    weights = np.einsum("ij,ij->i", arr, arr)
    return RowSampler(weights, seeding.stream(seed, seeding.SAMPLER, trial))


def _step(x: np.ndarray, a: np.ndarray, idx, rhs, inv_norm_sq) -> None:
    """One RK step of every trial at once, in place.

    Row t of the (trials, n) block ``x`` is projected onto the hyperplane
    ``a[idx[t]] . x = rhs[t]``; ``inv_norm_sq[t]`` is ``1 / ||a[idx[t]]||^2``.
    """
    rows = a.take(idx, axis=0)
    rows *= ((np.vecdot(rows, x) - rhs) * inv_norm_sq)[:, None]
    x -= rows


def rk_step(x: np.ndarray, row: np.ndarray, rhs: float) -> np.ndarray:
    """One projection onto the hyperplane row . x = rhs.

    After the step the selected equation holds exactly (up to rounding).
    The row must be nonzero; zero rows are excluded by the sampler.
    This is the solver's step applied to a single trial.
    """
    x = as_vector(x, "x")
    row = as_vector(row, "row")
    norm_sq = float(row @ row)
    if norm_sq == 0.0:
        raise ValueError("cannot project onto a zero row")
    block = x[None, :].copy()
    _step(block, row[None, :], [0], rhs, 1.0 / norm_sq)
    return block[0]


def initial_iterate(a_tilde: np.ndarray, cfg: RkConfig, trial: int) -> np.ndarray:
    """Starting point for one trial, drawn from the trial's own stream.

    In ``range`` mode the underlying standard-normal draw depends only on
    (seed, trial), so the same seed yields the same draw across every
    noise setting of an experiment.
    """
    n = a_tilde.shape[1]
    if cfg.x0_mode is X0Mode.ZERO:
        return np.zeros(n)
    if cfg.x0_mode is X0Mode.GIVEN:
        x0 = np.asarray(cfg.x0, dtype=float)
        x0 = as_vector(x0[trial] if x0.ndim == 2 else x0, "x0")
        if x0.size != n:
            raise ValueError(f"x0 has width {x0.size}, the system has {n} unknowns")
        return x0.copy()
    y = seeding.stream(cfg.seed, seeding.START_POINT, trial).standard_normal(a_tilde.shape[0])
    return a_tilde.T @ y


def record_points(max_iterations: int, stride: int | None = None) -> np.ndarray:
    """Iteration indices at which the error is recorded (0 always included)."""
    if stride is None:
        stride = max(1, math.ceil(max_iterations / _MAX_RECORDS))
    ks = list(range(0, max_iterations + 1, stride))
    if ks[-1] != max_iterations:
        ks.append(max_iterations)
    return np.asarray(ks, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Squared errors ``||x_k - x_ls||^2`` recorded across trials.

    ``per_trial_squared_error`` has one row per trial and one column per
    recorded iteration; the aggregates are the arithmetic mean and the
    population standard deviation over trials.
    """

    recorded_iterations: np.ndarray
    per_trial_squared_error: np.ndarray
    mean_squared_error: np.ndarray
    std_squared_error: np.ndarray

    @property
    def trials(self) -> int:
        return self.per_trial_squared_error.shape[0]

    def mean_error(self) -> np.ndarray:
        """Mean over trials of the unsquared error ||x_k - x_ls||."""
        return np.sqrt(self.per_trial_squared_error).mean(axis=0)

    def std_error(self) -> np.ndarray:
        """Population standard deviation of the unsquared error."""
        return np.sqrt(self.per_trial_squared_error).std(axis=0)


def solve(noisy: NoisySystem, cfg: RkConfig) -> Trajectory:
    """Run randomized Kaczmarz on the noisy system over independent trials.

    Each trial starts from its own x0 (see :func:`initial_iterate`), draws
    rows from its own sampler stream, and records the squared distance to
    the *noiseless* solution ``noisy.base.x_ls`` at the configured stride.
    All trials advance together, one :func:`_step` per iteration.
    Bit-identical output for identical inputs and config.
    """
    a = np.ascontiguousarray(noisy.a_tilde)
    b = np.ascontiguousarray(noisy.b_tilde)
    x_ls = noisy.base.x_ls
    ks = record_points(cfg.max_iterations, cfg.record_stride)
    samplers = [make_sampler(a, cfg.seed, t) for t in range(cfg.trials)]
    w = samplers[0].weights
    x = np.stack([initial_iterate(a, cfg, t) for t in range(cfg.trials)])
    per_trial = np.empty((cfg.trials, ks.size))
    per_trial[:, 0] = _squared_distance(x, x_ls)
    column = {k: j for j, k in enumerate(ks.tolist())}
    for start in range(0, cfg.max_iterations, _CHUNK):
        count = min(_CHUNK, cfg.max_iterations - start)
        # idx[s, t]: the row trial t projects onto at iteration start + s + 1
        idx = np.stack([s.sample_block(count) for s in samplers], axis=1)
        for k, (i, rhs, inv) in enumerate(zip(idx, b[idx], 1.0 / w[idx]), start=start + 1):
            _step(x, a, i, rhs, inv)
            j = column.get(k)
            if j is not None:
                per_trial[:, j] = _squared_distance(x, x_ls)
    if not np.isfinite(per_trial).all():
        raise HypothesisError("iteration produced non-finite errors")
    return Trajectory(
        recorded_iterations=ks,
        per_trial_squared_error=per_trial,
        mean_squared_error=per_trial.mean(axis=0),
        std_squared_error=per_trial.std(axis=0),
    )


def _squared_distance(x: np.ndarray, x_ls: np.ndarray) -> np.ndarray:
    d = x - x_ls
    return np.vecdot(d, d)


def empirical_horizon(traj: Trajectory) -> float:
    """Mean squared error at the last recorded iteration.

    Meaningful as a horizon estimate once the geometrically decaying
    term is negligible; choosing an iteration budget that guarantees
    this is the caller's job.
    """
    return float(traj.mean_squared_error[-1])


def write_trajectory_csv(path: str | os.PathLike, traj: Trajectory) -> None:
    """CSV: iteration, mean/std of squared error, then one column per trial."""
    header = ["iteration", "mean_sq_err", "std_sq_err"]
    header.extend(f"trial_{t}" for t in range(traj.trials))
    columns = np.column_stack([
        traj.recorded_iterations, traj.mean_squared_error, traj.std_squared_error,
        traj.per_trial_squared_error.T,
    ])
    _write_table(path, ",".join(header), columns)
