"""Randomized Kaczmarz iteration with row sampling by squared row norm.

One step projects the iterate onto the hyperplane of a single equation:

    x' = x - (row . x - rhs) / ||row||^2 * row

Rows are drawn with replacement, with probability proportional to their
squared norm, via inverse-CDF lookup over the prefix sums.  ``solve``
orchestrates multiple independent trials and records the squared error
against the noiseless least squares solution on a fixed iteration grid.

Trials are embarrassingly parallel in principle: each trial owns its own
generator streams and writes a disjoint row of the trajectory, so the
loop could be farmed out without changing any result.  The implementation
runs them sequentially; a single trial is inherently sequential.
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


def rk_step(x: np.ndarray, row: np.ndarray, rhs: float) -> np.ndarray:
    """One projection onto the hyperplane row . x = rhs.

    After the step the selected equation holds exactly (up to rounding).
    The row must be nonzero; zero rows are excluded by the sampler.
    """
    x = as_vector(x, "x")
    row = as_vector(row, "row")
    norm_sq = float(row @ row)
    if norm_sq == 0.0:
        raise ValueError("cannot project onto a zero row")
    return x - ((row @ x - rhs) / norm_sq) * row


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
        if x0.ndim == 2:
            return as_vector(x0[trial], "x0").copy()
        return as_vector(x0, "x0").copy()
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
    Bit-identical output for identical inputs and config.
    """
    a = np.ascontiguousarray(noisy.a_tilde)
    b = np.ascontiguousarray(noisy.b_tilde)
    x_ls = noisy.base.x_ls
    ks = record_points(cfg.max_iterations, cfg.record_stride)
    per_trial = np.empty((cfg.trials, ks.size))
    for trial in range(cfg.trials):
        sampler = make_sampler(a, cfg.seed, trial)
        w = sampler.weights
        x = initial_iterate(a, cfg, trial)
        d = x - x_ls
        per_trial[trial, 0] = d @ d
        done = 0
        for j in range(1, ks.size):
            target = int(ks[j])
            for i in sampler.sample_block(target - done):
                row = a[i]
                x -= ((row @ x - b[i]) / w[i]) * row
            done = target
            d = x - x_ls
            per_trial[trial, j] = d @ d
    if not np.isfinite(per_trial).all():
        raise HypothesisError("iteration produced non-finite errors")
    return Trajectory(
        recorded_iterations=ks,
        per_trial_squared_error=per_trial,
        mean_squared_error=per_trial.mean(axis=0),
        std_squared_error=per_trial.std(axis=0),
    )


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
