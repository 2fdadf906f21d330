"""Randomized Kaczmarz iteration with row sampling by squared row norm.

One step projects the iterate onto the hyperplane of a single equation:

    x' = x - (row . x - rhs) / ||row||^2 * row

Rows are drawn with replacement, with probability proportional to their
squared norm, via inverse-CDF lookup over the prefix sums.  ``solve``
runs multiple independent trials and records the squared error against
the noiseless least squares solution on a fixed iteration grid.

The step is one compiled C function, ``rk_chunk`` in ``_rk.c``: it
advances every trial through a chunk of steps and writes the squared
error at the recorded iterations, so a chunk costs one foreign call
however densely it records.  It also turns each trial's uniforms into
row indices, through a guide table over the prefix sums; ``rk_sample``
in the same file runs that one resolver for :meth:`RowSampler.sample_block`,
so there is no second index path.  Its sums run in a fixed order and it
is built without ``-ffast-math`` or ``-march=native``, so results do not
depend on the host's vector instructions.  The library is built and
loaded by :func:`noisyrk.linalg._kernel`, which also serves the text
tables (``%.17g`` values under the "C" numeric locale); there is no
pure-numpy step, and without a compiler the first solve raises
:class:`~noisyrk.errors.KernelBuildError`.

Each trial draws its uniforms from its own generator stream, in fixed
chunks of steps; a stream yields the same uniforms however its draws are
split into blocks, and the kernel advances each trial on its own
iterate, so a trial's result does not depend on how many trials run
beside it.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import HypothesisError
from .linalg import _kernel, _write_table, as_matrix, as_vector
from .problems import NoisySystem

__all__ = [
    "X0Mode",
    "RkConfig",
    "Trajectory",
    "rk_step",
    "make_sampler",
    "initial_iterates",
    "record_points",
    "solve",
    "empirical_horizon",
    "write_trajectory_csv",
]

# Cap on stored records per run; the stride grows with the iteration count.
_MAX_RECORDS = 2000

# Steps per trial drawn at once and advanced by one kernel call; bounds the
# draw buffers at O(trials * chunk).
_CHUNK = 1024

class X0Mode(str, enum.Enum):
    ZERO = "zero"
    # a_tilde.T @ y for standard-normal y: a start inside the row space
    # of the iteration matrix
    RANGE_ROWSPACE = "range"


@dataclass(frozen=True, eq=False)
class RkConfig:
    """Iteration budget, recording grid, trial layout and start mode for a solve."""

    max_iterations: int
    trials: int = 10
    record_stride: int | None = None
    seed: int = 0
    x0_mode: X0Mode = X0Mode.RANGE_ROWSPACE

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0_mode", X0Mode(self.x0_mode))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.record_stride is not None and self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


class RowSampler:
    """Draws rows of a matrix with replacement, proportional to their squared norms.

    Zero rows carry zero weight and are never produced.  Sampling is
    inverse-CDF over the prefix sums of the weights, one uniform per draw
    from a dedicated generator stream, resolved in the kernel through a
    guide table: with G the smallest power of two >= m, ``guide[k]`` is
    the first row whose prefix sum exceeds ``(k / G) * total`` (``_rk.c``
    says why a draw may start its search there).
    """

    def __init__(self, a: np.ndarray, rng: np.random.Generator | None):
        arr = as_matrix(a, "a_tilde")
        self.weights = as_vector(np.einsum("ij,ij->i", arr, arr), "squared row norms")
        if not np.any(self.weights > 0):
            raise ValueError("matrix has no nonzero rows to sample")
        self.rng = rng
        cumulative = np.cumsum(self.weights)
        total, size = float(cumulative[-1]), 1 << (arr.shape[0] - 1).bit_length()
        guide = np.searchsorted(cumulative, np.arange(size) / size * total, side="right")
        # the resolver's arguments after the uniforms, in _rk.c's order
        self.table = (arr.shape[0], cumulative, total, guide, size, int(np.flatnonzero(self.weights > 0)[-1]))

    def sample_block(self, count: int) -> np.ndarray:
        """Draw ``count`` indices at once (order matters and is stable)."""
        idx = np.empty(count, dtype=np.int64)
        _kernel().rk_sample(count, self.rng.random(count), *self.table, idx)
        return idx


def make_sampler(a_tilde: np.ndarray, seed: int, trial: int = 0) -> RowSampler:
    """Sampler over the rows of ``a_tilde`` with a per-(seed, trial) stream."""
    return RowSampler(a_tilde, seeding.stream(seed, seeding.SAMPLER, trial))


def _rk_chunk(a, b, sampler, u, col, x_ls, x, err) -> None:
    """Advance row t of ``x`` through the rows of ``a`` that ``sampler`` draws from ``u[t]``, in place.

    After step s the squared distance of row t to ``x_ls`` goes to
    ``err[t, col[s]]`` when ``col[s] >= 0``.  Shapes are checked here,
    before any pointer is handed to the kernel.
    """
    (m, n), (trials, steps) = a.shape, u.shape
    if (b.shape, sampler.weights.shape, x_ls.shape, x.shape, col.shape) != ((m,), (m,), (n,), (trials, n), (steps,)) \
            or err.shape[0] != trials:
        raise ValueError("RK kernel arguments have inconsistent shapes")
    _kernel().rk_chunk(trials, n, steps, a, b, sampler.weights, u, *sampler.table, col, x_ls, x, err, err.shape[1])


def rk_step(x: np.ndarray, row: np.ndarray, rhs: float) -> np.ndarray:
    """One projection onto the hyperplane row . x = rhs.

    After the step the selected equation holds exactly (up to rounding).
    The row must be nonzero; zero rows are excluded by the sampler.
    This is the solver's kernel called for one trial and one step.
    """
    x = as_vector(x, "x")
    row = as_vector(row, "row")
    if row.size != x.size:
        raise ValueError(f"row has width {row.size}, x has {x.size}")
    if not np.any(row):
        raise ValueError("cannot project onto a zero row")
    a, block = np.ascontiguousarray(row)[None, :], x[None, :].copy()
    # the one row is drawn by u = 0; no step is recorded, so the kernel reads no x_ls and writes no error
    _rk_chunk(a, np.array([float(rhs)]), RowSampler(a, None), np.zeros((1, 1)),
              np.array([-1], np.int64), np.zeros(x.size), block, np.empty((1, 0)))
    return block[0]


def initial_iterates(a_tilde: np.ndarray, cfg: RkConfig) -> np.ndarray:
    """The (trials, n) stack of a solve's starting points, one row per trial.

    In ``range`` mode row t is ``a_tilde.T @ y`` for a standard-normal y
    drawn from trial t's own stream, so it depends only on (seed, trial)
    and the same seed yields the same draw across every noise setting
    of an experiment.
    """
    m, n = a_tilde.shape
    if cfg.x0_mode is X0Mode.ZERO:
        return np.zeros((cfg.trials, n))
    # one product per row: a single (trials, m) @ a_tilde would sum in another order
    return np.stack([
        a_tilde.T @ seeding.stream(cfg.seed, seeding.START_POINT, t).standard_normal(m)
        for t in range(cfg.trials)
    ])


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


def solve(noisy: NoisySystem, cfg: RkConfig, x0: np.ndarray | None = None) -> Trajectory:
    """Run randomized Kaczmarz on the noisy system over independent trials.

    Trial t starts from row t of ``x0``, a finite (trials, n) stack that
    defaults to :func:`initial_iterates`; callers that also evaluate
    bounds pass the stack they evaluate them from.  Each trial draws
    rows from its own sampler stream, and records the squared distance to
    the *noiseless* solution ``noisy.base.x_ls`` at the configured stride.
    Each chunk of steps is one call of the compiled kernel for all trials.
    Bit-identical output for identical inputs and config.
    """
    a = np.ascontiguousarray(noisy.a_tilde, dtype=float)
    b = np.ascontiguousarray(noisy.b_tilde, dtype=float)
    x_ls = np.ascontiguousarray(noisy.base.x_ls, dtype=float)
    ks = record_points(cfg.max_iterations, cfg.record_stride)
    # a copy: the kernel advances it in place
    x = np.array(initial_iterates(a, cfg) if x0 is None else x0, dtype=float, order="C")
    if x.shape != (cfg.trials, a.shape[1]):
        raise ValueError(f"x0 has shape {x.shape}; one start per trial needs {(cfg.trials, a.shape[1])}")
    if not np.isfinite(x).all():
        raise ValueError("x0 contains non-finite entries")
    samplers = [make_sampler(a, cfg.seed, trial) for trial in range(cfg.trials)]
    per_trial = np.empty((cfg.trials, ks.size))
    d = x - x_ls
    per_trial[:, 0] = np.vecdot(d, d)
    for start in range(0, cfg.max_iterations, _CHUNK):
        count = min(_CHUNK, cfg.max_iterations - start)
        # u[t, s] draws the row trial t projects onto at iteration start + s + 1,
        # whose error goes to column col[s] when that iteration is recorded
        u = np.stack([s.rng.random(count) for s in samplers])
        lo, hi = np.searchsorted(ks, [start + 1, start + count + 1])
        col = np.full(count, -1, dtype=np.int64)
        col[ks[lo:hi] - start - 1] = np.arange(lo, hi)
        _rk_chunk(a, b, samplers[0], u, col, x_ls, x, per_trial)
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
    header.extend(f"trial_{k}" for k in range(traj.trials))
    columns = np.column_stack([
        traj.recorded_iterations, traj.mean_squared_error, traj.std_squared_error,
        traj.per_trial_squared_error.T,
    ])
    _write_table(path, ",".join(header), columns)
