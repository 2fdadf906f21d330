"""Randomized Kaczmarz iteration with row sampling by squared row norm.

One step projects the iterate onto the hyperplane of a single equation:

    x' = x - (row . x - rhs) / ||row||^2 * row

Rows are drawn with replacement, with probability proportional to their
squared norm, via inverse-CDF lookup over the prefix sums.  ``solve``
runs multiple independent trials and records the squared error against
the noiseless least squares solution on a fixed iteration grid.

A solve is one call of ``rk_solve`` in the compiled ``_rk.c``: it
advances every trial through all its steps, each trial drawing its
uniforms in the kernel from its own generator stream through numpy's
``bitgen_t`` interface, and writes the squared error at the recorded
iterations.  Draws become row indices through a guide table over the
prefix sums; ``rk_sample`` runs that one resolver for
:meth:`RowSampler.sample_block`, so there is no second index path.  Its
sums run in a fixed order and it is built without ``-ffast-math`` or
``-march=native``, so results do not depend on the host's vector
instructions.  The library is built and loaded by
:func:`noisyrk.linalg._kernel`, which also serves the text tables
(``%.17g`` values under the "C" numeric locale); there is no pure-numpy
step, and without a compiler the first solve raises
:class:`~noisyrk.errors.KernelBuildError`.

A trial sees the uniforms its stream's ``random()`` would return, and
the kernel advances each trial on its own iterate, so a trial's result
does not depend on how many trials run beside it.

:class:`RkConfig` is a config's ``rk`` block; ``RkConfig()`` is the empty one of a config with no ``master_seed``.
"""

from __future__ import annotations

import ctypes
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .errors import HypothesisError
from .linalg import _finite, _kernel
from .problems import _COUNT, _SEED, NoisySystem, _check, _or_none, _rule  # the config rules

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
]

# Cap on stored records per run; the stride grows with the iteration count.
_MAX_RECORDS = 2000

class X0Mode(str, enum.Enum):
    ZERO = "zero"
    # a_tilde.T @ y for standard-normal y: a start inside the row space
    # of the iteration matrix
    RANGE_ROWSPACE = "range"


@dataclass(frozen=True)
class RkConfig:
    """Iteration budget, recording grid, trial layout and start mode for a solve: a config's ``rk`` block."""

    max_iterations: int = _rule(_COUNT, 10_000)
    trials: int = _rule(_COUNT, 10)
    record_stride: int | None = _rule(_or_none(_COUNT), None)
    seed: int = _rule(_SEED, 0)
    x0_mode: X0Mode = _rule(X0Mode, X0Mode.RANGE_ROWSPACE)

    def __post_init__(self) -> None:
        _check(self, "rk")


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
        arr = _finite(a, 2, "a_tilde")
        self.weights = _finite(np.einsum("ij,ij->i", arr, arr), 1, "squared row norms")
        if not np.any(self.weights > 0):
            raise ValueError("matrix has no row of positive squared norm to sample")
        self.rng = rng
        cumulative = _finite(np.cumsum(self.weights), 1, "cumulative squared row norms")
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


def _rk_solve(a, b, rngs, ks, x_ls, x, err) -> None:
    """Advance each row t of ``x`` in place by ``ks[-1]`` projections onto rows of ``a`` drawn from ``rngs[t]``.

    A :class:`RowSampler` table of ``a`` turns the draws into rows.  After
    step ``ks[r]``, r >= 1, the squared distance of row t to ``x_ls`` goes
    to ``err[t, r]``.  Shapes and the grid are checked here, before any
    pointer is handed to the kernel, and ``rngs`` holds every generator
    until the kernel returns.
    """
    (m, n), trials = a.shape, len(rngs)
    if (b.shape, x_ls.shape, x.shape, err.shape) != ((m,), (n,), (trials, n), (trials, ks.size)):
        raise ValueError("RK kernel arguments have inconsistent shapes")
    if ks.size < 2 or ks[0] != 0 or np.any(np.diff(ks) <= 0):
        raise ValueError("record grid must rise strictly from 0")
    sampler = RowSampler(a, None)
    bitgens = (ctypes.c_void_p * trials)(*(rng.bit_generator.ctypes.bit_generator.value for rng in rngs))
    _kernel().rk_solve(trials, n, a, b, sampler.weights, *sampler.table, bitgens, ks.size, ks, x_ls, x, err)


def _start_stack(x0s, n: int, trials: int | None = None) -> np.ndarray:
    """A C-ordered float copy of ``x0s``, once it is a finite stack of ``trials`` (default: any >= 1) starts in R^n."""
    starts = np.array(x0s, dtype=float, order="C")
    count = starts.shape[0] if trials is None and starts.ndim == 2 else trials
    if starts.shape != (count, n) or count == 0:
        raise ValueError(f"x0s has shape {starts.shape}; one start per trial needs ({trials or 'trials'}, {n})")
    if not np.isfinite(starts).all():
        raise ValueError("x0s contains non-finite entries")
    return starts


def rk_step(x: np.ndarray, row: np.ndarray, rhs: float) -> np.ndarray:
    """One projection onto the hyperplane row . x = rhs.

    After the step the selected equation holds exactly (up to rounding).
    The row must have a positive squared norm and ``rhs`` must be finite;
    a step that overflows raises ``ValueError``.
    This is the solver's kernel called for one trial and one step.
    """
    x = _finite(x, 1, "x")
    row = _finite(row, 1, "row")
    if row.size != x.size:
        raise ValueError(f"row has width {row.size}, x has {x.size}")
    if not math.isfinite(rhs := float(rhs)):
        raise ValueError(f"rhs must be finite, got {rhs}")
    if not np.any(row):
        raise ValueError("cannot project onto a zero row")
    if row @ row == 0:
        raise ValueError(f"cannot project onto row {row.tolist()}: its squared norm underflows to 0")
    a, block = np.ascontiguousarray(row)[None, :], x[None, :].copy()
    # the table of one row maps every draw to it; the generator's one draw is discarded
    _rk_solve(a, np.array([rhs]), [np.random.default_rng(0)], np.array([0, 1], np.int64), np.zeros(x.size), block,
              np.empty((1, 2)))
    if not np.isfinite(block).all():
        raise ValueError("the projection overflowed")
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
    The whole solve is one call of the compiled kernel.
    Bit-identical output for identical inputs and config.
    """
    a = np.ascontiguousarray(noisy.a_tilde, dtype=float)
    b = np.ascontiguousarray(noisy.b_tilde, dtype=float)
    x_ls = np.ascontiguousarray(noisy.base.x_ls, dtype=float)
    ks = record_points(cfg.max_iterations, cfg.record_stride)
    # a copy: the kernel advances it in place
    x = _start_stack(initial_iterates(a, cfg) if x0 is None else x0, a.shape[1], cfg.trials)
    rngs = [seeding.stream(cfg.seed, seeding.SAMPLER, trial) for trial in range(cfg.trials)]
    per_trial = np.empty((cfg.trials, ks.size))
    d = x - x_ls
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows is named below
        per_trial[:, 0] = np.vecdot(d, d)
        _rk_solve(a, b, rngs, ks, x_ls, x, per_trial)
        mean, std = per_trial.mean(axis=0), per_trial.std(axis=0)  # a mean that overflows leaves std non-finite
    if not (np.isfinite(per_trial).all() and np.isfinite(std).all()):
        raise HypothesisError("iteration produced non-finite errors or spread: the system is out of scale")
    return Trajectory(
        recorded_iterations=ks,
        per_trial_squared_error=per_trial,
        mean_squared_error=mean,
        std_squared_error=std,
    )


def empirical_horizon(traj: Trajectory) -> float:
    """Mean squared error at the last recorded iteration.

    Meaningful as a horizon estimate once the geometrically decaying
    term is negligible; choosing an iteration budget that guarantees
    this is the caller's job.
    """
    return float(traj.mean_squared_error[-1])
