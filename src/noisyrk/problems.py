"""Construction of consistent linear systems and their noisy counterparts.

A system is built from a prescribed spectrum: Gaussian bases are
orthonormalized into U and V, the singular values are placed on the
diagonal, and the right-hand side is drawn inside the range of A so the
noiseless system is consistent.  Four noise models then corrupt it:

* ``additive``            -- A + sigma_a * E,  b + sigma_b * eps
* ``multiplicative``      -- (I + sigma_a E) A (I + sigma_a F),  b + sigma_b * eps
* ``partial_consistent``  -- A(I + M) with the right-hand side unchanged,
                             rescaled so q = ||pinv(A)|| * ||dA|| takes a
                             given value < 1; rank and consistency are preserved
* ``preconditioner``      -- A + (sigma_{r-1} - sigma_r) u_r v_r^T, a
                             deliberate rank-gap fill that shrinks the scaled
                             condition number

All constructors are pure and deterministic per ``(inputs, seed)``.  A unit draw (E, F, eps) is made only where it
moves the system, once, shared read-only by a grid, and kept only by a multiplicative system.

A config record (``SpectrumSpec``, ``NoiseSpec``, ``RkConfig``, ``ExperimentConfig``) states each key's rule and default
once, on its field; its ``__post_init__`` and :func:`_read`, the one JSON reader, both apply them from there.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import seeding
from .errors import HypothesisError
from .linalg import (
    SvdFactors,
    _finite,
    _identity_plus,
    _nonsingular,
    _orthonormalize_columns,
    _read_table,
    _write_json,
    _write_table,
    least_squares,
    sigma_min_nonzero,
    spectral_norm,
    svd,
)

__all__ = [
    "Spacing",
    "NoiseModel",
    "SpectrumSpec",
    "NoiseSpec",
    "LinearSystem",
    "NoisyAnalysis",
    "NoisySystem",
    "generate_system",
    "additive_noise",
    "multiplicative_noise",
    "partial_consistent_noise",
    "preconditioner_noise",
    "save_system",
    "load_system",
]

_MAX_REDRAWS = 100
_MIN_GAP = 1e-6  # the least gap between random_distinct singular values, relative to sigma_max


def _rule(rule, default=MISSING):
    """A config record's field: ``rule(value)`` is what it stores, or raises; both hold alike in Python and JSON."""
    return field(default=default, metadata={"rule": rule})


def _keys(record) -> dict:
    """``{key: (rule, default)}`` of a config record's fields: the schema :func:`_read` reads its JSON object by."""
    return {f.name: (f.metadata["rule"], f.default) for f in fields(record)}


def _check(record, block: str) -> None:
    """Store on ``record`` what each field's rule returns, read by :func:`_read` as the JSON ``block`` would be."""
    schema = _keys(type(record))
    for key, value in _read({key: getattr(record, key) for key in schema}, block, schema).items():
        object.__setattr__(record, key, value)


def _bad(where: str, key: str, why) -> ValueError:
    """The error naming ``where``, the block, and the ``key`` whose value breaks a rule for the reason ``why``."""
    return ValueError(f"{where}: bad value for '{key}': {why}")


def _read(data, where: str, schema: dict) -> dict:
    """The JSON object ``data`` read through ``schema``: ``{key: (rule, default)}``, ``MISSING`` if it has none.

    A block that is not an object, a key the schema does not name, a missing
    required key or a value its rule rejects is a ``ValueError`` naming ``where`` and the key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(schema)
    if unknown:
        raise ValueError(f"{where}: unknown key '{min(unknown)}'")
    values = {}
    for key, (rule, default) in schema.items():
        if key not in data and default is MISSING:
            raise ValueError(f"{where}: missing required key '{key}'")
        try:
            values[key] = rule(data.get(key, default))
        except (TypeError, ValueError) as exc:
            raise _bad(where, key, exc) from None
    return values


def _record(cls, block: str):
    """Rule of a nested config record: an instance of ``cls``, or its JSON object, read under ``block``."""
    return lambda value: value if isinstance(value, cls) else cls(**_read(value, block, _keys(cls)))


def _or_none(rule):
    """``rule`` for a key whose JSON null means "not set"."""
    return lambda value: None if value is None else rule(value)


def _exact(kind: type):
    """Rule taking only values of type ``kind``: no true ``"false"``, no ``1`` for ``true``."""
    def rule(value):
        if type(value) is not kind:
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return value
    return rule


def _at_least(low: int, high: int | None = None):
    """Rule of an integer of at least ``low`` and, unless ``high`` is None, at most ``high``.

    Never a bool, never a truncated float; stored as ``int``.
    """
    def rule(value):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"expected int, got {value!r}")
        if value < low:
            raise ValueError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"must be at most {high}, got {value}")
        return int(value)
    return rule


# the most steps, trials or rows the RK kernel counts: its counters are int64
_MAX_COUNT = 2**63 - 1
_COUNT, _SEED = _at_least(1, _MAX_COUNT), _at_least(0)


def _number(value):
    """Rule of a finite number, not a bool or a string; kept as written, so ``asdict`` echoes it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _list_of(rule):
    """Rule of a list (or, from Python, a tuple) of distinct items, each read by ``rule``; stored as a tuple."""
    def read(value):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected list, got {value!r}")
        items = tuple(rule(item) for item in value)
        if len(set(items)) < len(items):
            raise ValueError(f"an item is listed twice in {value!r}")
        return items
    return read


class Spacing(str, enum.Enum):
    """How the singular values fill [sigma_min, sigma_max]."""

    EVEN = "even"
    RANDOM_DISTINCT = "random_distinct"
    # All values equal to sigma_max except the last one at sigma_min; the
    # shape used to demonstrate additive preconditioning.
    FLAT_TOP = "flat_top"


class NoiseModel(str, enum.Enum):
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"
    PARTIAL_CONSISTENT = "partial_consistent"
    PRECONDITIONER = "preconditioner"


@dataclass(frozen=True)
class SpectrumSpec:
    """Shape and spectrum of a generated system matrix: a config's ``spectrum`` block."""

    m: int = _rule(_COUNT)
    n: int = _rule(_COUNT)
    r: int = _rule(_COUNT)
    sigma_min: float = _rule(_number)
    sigma_max: float = _rule(_number)
    spacing: Spacing = _rule(Spacing, Spacing.EVEN)

    def __post_init__(self) -> None:
        _check(self, "spectrum")
        r, low, high, spacing = self.r, self.sigma_min, self.sigma_max, self.spacing
        if r > min(self.m, self.n):
            raise _bad("spectrum", "r", f"rank must satisfy r <= min(m, n) = {min(self.m, self.n)}, got {r}")
        if not 0 < low <= high:
            raise _bad("spectrum", "sigma_min", "need 0 < sigma_min <= sigma_max")
        if spacing is Spacing.FLAT_TOP and (r < 2 or low >= high):
            raise _bad("spectrum", "spacing", "flat_top spacing needs r >= 2 and sigma_min < sigma_max")
        if spacing is Spacing.EVEN and r > 1 and low == high:
            raise _bad("spectrum", "sigma_min",
                       "even spacing with r > 1 needs distinct endpoints, sigma_min < sigma_max")
        if spacing is Spacing.RANDOM_DISTINCT and r > 1 and high - low < _MIN_GAP * high * (r - 1):
            raise _bad("spectrum", "sigma_max",
                       "interval sigma_max - sigma_min too narrow for r distinct singular values")


@dataclass(frozen=True)
class NoiseSpec:
    """A noise model, the ``noise`` block of a config; ``use_e`` / ``use_f`` switch the multiplicative factors.

    The magnitudes ``sigma_a`` / ``sigma_b`` come from a grid point, or beside it in ``gen``'s block.
    """

    model: NoiseModel = _rule(NoiseModel, NoiseModel.ADDITIVE)
    use_e: bool = _rule(_exact(bool), True)
    use_f: bool = _rule(_exact(bool), True)

    def __post_init__(self) -> None:
        _check(self, "noise")
        if self.model is not NoiseModel.MULTIPLICATIVE and not (self.use_e and self.use_f):
            key = "use_f" if self.use_e else "use_e"
            raise _bad("noise", key, "only the multiplicative model switches a factor off")

    def check(self, sigma_a: float, sigma_b: float, where: str) -> None:
        """A ``ValueError`` naming ``where`` and the first magnitude this model does not take at its value."""
        if self.model is NoiseModel.PARTIAL_CONSISTENT and not 0 < sigma_a < 1:
            raise _bad(where, "sigma_a", f"q = ||pinv(A)|| ||dA|| must lie strictly between 0 and 1, got {sigma_a:g}")
        if self.model is NoiseModel.PRECONDITIONER and sigma_a != 0:
            raise _bad(where, "sigma_a", "the preconditioner model takes no sigma_a")
        if self.model in (NoiseModel.PARTIAL_CONSISTENT, NoiseModel.PRECONDITIONER) and sigma_b != 0:
            raise _bad(where, "sigma_b", f"the {self.model.value} model takes no sigma_b")
        if sigma_a < 0 or sigma_b < 0:
            raise _bad(where, "sigma_a" if sigma_a < 0 else "sigma_b", "noise magnitudes must be nonnegative")


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A consistent system A x = b with its minimal-norm solution.

    ``b`` lies in range(A) by construction and ``x_ls = pinv(A) b``.
    ``spec`` and ``seed`` are carried for serialization.
    """

    a: np.ndarray
    b: np.ndarray
    x_ls: np.ndarray
    spec: SpectrumSpec | None = None
    seed: int | None = None

    @cached_property
    def factors(self) -> SvdFactors:
        """The SVD of ``a``, taken at first read and kept."""
        return svd(self.a)


@dataclass(frozen=True, eq=False)
class NoisyAnalysis:
    """What the bounds read from the one factorization of ``a_tilde``: O(m + n) numbers at full column rank.

    ``sigma`` holds the singular values kept by the numerical-rank cut, in
    nonincreasing order, so its length is the rank.  ``row_basis`` is V
    (n x rank) only when the rank is below n, and None otherwise.
    """

    sigma: np.ndarray
    x_nls: np.ndarray  # pinv(a_tilde) b_tilde, the noisy least squares solution
    x_pnls: np.ndarray  # pinv(a_tilde) b, with the noiseless right-hand side
    row_basis: np.ndarray | None


@dataclass(frozen=True, eq=False)
class NoisySystem:
    """A base system, its corrupted counterpart, and the model and magnitudes that built it.

    The perturbation is ``a_tilde - a`` and ``b_tilde - b``, whatever model built it.  ``sigma_a``/``sigma_b``
    are the model's own magnitudes: q and 0 for ``partial_consistent``, 0 and 0 for ``preconditioner``.
    Only a multiplicative system keeps its unit draws ``e``, ``f`` and ``eps``; a switched-off factor is None.
    Built, loaded or copied, a system is admitted only if RK can sample it (row i with probability
    ``||a_i||^2 / ||At||_F^2``): ``||At||_F^2`` positive and finite and ``b_tilde`` finite, or a ``HypothesisError``.
    """

    base: LinearSystem
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    sigma_a: float
    sigma_b: float
    model: NoiseModel
    e: np.ndarray | None = None
    f: np.ndarray | None = None
    eps: np.ndarray | None = None

    def __post_init__(self) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # what overflows is named below
            total = np.vdot(self.a_tilde, self.a_tilde)  # one dot: no m x n temporary, no iterator buffer
        if not (0.0 < total < np.inf and np.isfinite(self.b_tilde).all()):
            raise HypothesisError(f"at (sigma_a, sigma_b) = ({self.sigma_a:g}, {self.sigma_b:g}) the sum of squared "
                                  f"row norms is {total:g} or bt is not finite: the noisy system is out of scale")

    def matrix_noise(self) -> np.ndarray:
        """``a_tilde - a``, formed at each call and not kept; exactly 0 at zero noise."""
        return self.a_tilde - self.base.a

    def rhs_noise(self) -> np.ndarray:
        """``b_tilde - b``; exactly 0 at zero noise."""
        return self.b_tilde - self.base.b

    # The system's only cached state: each value is a deterministic function of
    # the frozen fields, so two threads filling it store equal values.

    @cached_property
    def analysis(self) -> NoisyAnalysis:
        """One ``gelsd`` call on ``a_tilde`` at full column rank; below it also the SVD, for V (wide: the SVD only)."""
        m, n = self.a_tilde.shape
        if m >= n:
            sigma, x_nls, x_pnls = least_squares(self.a_tilde, self.b_tilde, self.base.b)
            if sigma.size == n:
                return NoisyAnalysis(sigma=sigma, x_nls=x_nls, x_pnls=x_pnls, row_basis=None)
        factors = svd(self.a_tilde)
        return NoisyAnalysis(
            sigma=factors.sigma,
            x_nls=factors.pinv_apply(self.b_tilde),
            x_pnls=factors.pinv_apply(self.base.b),
            row_basis=factors.v if factors.sigma.size < self.a_tilde.shape[1] else None,
        )

    @cached_property
    def matrix_noise_norm(self) -> float:
        """``||a_tilde - a||_2``; 0 when the matrix carries no noise."""
        da = self.matrix_noise()
        return spectral_norm(da) if np.any(da) else 0.0


def _spectrum_values(spec: SpectrumSpec, seed: int) -> np.ndarray:
    """Nonincreasing singular values per the spacing rule."""
    if spec.spacing is Spacing.EVEN:
        return np.linspace(spec.sigma_max, spec.sigma_min, spec.r)
    if spec.spacing is Spacing.FLAT_TOP:
        values = np.full(spec.r, spec.sigma_max)
        values[-1] = spec.sigma_min
        return values
    # random distinct: sorted uniforms, minimum pairwise gap enforced by redraw
    for attempt in range(_MAX_REDRAWS):
        rng = seeding.stream(seed, seeding.SPECTRUM, attempt)
        values = np.sort(rng.uniform(spec.sigma_min, spec.sigma_max, spec.r))[::-1]
        if spec.r == 1 or np.min(-np.diff(values)) >= _MIN_GAP * spec.sigma_max:
            return values
    raise HypothesisError("could not draw distinct singular values after 100 attempts")


# one grid draws at most three: E, F and eps of its one seed
@lru_cache(maxsize=3)
def _unit_draw(seed: int, key: tuple, shape: tuple) -> np.ndarray:
    """The standard-normal ``shape`` draw of stream ``(seed, *key)``, drawn once and read-only."""
    draw = seeding.stream(seed, *key).standard_normal(shape)
    draw.flags.writeable = False
    return draw


def generate_system(spec: SpectrumSpec, seed: int) -> LinearSystem:
    """Generate a consistent system with the prescribed spectrum.

    U and V come from entrywise standard-normal draws with the columns
    orthonormalized, b = A z for a standard-normal z, and
    x_ls = V Vᵀ z, equal to pinv(A) b, so no SVD is taken.  Deterministic
    given ``seed``.
    """
    sigma = _spectrum_values(spec, seed)
    # each Gaussian draw dies with its QR
    u = _orthonormalize_columns(seeding.stream(seed, seeding.LEFT_BASIS).standard_normal((spec.m, spec.r)))
    v = _orthonormalize_columns(seeding.stream(seed, seeding.RIGHT_BASIS).standard_normal((spec.n, spec.r)))
    u *= sigma
    a = u @ v.T
    z = seeding.stream(seed, seeding.SOLUTION).standard_normal(spec.n)
    return LinearSystem(a=a, b=a @ z, x_ls=v @ (v.T @ z), spec=spec, seed=seed)


def additive_noise(sys: LinearSystem, sigma_a: float, sigma_b: float, seed: int) -> NoisySystem:
    """Additive corruption a + sigma_a * E, b + sigma_b * eps.

    E and eps have standard-normal entries drawn from named streams, so
    the same seed yields the same unit draws for every magnitude pair.
    A zero magnitude draws nothing and reproduces the base piece bit-exactly.
    """
    NoiseSpec().check(sigma_a, sigma_b, "additive noise")
    m, n = sys.a.shape
    a_tilde = sigma_a * _unit_draw(seed, (seeding.MATRIX_NOISE,), (m, n)) if sigma_a else sys.a.copy()
    if sigma_a:
        a_tilde += sys.a  # sys.a + sigma_a * E bit for bit, as the sum commutes, in one buffer
    b_tilde = sys.b + sigma_b * _unit_draw(seed, (seeding.RHS_NOISE,), (m,)) if sigma_b else sys.b.copy()
    return NoisySystem(
        base=sys, a_tilde=a_tilde, b_tilde=b_tilde,
        sigma_a=float(sigma_a), sigma_b=float(sigma_b), model=NoiseModel.ADDITIVE,
    )


def multiplicative_noise(
    sys: LinearSystem,
    sigma_a: float,
    sigma_b: float,
    use_e: bool = True,
    use_f: bool = True,
    seed: int = 0,
) -> NoisySystem:
    """Multiplicative corruption (I + sigma_a E) a (I + sigma_a F).

    Either factor can be switched off (``use_e`` / ``use_f``): it is then
    None, neither drawn nor multiplied in.  E and F are drawn once and may
    be singular: the squared bounds do not need invertible factors, and
    ``multiplicative_perturbation``, which does, checks them.
    """
    NoiseSpec(NoiseModel.MULTIPLICATIVE).check(sigma_a, sigma_b, "multiplicative noise")
    m, n = sys.a.shape
    # the trailing 0 of each stream key is part of the reproducibility contract
    e = _unit_draw(seed, (seeding.MATRIX_NOISE, 0), (m, m)) if use_e else None
    f = _unit_draw(seed, (seeding.RIGHT_FACTOR_NOISE, 0), (n, n)) if use_f else None
    a_tilde = _identity_plus(sigma_a, e) @ sys.a if sigma_a and use_e else sys.a.copy()
    if sigma_a and use_f:
        a_tilde = a_tilde @ _identity_plus(sigma_a, f)
    eps = _unit_draw(seed, (seeding.RHS_NOISE,), (m,))
    b_tilde = sys.b + sigma_b * eps if sigma_b else sys.b.copy()
    return NoisySystem(
        base=sys, a_tilde=a_tilde, b_tilde=b_tilde, e=e, f=f, eps=eps,
        sigma_a=float(sigma_a), sigma_b=float(sigma_b), model=NoiseModel.MULTIPLICATIVE,
    )


def partial_consistent_noise(sys: LinearSystem, q: float, seed: int) -> NoisySystem:
    """Matrix-only corruption that keeps ``a_tilde x = b`` consistent.

    The perturbation is dA = a M for a square standard-normal M rescaled
    so that ``||pinv(a)|| * ||dA|| == q < 1``.  Because
    a_tilde = a (I + M) with I + M nonsingular, the rank and the range
    of the matrix are unchanged and b stays in range(a_tilde).
    """
    NoiseSpec(NoiseModel.PARTIAL_CONSISTENT).check(q, 0.0, "partial_consistent noise")
    n = sys.a.shape[1]
    pinv_norm = 1.0 / sigma_min_nonzero(sys.factors)
    for attempt in range(_MAX_REDRAWS):
        m0 = seeding.stream(seed, seeding.MATRIX_NOISE, attempt).standard_normal((n, n))
        am = sys.a @ m0
        scale = q / (pinv_norm * spectral_norm(am))
        if _nonsingular(_identity_plus(scale, m0)):
            break
    else:
        raise HypothesisError("nonsingularity of (I + M) failed after 100 redraws")
    return NoisySystem(
        base=sys, a_tilde=sys.a + scale * am, b_tilde=sys.b.copy(),
        sigma_a=float(q), sigma_b=0.0, model=NoiseModel.PARTIAL_CONSISTENT,
    )


def preconditioner_noise(sys: LinearSystem) -> NoisySystem:
    """Fill the trailing spectral gap: a + (sigma_{r-1} - sigma_r) u_r v_r^T.

    The corrupted matrix has singular values
    (sigma_1, ..., sigma_{r-1}, sigma_{r-1}), which lowers the scaled
    condition number while leaving the right-hand side untouched.
    Requires rank >= 2 and a strict gap between the two smallest values, or a ``HypothesisError``.
    """
    factors = sys.factors
    if factors.sigma.size < 2:
        raise HypothesisError("preconditioner noise needs rank at least 2")
    gap = float(factors.sigma[-2] - factors.sigma[-1])
    if gap <= 1e-12 * float(factors.sigma[0]):
        raise HypothesisError("the two smallest singular values must be distinct")
    return NoisySystem(
        base=sys, a_tilde=sys.a + gap * np.outer(factors.u[:, -1], factors.v[:, -1]), b_tilde=sys.b.copy(),
        sigma_a=0.0, sigma_b=0.0, model=NoiseModel.PRECONDITIONER,
    )


# ---------------------------------------------------------------------------
# Directory serialization: A.mat, b.vec, xls.vec, atilde.mat, btilde.vec and
# meta.json; a multiplicative system adds eps.vec and e.mat / f.mat for each
# factor that is on, which meta.json names as use_e / use_f.  A .mat file is
# a "rows cols" header and one space-separated line per row; a .vec file is a
# "dim" header and one value per line (linalg's _write_table layout).
# ---------------------------------------------------------------------------


def save_system(noisy: NoisySystem, directory: str | os.PathLike) -> None:
    """Serialize a noisy system (and its base) into a directory."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    arrays = {"A.mat": noisy.base.a, "b.vec": noisy.base.b, "xls.vec": noisy.base.x_ls, "atilde.mat": noisy.a_tilde,
              "btilde.vec": noisy.b_tilde, "e.mat": noisy.e, "f.mat": noisy.f, "eps.vec": noisy.eps}
    for name, array in arrays.items():
        if array is not None:  # None: a piece the model does not keep
            array = _finite(array, 2 if name.endswith(".mat") else 1, str(path / name))
            _write_table(path / name, " ".join(map(str, array.shape)), array, " ")
    meta = {"model": noisy.model.value, "sigma_a": noisy.sigma_a, "sigma_b": noisy.sigma_b, "seed": noisy.base.seed,
            "spec": asdict(noisy.base.spec) if noisy.base.spec else None}
    if noisy.model is NoiseModel.MULTIPLICATIVE:
        meta.update(use_e=noisy.e is not None, use_f=noisy.f is not None)
    _write_json(path / "meta.json", meta)


def load_system(directory: str | os.PathLike) -> NoisySystem:
    """Reconstruct a noisy system written by :func:`save_system`.

    Every file must agree with the ``(m, n)`` of ``A.mat``: a ``ValueError`` names the first file whose header does
    not, and both shapes, before any of its values is read.  A value that is not finite, and a magnitude in
    ``meta.json`` that its model does not take (:meth:`NoiseSpec.check`), each raise one too.
    Only a multiplicative system reads noise files: ``eps.vec`` and each factor ``meta.json`` switches on.
    """
    path = Path(directory)
    where = str(path / "meta.json")
    with open(where) as fh:
        meta = _read(json.load(fh), where, {
            **_keys(NoiseSpec), "model": (NoiseModel, MISSING), "sigma_a": (_number, MISSING),
            "sigma_b": (_number, MISSING), "seed": (_or_none(_SEED), None),
            "spec": (_or_none(_record(SpectrumSpec, "spectrum")), None),
        })
    try:
        noise = NoiseSpec(meta["model"], meta["use_e"], meta["use_f"])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    noise.check(meta["sigma_a"], meta["sigma_b"], where)

    def read(name: str, *shape) -> np.ndarray:
        return _finite(_read_table(path / name, shape), len(shape), str(path / name))

    spec = meta["spec"]
    a = read("A.mat", None, None)
    m, n = a.shape
    if spec is not None and (spec.m, spec.n) != (m, n):
        raise ValueError(f"{where}: spec shape ({spec.m}, {spec.n}) does not match A.mat {a.shape}")
    base = LinearSystem(a=a, b=read("b.vec", m), x_ls=read("xls.vec", n), spec=spec, seed=meta["seed"])
    mult = noise.model is NoiseModel.MULTIPLICATIVE
    return NoisySystem(
        base=base,
        a_tilde=read("atilde.mat", m, n),
        b_tilde=read("btilde.vec", m),
        sigma_a=float(meta["sigma_a"]),
        sigma_b=float(meta["sigma_b"]),
        model=noise.model,
        e=read("e.mat", m, m) if mult and noise.use_e else None,
        f=read("f.mat", n, n) if mult and noise.use_f else None,
        eps=read("eps.vec", m) if mult else None,
    )
