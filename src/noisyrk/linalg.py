"""Dense real linear algebra kernels shared by every other module.

SVD-backed quantities (pseudoinverse, spectral norm, smallest nonzero
singular value, scaled condition number) all flow through :func:`svd`,
which truncates below a numerical-rank tolerance so rank-deficient
inputs behave predictably; :func:`singular_values` applies the same cut
to the values alone, for checks that need no vectors.  Every output
file is written here; its text tables round-trip float64 values exactly
via 17 significant digits.

Everything here is a pure function of immutable inputs; results are
safe to share across threads.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "svd",
    "singular_values",
    "pseudoinverse",
    "scaled_condition_number",
    "spectral_norm",
    "frobenius_norm",
    "sigma_min_nonzero",
    "orthonormalize_columns",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]

# Independent columns are declared numerically dependent when a QR pivot
# falls below this fraction of the first pivot.
_DEPENDENT_PIVOT = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a nonempty float64 2-D array with finite entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce ``v`` to a nonempty float64 1-D array with finite entries."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Rank-truncated SVD ``a ~= u @ diag(sigma) @ v.T``.

    ``u`` (m x rank) and ``v`` (n x rank) have orthonormal columns and
    ``sigma`` holds the strictly positive singular values kept by the
    numerical-rank cut, in nonincreasing order.  A zero matrix yields
    the empty factor set with ``rank == 0``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int

    def pinv(self) -> np.ndarray:
        """Pseudoinverse ``v @ diag(1/sigma) @ u.T`` over kept components."""
        return (self.v / self.sigma) @ self.u.T

    def pinv_apply(self, y: np.ndarray) -> np.ndarray:
        """Apply the pseudoinverse to a vector without forming it."""
        return self.v @ ((self.u.T @ y) / self.sigma)


def svd(a) -> SvdFactors:
    """Singular value decomposition with numerical-rank truncation.

    Singular values at or below ``max(m, n) * machine epsilon * sigma_1``
    are dropped.  Deterministic for a fixed input.
    """
    arr = as_matrix(a)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    rank = _rank(s, arr.shape)
    return SvdFactors(
        u=np.ascontiguousarray(u[:, :rank]),
        sigma=s[:rank].copy(),
        v=np.ascontiguousarray(vt[:rank].T),
        rank=rank,
    )


def singular_values(a) -> np.ndarray:
    """The singular values :func:`svd` keeps, without the vectors (equal to ``svd(a).sigma`` up to rounding)."""
    arr = as_matrix(a)
    s = np.linalg.svd(arr, compute_uv=False)
    return s[:_rank(s, arr.shape)]


def _rank(s: np.ndarray, shape: tuple) -> int:
    """How many of the nonincreasing values ``s`` exceed ``max(m, n) * eps * sigma_1``."""
    return int(np.count_nonzero(s > max(shape) * np.finfo(float).eps * (float(s[0]) if s.size else 0.0)))


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the truncated SVD of :func:`svd`.

    Satisfies the four Penrose identities to high relative accuracy.
    """
    factors = svd(a)
    if factors.rank == 0:
        arr = as_matrix(a)
        return np.zeros((arr.shape[1], arr.shape[0]))
    return factors.pinv()


def _nonzero_factors(a, op: str):
    # a matrix, or what carries its kept singular values (SvdFactors, NoisyAnalysis)
    factors = a if hasattr(a, "sigma") else svd(a)
    if factors.sigma.size == 0:
        raise ValueError(f"{op} is undefined for the zero matrix")
    return factors


def spectral_norm(a) -> float:
    """Largest singular value.  Errors on the zero matrix."""
    return float(_nonzero_factors(a, "spectral norm").sigma[0])


def sigma_min_nonzero(a) -> float:
    """Smallest nonzero singular value.  Errors on the zero matrix."""
    return float(_nonzero_factors(a, "sigma_min").sigma[-1])


def frobenius_norm(a) -> float:
    """Frobenius norm; 0 for the zero matrix."""
    return float(np.linalg.norm(as_matrix(a), "fro"))


def scaled_condition_number(a) -> float:
    """``||pinv(a)||^2 * ||a||_F^2``, i.e. sum(sigma^2) / sigma_min^2.

    Governs the per-iteration contraction of randomized row projection;
    scale invariant and at least the numerical rank.
    """
    factors = _nonzero_factors(a, "scaled condition number")
    s = factors.sigma
    return float(np.sum(s * s) / (s[-1] * s[-1]))


def orthonormalize_columns(a) -> np.ndarray:
    """Orthonormal basis for the column span, column count preserved.

    Raises if the columns are numerically dependent (a QR pivot below
    ``1e-12`` of the first pivot).
    """
    arr = as_matrix(a)
    if arr.shape[0] < arr.shape[1]:
        raise ValueError("matrix has more columns than rows; columns cannot be independent")
    q, r = np.linalg.qr(arr)
    pivots = np.abs(np.diag(r))
    if pivots[0] == 0.0 or np.min(pivots) < _DEPENDENT_PIVOT * pivots[0]:
        raise ValueError("columns are numerically dependent; cannot orthonormalize")
    return q


# ---------------------------------------------------------------------------
# Plain-text file formats, all written here.
#
# _write_table: one header line, then one line per row of an array, every
# value as %.17g (float64 round-trips exactly; integers below 2**53 print
# without a decimal point) joined by a delimiter.  Matrix: header
# "rows cols", space-separated rows.  Vector: header "dim", one value per
# line.  The CSVs: a column-name header, comma-separated rows.
# _write_json: indent 2, sorted keys, trailing newline.
# ---------------------------------------------------------------------------


def _write_table(path: str | os.PathLike, header: str, rows, delimiter: str = ",") -> None:
    np.savetxt(path, rows, fmt="%.17g", delimiter=delimiter, header=header, comments="")


def _write_json(path: str | os.PathLike, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_table(path: str | os.PathLike, header_name: str) -> np.ndarray:
    """Body of a file written by :func:`_write_table`, checked against its dims header."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != len(header_name.split()):
            raise ValueError(f"{path}: expected '{header_name}' header")
        dims = tuple(int(d) for d in header)
        data = np.loadtxt(fh, dtype=float, ndmin=len(dims))
    if data.shape != dims:
        raise ValueError(f"{path}: body shape {data.shape} does not match header {dims}")
    return data


def write_matrix(path: str | os.PathLike, a) -> None:
    """Write a matrix in the plain-text format described above."""
    arr = as_matrix(a)
    _write_table(path, f"{arr.shape[0]} {arr.shape[1]}", arr, delimiter=" ")


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`."""
    return as_matrix(_read_table(path, "rows cols"), name=str(path))


def write_vector(path: str | os.PathLike, v) -> None:
    """Write a vector: a "dim" header line, then one value per line."""
    arr = as_vector(v)
    _write_table(path, str(arr.size), arr)


def read_vector(path: str | os.PathLike) -> np.ndarray:
    """Read a vector written by :func:`write_vector`."""
    return as_vector(_read_table(path, "dim"), name=str(path))
