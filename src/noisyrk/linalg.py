"""Dense real linear algebra kernels shared by every other module.

SVD-backed quantities (pseudoinverse, spectral norm, smallest nonzero
singular value, scaled condition number, the nonsingularity check of a
noise factor) flow through :func:`svd`, the one SVD in the package, which
cuts below a numerical-rank tolerance; :func:`least_squares` makes the
same cut without U or V.  :func:`_identity_plus` builds a noise factor
I + sE in one buffer, with no identity matrix.  The table and JSON
writers here write bytes, not datasets: which records go in which file
is the command-line front end's choice.  The text tables round-trip
float64 values exactly via 17 significant digits.

The compiled kernel library, ``_rk.c``, is built and loaded here by
:func:`_kernel`, at the first solve or the first file read or write.
Besides the RK solve and the row sampler it holds the one table writer
and the one table reader: every value is printed exactly as ``%.17g``
prints it and read exactly as ``strtod`` reads it (a fast path for the
values it can decide, glibc for the rest), both under the "C" numeric
locale, so the bytes do not follow the host's locale.

The linear algebra here is pure functions of immutable inputs, whose
results are safe to share across threads.  The rest is not: ``_kernel``
builds and loads the library once per process, and the table and JSON
functions read and write files.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import KernelBuildError

__all__ = [
    "as_matrix",
    "as_vector",
    "svd",
    "least_squares",
    "pseudoinverse",
    "scaled_condition_number",
    "spectral_norm",
    "sigma_min_nonzero",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]

# Independent columns are declared numerically dependent when a QR pivot
# falls below this fraction of the first pivot.
_DEPENDENT_PIVOT = 1e-12
_MIN_FACTOR_SIGMA = 1e-8  # nonsingularity floor for the noise factors (I + E), (I + F), (I + M)


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
    the empty factor set; the rank is ``sigma.size``.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

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
    rank = int(np.count_nonzero(s > max(arr.shape) * np.finfo(float).eps * s[0]))
    return SvdFactors(
        u=np.ascontiguousarray(u[:, :rank]),
        sigma=s[:rank].copy(),
        v=np.ascontiguousarray(vt[:rank].T),
    )


def least_squares(a, b1: np.ndarray, b2: np.ndarray) -> tuple:
    """The singular values :func:`svd` keeps, ``pinv(a) b1`` and ``pinv(a) b2``, from one ``gelsd`` call (no U, no V)."""
    x, _, rank, s = np.linalg.lstsq(as_matrix(a), np.column_stack((b1, b2)), rcond=None)
    return s[:rank], np.ascontiguousarray(x[:, 0]), np.ascontiguousarray(x[:, 1])


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the truncated SVD of :func:`svd`.

    Satisfies the four Penrose identities to high relative accuracy.
    """
    factors = svd(a)
    return (factors.v / factors.sigma) @ factors.u.T  # all zeros for the zero matrix


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


def _identity_plus(scale: float, m: np.ndarray) -> np.ndarray:
    """``I + scale * m`` in one new buffer, bit-identical to adding an identity; ``m`` (maybe read-only) is kept."""
    out = scale * m
    out.flat[:: out.shape[0] + 1] += 1.0  # off the diagonal 0.0 + x == x, and on it the sum commutes
    return out


def _nonsingular(factor: np.ndarray) -> bool:
    """Whether a square noise factor I + E, I + F or I + M has full numerical rank and sigma_min >= the floor."""
    sigma = svd(factor).sigma
    return sigma.size == factor.shape[0] and float(sigma[-1]) >= _MIN_FACTOR_SIGMA


def scaled_condition_number(a) -> float:
    """``||pinv(a)||^2 * ||a||_F^2``, computed as sum((sigma_i / sigma_min)^2).

    Governs the per-iteration contraction of randomized row projection;
    at least the numerical rank, and scale invariant also where sigma^2
    would underflow or overflow, since each ratio is taken before it is squared.
    """
    s = _nonzero_factors(a, "scaled condition number").sigma
    ratios = s / s[-1]
    return float(np.sum(ratios * ratios))


def _orthonormalize_columns(a) -> np.ndarray:
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
# The compiled kernel library.  No -ffast-math or -march=native, and no fused
# multiply-adds: the sums keep their order on every host.
# ---------------------------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_rk.c")
_COMPILER = "gcc"
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_TENS = range(-343, 341)  # _rk.c's TEN_MIN..TEN_MAX


def _powers_of_ten() -> tuple:
    """``_rk.c``'s ``tens[]``: 10^j ~ top * 2^e for j in ``_TENS``, top the truncated top 128 bits of an exact integer.

    The integer is 10^j * 2^128 for j >= 0 and floor(2^1280 / 10^-j), which has at least 140 bits, for j < 0.
    Returns the (hi, lo) 64-bit halves of each top and each e.
    """
    tops, exps = [], []
    for j in _TENS:
        x, scale = (10**j << 128, -128) if j >= 0 else ((1 << 1280) // 10**-j, -1280)
        cut = x.bit_length() - 128
        tops += divmod(x >> cut, 1 << 64)
        exps.append(cut + scale)
    return np.array(tops, dtype=np.uint64), np.array(exps, dtype=np.int64)


@functools.cache
def _kernel():
    """The compiled ``_rk.c``, built on first use into ``$XDG_CACHE_HOME/noisyrk``
    (``~/.cache/noisyrk`` when that is unset).

    The library's name is the sha256 of the source, the flags and the
    resolved compiler with its ``stat``, so a warm start runs no process
    and a changed compiler or source builds afresh.  Concurrent builds
    each write a private temp file and rename it into place.  Once loaded,
    the library takes its powers of ten from :func:`_powers_of_ten`.  Every
    failure, an unusable cache location or a refused table included, is a
    ``KernelBuildError``.
    """
    import hashlib  # only numpy.random loads it (through hmac), and not every import of this module does

    source = _KERNEL_SOURCE.read_bytes()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")) / "noisyrk"
    command = [_COMPILER, *_CFLAGS, "-o", str(cache / "_rk-<key>.so"), str(_KERNEL_SOURCE)]
    found = shutil.which(_COMPILER)
    if found is None:
        raise KernelBuildError(
            f"the kernel library needs a C compiler: {_COMPILER!r} is not on PATH; "
            f"it is built once with: {' '.join(command)}"
        )
    compiler = os.path.realpath(found)
    st = os.stat(compiler)
    key = hashlib.sha256(repr((
        source, _CFLAGS, compiler, st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns,
    )).encode()).hexdigest()[:32]
    lib = cache / f"_rk-{key}.so"
    try:
        if not lib.exists():
            import subprocess  # a warm start imports neither
            import tempfile

            cache.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache, prefix=f"{lib.name}.", suffix=".tmp")
            os.close(fd)
            command = [compiler, *_CFLAGS, "-o", tmp, str(_KERNEL_SOURCE)]
            try:
                done = subprocess.run(command, capture_output=True, text=True)
                if done.returncode != 0:
                    raise KernelBuildError(
                        f"building the kernel library failed (exit {done.returncode}): "
                        f"{' '.join(command)}\n{done.stderr.strip()}"
                    )
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
    except KernelBuildError:
        raise
    except OSError as exc:  # an unusable cache location is no config error
        raise KernelBuildError(f"the kernel library cannot be built or loaded at {lib}: {exc}") from exc
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
    n, d = ctypes.c_int64, ctypes.c_double
    table = [n, f64, d, i64, n, n]  # the resolver's arguments, as RowSampler.table holds them
    kernel.rk_sample.argtypes = [n, f64, *table, np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")]
    # trials, n, a, b, weights, the table, one bitgen_t pointer per trial, the record grid, x_ls, x, err
    kernel.rk_solve.argtypes = [n, n, f64, f64, f64, *table, ctypes.POINTER(ctypes.c_void_p), n, i64, f64, out, out]
    kernel.rk_sample.restype = kernel.rk_solve.restype = None
    kernel.rk_write_table.argtypes = [ctypes.c_char_p, ctypes.c_char_p, f64, n, n, ctypes.c_char]
    kernel.rk_read_table.argtypes = [ctypes.c_char_p, n, n, n, out, ctypes.POINTER(n)]
    kernel.rk_write_table.restype = kernel.rk_read_table.restype = ctypes.c_int
    kernel.rk_set_tens.argtypes = [n, n, np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS"), i64]
    kernel.rk_set_tens.restype = ctypes.c_int
    if kernel.rk_set_tens(_TENS.start, _TENS.stop - 1, *_powers_of_ten()) != 0:
        raise KernelBuildError(f"the kernel library at {lib} refused the powers of ten 10^j for j in "
                               f"[{_TENS.start}, {_TENS.stop - 1}]: its source and noisyrk.linalg disagree")
    return kernel


# ---------------------------------------------------------------------------
# Plain-text file formats, all written through the writers here.
#
# _write_table: one header line, then one line per row of an array, every
# value as %.17g (float64 round-trips exactly; integers below 2**53 print
# without a decimal point) joined by a delimiter: the bytes of numpy's
# savetxt(fmt="%.17g", header=..., comments="").  Matrix: header
# "rows cols", space-separated rows.  Vector: header "dim", one value per
# line.  The CSVs: a column-name header, comma-separated rows.
# _read_table reads the matrix and vector layout back: one space between
# values, each a token strtod reads (so "+1", ".5" and "1E5" too, but no
# hexadecimal float), plus trailing whitespace, CRLF and blank lines after
# the last row.  Anything else is a ValueError naming the file and line.
# _write_json: indent 2, sorted keys, trailing newline.
# ---------------------------------------------------------------------------

# _rk.c's TABLE_* codes: what is wrong at the line rk_read_table reports
_TABLE_ERRORS = {
    -1: "row has fewer values than the header's {cols}",
    -2: "row has more values than the header's {cols}",
    -3: "missing row; the header says {rows} rows",
    -4: "text after the last of the header's {rows} rows",
    -5: "malformed value",
    -6: "hexadecimal value",
}


def _write_table(path: str | os.PathLike, header: str, rows, delimiter: str = ",") -> None:
    values = np.ascontiguousarray(rows, dtype=float)
    if values.ndim not in (1, 2):
        raise ValueError(f"a table is 1-D or 2-D, got shape {values.shape}")
    nrows, ncols = values.shape if values.ndim == 2 else (values.size, 1)
    err = _kernel().rk_write_table(os.fsencode(path), header.encode(), values, nrows, ncols, delimiter.encode())
    if err:
        raise OSError(err, os.strerror(err), os.fspath(path))


def _write_json(path: str | os.PathLike, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_table(path: str | os.PathLike, header_name: str) -> np.ndarray:
    """Body of a file written by :func:`_write_table`, checked against its dims header."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        offset, size = fh.tell(), os.fstat(fh.fileno()).st_size
    if len(header) != len(header_name.split()) or not all(d.isdigit() for d in header):
        raise ValueError(f"{path}: expected '{header_name}' header")
    dims = tuple(int(d) for d in header)
    rows, cols = dims if len(dims) == 2 else (dims[0], 1)
    # every value takes at least a byte, so a header no body could fill allocates nothing
    if rows * cols > size:
        raise ValueError(f"{path}: header {dims} asks for more values than the file's {size} bytes hold")
    data, line = np.empty(dims), ctypes.c_int64(0)
    err = _kernel().rk_read_table(os.fsencode(path), offset, rows, cols, data, ctypes.byref(line))
    if err > 0:
        raise OSError(err, os.strerror(err), os.fspath(path))
    if err < 0:
        raise ValueError(f"{path}: line {line.value}: " + _TABLE_ERRORS[err].format(rows=rows, cols=cols))
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
