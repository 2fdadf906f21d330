"""The three benchmark workloads: configs, CLI commands and output checks.

Each workload is a fixed chain of ``noisyrk`` CLI commands.  The seed is
the benchmark's ``--seed`` argument, passed through the CLI's own
``--seed`` flag, so the same seed gives byte-identical outputs.  Why each
workload exists, and which layer it loads, is in ``NOTES.md``.

An *operation* is one grid point of ``figure``/``table2`` or one CLI
command of ``system-roundtrip``.  ``check`` returns one ``Op`` per
operation with its failure reasons and an output digest; comparing the
digests of two runs of the same seed is the determinism check.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Tolerance of the table2 horizon ordering, as in the library's own warning.
HORIZON_SLACK = 1e-10

SYSTEM_FILES = ("A.mat", "b.vec", "xls.vec", "atilde.mat", "btilde.vec", "e.mat", "f.mat", "eps.vec")


@dataclass
class Op:
    """Outcome of one operation: failure reasons, digest, bound margin."""

    name: str
    digest: str = ""
    reasons: list = field(default_factory=list)
    # smallest (squared bound / trial-mean squared error) at the last iteration
    margin: float = math.inf

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)


# ---------------------------------------------------------------------------
# Configs.  table2-sweep is demos/04_noise_sweep.py; figure-multiplicative is
# the paper's dimensions at a short budget; system-roundtrip serializes a
# multiplicative system of the same size and reads it back twice.
# ---------------------------------------------------------------------------

TABLE2_GRID = [[0.0, 0.0], [0.0, 1.0], [0.01, 0.01], [0.1, 0.1], [0.5, 0.5], [1.0, 1.0]]
FIGURE_GRID = [[0.01, 0.0], [0.02, 0.01], [0.05, 0.05], [0.1, 0.1]]
FIGURE_BOUNDS = ["additive", "multiplicative", "multiplicative_perturbation"]
ROUNDTRIP_BOUNDS = ["additive", "multiplicative"]
ROUNDTRIP_RK = {"max_iterations": 5000, "trials": 4}
SMALL = {"m": 100, "n": 50, "r": 50, "sigma_min": 5.0, "sigma_max": 50.0}
PAPER = {"m": 500, "n": 300, "r": 300, "sigma_min": 1.0, "sigma_max": 10.0}


def _table2_plan(spectrum: dict, rep: Path) -> list:
    cfg = {
        "spectrum": spectrum,
        "noise": {"model": "additive"},
        "grid": TABLE2_GRID,
        "rk": {"max_iterations": 1, "trials": 10},  # budgets are adaptive
        "master_seed": 0,
    }
    return [("table2", cfg, "out")]


def _figure_plan(spectrum: dict, rep: Path) -> list:
    cfg = {
        "spectrum": spectrum,
        "noise": {"model": "multiplicative"},
        "grid": FIGURE_GRID,
        "rk": {"max_iterations": 2000, "trials": 10},
        "bounds": FIGURE_BOUNDS,
        "master_seed": 0,
    }
    return [("figure", cfg, "out")]


def _roundtrip_plan(spectrum: dict, rep: Path) -> list:
    system = str(rep / "system")
    return [
        ("gen", {"spectrum": spectrum,
                 "noise": {"model": "multiplicative", "sigma_a": 0.05, "sigma_b": 0.05}}, "system"),
        ("solve", {"system_dir": system, "rk": ROUNDTRIP_RK}, "solve"),
        ("bounds", {"system_dir": system, "rk": ROUNDTRIP_RK, "bounds": ROUNDTRIP_BOUNDS}, "bounds"),
    ]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _tag(a: float, b: float) -> str:
    return f"{format(float(a), 'g')}_{format(float(b), 'g')}"


def _read_csv(path: Path) -> list:
    """Rows of floats below the header; ValueError on a non-finite value."""
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{path.name}: ragged or empty")
    if not all(math.isfinite(x) for r in rows for x in r):
        raise ValueError(f"{path.name}: non-finite value")
    return rows


def _read_numeric_file(path: Path) -> None:
    """Validate a .mat/.vec file: header dimensions match, every value finite."""
    lines = path.read_text().splitlines()
    dims = [int(x) for x in lines[0].split()]
    body = [line.split() for line in lines[1:]]
    expect_rows = dims[0]
    expect_cols = dims[1] if len(dims) == 2 else 1
    if len(body) != expect_rows or any(len(r) != expect_cols for r in body):
        raise ValueError(f"{path.name}: body does not match header {dims}")
    if not all(math.isfinite(float(x)) for r in body for x in r):
        raise ValueError(f"{path.name}: non-finite value")


def _normalized_meta(path: Path) -> bytes:
    """meta.json with the recorded output directory blanked out."""
    meta = json.loads(path.read_text())
    if isinstance(meta.get("config"), dict):
        meta["config"]["output_dir"] = None
    return json.dumps(meta, sort_keys=True).encode()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _check_bound(op: Op, bound_csv: Path, iterations: list, mean_sq: list) -> None:
    """A squared bound must lie on or above the trial-mean squared error."""
    rows = _read_csv(bound_csv)
    if [r[0] for r in rows] != iterations:
        op.fail(f"{bound_csv.name}: iterations differ from the trajectory")
        return
    sidecar = json.loads(bound_csv.with_suffix(".meta.json").read_text())
    if sidecar["squared"]:
        bound, err = rows[-1][1], mean_sq[-1]
        if bound < err:
            op.fail(f"{bound_csv.name}: bound {bound:.6g} below mean squared error {err:.6g}")
        elif err > 0:
            op.margin = min(op.margin, bound / err)


def _check_table2(rep: Path) -> list:
    out = rep / "out"
    ops = [Op(_tag(a, b)) for a, b in TABLE2_GRID]
    try:
        meta = _normalized_meta(out / "meta.json")
        lines = (out / "table2.csv").read_text().splitlines()
        rows = _read_csv(out / "table2.csv")
    except (OSError, ValueError, IndexError, KeyError) as exc:
        for op in ops:
            op.fail(f"table2 output: {exc}")
        return ops
    by_tag = {_tag(r[0], r[1]): (r, line) for r, line in zip(rows, lines[1:])}
    for op in ops:
        if op.name not in by_tag:
            op.fail("row missing")
            continue
        row, line = by_tag[op.name]
        theo, emp = row[4], row[5]
        if emp > theo + HORIZON_SLACK:
            op.fail(f"emp_horizon {emp:.6g} exceeds theo_horizon {theo:.6g}")
        op.digest = _digest(line.encode(), meta)
    return ops


def _check_figure(rep: Path) -> list:
    out = rep / "out"
    ops = []
    try:
        meta_bytes = _normalized_meta(out / "meta.json")
        bound_errors = json.loads(meta_bytes).get("bound_errors", {})
    except (OSError, ValueError) as exc:
        return [Op(_tag(a, b), reasons=[f"meta.json: {exc}"]) for a, b in FIGURE_GRID]
    for a, b in FIGURE_GRID:
        op = Op(_tag(a, b))
        ops.append(op)
        errors = bound_errors.get(op.name, {})
        names = [f"traj_{op.name}.csv", f"band_{op.name}.csv"]
        try:
            traj = _read_csv(out / names[0])
            _read_csv(out / names[1])
            iterations = [r[0] for r in traj]
            mean_sq = [r[1] for r in traj]
            for kind in FIGURE_BOUNDS:
                if kind in errors:  # an expected outcome, counted by the traced pass
                    continue
                stem = f"bound_{kind}_{op.name}"
                names += [f"{stem}.csv", f"{stem}.meta.json"]
                _check_bound(op, out / f"{stem}.csv", iterations, mean_sq)
            op.digest = _digest(meta_bytes, *((out / n).read_bytes() for n in names))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            op.fail(str(exc))
    return ops


def _check_roundtrip(rep: Path) -> list:
    gen, solve, bounds = Op("gen"), Op("solve"), Op("bounds")
    system = rep / "system"
    try:
        for name in SYSTEM_FILES:
            _read_numeric_file(system / name)
        json.loads((system / "meta.json").read_text())
        gen.digest = _digest(*((system / n).read_bytes() for n in (*SYSTEM_FILES, "meta.json")))
    except (OSError, ValueError, IndexError) as exc:
        gen.fail(str(exc))
    traj = None
    try:
        traj = _read_csv(rep / "solve" / "traj.csv")
        _read_csv(rep / "solve" / "band.csv")
        solve.digest = _digest(*((rep / "solve" / n).read_bytes() for n in ("traj.csv", "band.csv")))
    except (OSError, ValueError, IndexError) as exc:
        solve.fail(str(exc))
    try:
        names = []
        for kind in ROUNDTRIP_BOUNDS:
            names += [f"bound_{kind}.csv", f"bound_{kind}.meta.json"]
            if traj is None:
                _read_csv(rep / "bounds" / names[-2])
            else:
                _check_bound(bounds, rep / "bounds" / names[-2],
                             [r[0] for r in traj], [r[1] for r in traj])
        bounds.digest = _digest(*((rep / "bounds" / n).read_bytes() for n in names))
    except (OSError, ValueError, IndexError, KeyError) as exc:
        bounds.fail(str(exc))
    return [gen, solve, bounds]


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int | None  # the gated --threads value; None: the commands take no pool
    spectrum: dict  # the system shape, also used to warm up before timing
    plan: Callable  # (spectrum, rep dir) -> [(subcommand, config, output subdir)]
    check: Callable  # rep dir -> [Op]

    def commands(self, rep: Path, seed: int, threads: int | None) -> list:
        """Write this rep's configs under ``rep``; return the CLI argv lists.

        ``threads`` is passed as ``--threads``; None leaves the CLI default.
        """
        rep.mkdir(parents=True, exist_ok=True)
        argvs = []
        for sub, cfg, out in self.plan(self.spectrum, rep):
            cfg_path = rep / f"{sub}.json"
            cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
            argv = [sub, "--config", str(cfg_path), "--seed", str(seed), "--out", str(rep / out)]
            if threads is not None:
                argv += ["--threads", str(threads)]
            argvs.append(argv)
        return argvs


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("table2-sweep", 2, SMALL, _table2_plan, _check_table2),
        Workload("figure-multiplicative", 1, PAPER, _figure_plan, _check_figure),
        Workload("system-roundtrip", None, PAPER, _roundtrip_plan, _check_roundtrip),
    )
}
