"""Command-line front end.

Subcommands: ``gen`` (build and serialize a system), ``solve`` (run the
solver on a serialized system), ``bounds`` (evaluate bound curves),
``table2`` (noise-magnitude sweep), ``figure`` (trajectory + bound
dataset over a grid), ``precondition`` (gap-fill speedup demo).

Configs are JSON (see the README for the schema per subcommand).
``--seed`` overrides every seed in the config, so it fully determines
all stochastic behavior.  Diagnostics go to stderr; data goes to files.
This module names and formats every dataset file, and a system
directory's files are laid out by ``save_system``: each command computes
first and writes its files and ``meta.json`` only once that has
succeeded, so a failed run leaves no partial dataset.  Exit codes: 0 success, 1 configuration error
(an array too large to allocate included) or failed kernel build, 2
failed numerical hypothesis (the failing condition is printed).

numpy's BLAS runs on one thread, so the bytes do not depend on the host.
A fresh process that imports this module before numpy sets
``OPENBLAS_NUM_THREADS=1`` first, so OpenBLAS loads with one thread and
never starts its pool; a process that already loaded numpy keeps its
environment, and ``main`` pins the thread count in process instead.
The same fresh process never loads OpenSSL: it marks ``_hashlib``
missing, so ``hashlib`` and ``hmac`` (which ``numpy.random`` imports)
fall back to CPython's built-in hashes, the kernel's cache key takes the
built-in SHA-256 (the same digest), and the process and its forked pool
workers each map about 3.4 MB less.  A process that loaded numpy first
keeps its ``hashlib`` as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from dataclasses import MISSING, asdict, replace
from pathlib import Path

if "numpy" not in sys.modules:
    # read once, when numpy loads OpenBLAS: its worker threads then never start and spin
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # a failing `import _hashlib`: hmac and hashlib (numpy.random imports both) then never load libcrypto
    sys.modules.setdefault("_hashlib", None)

import numpy as np

from ._version import __version__
from .bounds import evaluate_bound
from .errors import HypothesisError, KernelBuildError
from .experiments import (
    ExperimentConfig,
    _tag,
    apply_paper_scale,
    build_noisy,
    run_figure_experiment,
    run_preconditioner_demo,
    run_table2,
)
from .kaczmarz import initial_iterates, record_points, solve
from .linalg import _write_json, _write_table
from .problems import (
    _SEED, _exact, _keys, _number, _or_none, _read,  # the config reader
    NoiseSpec,
    generate_system,
    load_system,
    save_system,
    # unused here: bench/trace_pass.py patches these four names on this module to count noise calls
    additive_noise, multiplicative_noise, partial_consistent_noise, preconditioner_noise,  # noqa: F401
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # usage text and exit code 1 on bad flags, instead of argparse's 2
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _integer(low: int):
    """The argparse type of an integer flag of at least ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _cores() -> int:
    """The cores this process may run on, at least 1: its CPU affinity where the host reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="noisyrk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in (
        ("gen", "generate a system plus noise and serialize it"),
        ("solve", "run randomized Kaczmarz on a serialized system"),
        ("bounds", "evaluate bound curves for a serialized system"),
        ("table2", "noise-magnitude sweep (table2.csv)"),
        ("figure", "trajectories and bound curves over a noise grid"),
        ("precondition", "gap-fill preconditioner speedup demo"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=_integer(0), default=None, help="override every seed")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("table2", "figure"):
            p.add_argument("--scale", choices=("desk", "paper"), default="desk", help="'paper': full-size run")
            p.add_argument("--threads", type=_integer(1), default=_cores(), help="pool size over grid points")
    return parser


# An experiment's config keys, as its record's fields state them; the other commands share some of them.
_EXPERIMENT = _keys(ExperimentConfig)
_EXPERIMENT["rk"] = (_EXPERIMENT["rk"][0], {})  # a config may leave its rk block out; _config seeds it


def _config(args, schema: dict) -> dict:
    """The ``--config`` object read through ``schema``; ``--out`` overrides ``output_dir``, and one is required.

    An ``rk`` block without a ``seed`` takes ``master_seed`` (or 0); ``--seed`` then overrides
    whichever of ``seed``, ``master_seed`` and the ``rk`` seed the command has, here and nowhere else.
    """
    with open(args.config) as fh:
        data = json.load(fh)
    cfg = _read(data, "config", {**schema, "output_dir": (_or_none(os.fspath), None)})
    cfg["output_dir"] = args.out or cfg["output_dir"]
    if not cfg["output_dir"]:
        raise ValueError("an output directory is required (--out or output_dir)")
    if "rk" in cfg and "seed" not in data.get("rk", {}):
        cfg["rk"] = replace(cfg["rk"], seed=cfg.get("master_seed", 0))
    if args.seed is not None:
        cfg.update({key: args.seed for key in ("seed", "master_seed") if key in cfg})
        if "rk" in cfg:
            cfg["rk"] = replace(cfg["rk"], seed=args.seed)
    return cfg


def _out(cfg: dict) -> Path:
    """The command's output directory, made just before its first write."""
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out: Path, cfg: dict, config: dict, **extra) -> None:
    """An experiment's ``meta.json``: ``config``, which the command reads back, with the output directory."""
    meta = {"config": {**config, "output_dir": cfg["output_dir"]}, "library_version": __version__, **extra}
    _write_json(out / "meta.json", meta)


# The dataset formats: CSV tables of %.17g values under a header of column names, JSON as ``_write_json`` writes it.


def write_trajectory_csv(path: Path, traj) -> None:
    """Iteration, mean and std of the squared error, then one column per trial."""
    header = ",".join(["iteration", "mean_sq_err", "std_sq_err", *(f"trial_{k}" for k in range(traj.trials))])
    columns = [traj.recorded_iterations, traj.mean_squared_error, traj.std_squared_error]
    _write_table(path, header, np.column_stack([*columns, traj.per_trial_squared_error.T]))


def write_band_csv(path: Path, traj) -> None:
    """Mean plus/minus half a standard deviation, squared and unsquared."""
    mean_sq, std_sq = traj.mean_squared_error, traj.std_squared_error
    mean_abs, std_abs = traj.mean_error(), traj.std_error()
    columns = [traj.recorded_iterations, mean_sq, mean_sq - 0.5 * std_sq, mean_sq + 0.5 * std_sq,
               mean_abs, mean_abs - 0.5 * std_abs, mean_abs + 0.5 * std_abs]
    _write_table(path, "iteration,mean_sq,lo_sq,hi_sq,mean_abs,lo_abs,hi_abs", np.column_stack(columns))


def write_bound_csv(path: Path, curve) -> None:
    """Iteration/bound pairs, and the curve's scalars in a sidecar named for ``path`` with ``.meta.json``."""
    _write_table(path, "iteration,bound_value", np.column_stack([curve.iterations, curve.values]))
    _write_json(Path(path).with_suffix(".meta.json"), {
        "kind": curve.kind.value, "rate_per_iteration": curve.rate, "horizon": curve.horizon,
        "initial_error": curve.initial_error, "squared": curve.squared, "scalars": curve.scalars,
    })


def write_table2_csv(path: Path, rows) -> None:
    values = [(r.sigma_a, r.sigma_b, r.kappa_a_tilde, r.r_tilde, r.theoretical_horizon, r.empirical_horizon)
              for r in rows]
    _write_table(path, "sigma_a,sigma_b,kappa,r_tilde,theo_horizon,emp_horizon", values)


def _cmd_gen(args) -> int:
    cfg = _config(args, {"spectrum": _EXPERIMENT["spectrum"], "noise": (_exact(dict), {}), "seed": (_SEED, 0)})
    # gen's noise block carries the magnitudes that a grid point supplies elsewhere
    noise = _read(cfg["noise"], "noise", {**_keys(NoiseSpec), "sigma_a": (_number, 0.0), "sigma_b": (_number, 0.0)})
    sigma_a, sigma_b = noise.pop("sigma_a"), noise.pop("sigma_b")
    sys_ = generate_system(cfg["spectrum"], cfg["seed"])
    save_system(build_noisy(NoiseSpec(**noise), sys_, sigma_a, sigma_b, cfg["seed"]), cfg["output_dir"])
    return 0


def _cmd_solve(args) -> int:
    cfg = _config(args, {"system_dir": (os.fspath, MISSING), "rk": _EXPERIMENT["rk"]})
    traj = solve(load_system(cfg["system_dir"]), cfg["rk"])  # every key is read before the system is loaded
    out = _out(cfg)
    write_trajectory_csv(out / "traj.csv", traj)
    write_band_csv(out / "band.csv", traj)
    return 0


def _cmd_bounds(args) -> int:
    cfg = _config(args, {
        "system_dir": (os.fspath, MISSING), "rk": _EXPERIMENT["rk"], "bounds": (_EXPERIMENT["bounds"][0], MISSING),
    })
    rk, noisy = cfg["rk"], load_system(cfg["system_dir"])
    ks = record_points(rk.max_iterations, rk.record_stride)
    # the starts solve uses by default: the curves carry the trial-mean initial error
    x0s = initial_iterates(noisy.a_tilde, rk)
    curves = [evaluate_bound(kind, noisy, x0s, ks) for kind in cfg["bounds"]]
    out = _out(cfg)
    for curve in curves:
        write_bound_csv(out / f"bound_{curve.kind.value}.csv", curve)
    return 0


def _experiment(args, schema: dict) -> tuple:
    """The command's config and its ``ExperimentConfig`` at the ``--scale`` asked for."""
    cfg = _config(args, schema)
    exp = ExperimentConfig(**{key: value for key, value in cfg.items() if key != "output_dir"})
    return cfg, apply_paper_scale(exp) if args.scale == "paper" else exp


def _cmd_table2(args) -> int:
    # the sweep evaluates no bound curves, so a bounds list is an unknown key
    cfg, exp = _experiment(args, {k: v for k, v in _EXPERIMENT.items() if k != "bounds"})
    rows = run_table2(exp, threads=args.threads)
    warnings = {_tag(r.sigma_a, r.sigma_b): list(r.warnings) for r in rows if r.warnings}
    for messages in warnings.values():
        for message in messages:
            print(f"warning: {message}", file=sys.stderr)
    out = _out(cfg)
    write_table2_csv(out / "table2.csv", rows)
    config = {k: v for k, v in asdict(exp).items() if k != "bounds"}  # so `table2` reads it back
    _write_meta(out, cfg, config, adaptive_iterations={_tag(r.sigma_a, r.sigma_b): r.iterations for r in rows},
                warnings=warnings)
    return 0


def _cmd_figure(args) -> int:
    cfg, exp = _experiment(args, _EXPERIMENT)
    results = run_figure_experiment(exp, threads=args.threads).values()
    out = _out(cfg)
    for res in results:
        tag = _tag(res.sigma_a, res.sigma_b)
        write_trajectory_csv(out / f"traj_{tag}.csv", res.trajectory)
        write_band_csv(out / f"band_{tag}.csv", res.trajectory)
        for kind, curve in res.curves.items():
            write_bound_csv(out / f"bound_{kind.value}_{tag}.csv", curve)
    errors = {_tag(r.sigma_a, r.sigma_b): {k.value: v for k, v in r.bound_errors.items()}
              for r in results if r.bound_errors}
    _write_meta(out, cfg, asdict(exp), bound_errors=errors)
    return 0


def _cmd_precondition(args) -> int:
    cfg = _config(args, {
        "spectrum": _EXPERIMENT["spectrum"], "tau": (_number, MISSING), "rk": _EXPERIMENT["rk"],
        "master_seed": (_SEED, 0), "initial_sq_error": (_or_none(_number), None),
    })
    demo = run_preconditioner_demo(
        cfg["spectrum"],
        tau=cfg["tau"],
        rk=cfg["rk"],
        master_seed=cfg["master_seed"],
        initial_sq_error=cfg["initial_sq_error"],
    )
    out = _out(cfg)
    write_trajectory_csv(out / "traj_noiseless.csv", demo.traj_noiseless)
    write_trajectory_csv(out / "traj_noisy.csv", demo.traj_noisy)
    _write_json(out / "preconditioner.json", {
        "k_noiseless": demo.k_noiseless, "k_noisy": demo.k_noisy, "r": demo.r, "r_tilde": demo.r_tilde,
        "horizon": demo.horizon, "tau": float(cfg["tau"]), "initial_sq_error": demo.initial_sq_error,
    })
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "table2": _cmd_table2,
    "figure": _cmd_figure,
    "precondition": _cmd_precondition,
}


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread (forked pool workers inherit it); another BLAS keeps its count.

    A fresh CLI process already loaded OpenBLAS with one thread; this pin is
    for callers that loaded numpy before importing this module (tests, the
    in-process benchmark passes), whose environment the import leaves alone.
    """
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        with contextlib.suppress(OSError, AttributeError):
            ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_(1)


def main(argv=None) -> int:
    _one_blas_thread()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except HypothesisError as exc:
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        prefix = "kernel build error" if isinstance(exc, KernelBuildError) else "config error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
