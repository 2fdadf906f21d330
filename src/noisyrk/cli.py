"""Command-line front end.

Subcommands: ``gen`` (build and serialize a system), ``solve`` (run the
solver on a serialized system), ``bounds`` (evaluate bound curves),
``table2`` (noise-magnitude sweep), ``figure`` (trajectory + bound
dataset over a grid), ``precondition`` (gap-fill speedup demo).

Configs are JSON (see the README for the schema per subcommand).
``--seed`` overrides every seed in the config, so it fully determines
all stochastic behavior.  Diagnostics go to stderr; data goes to files.
Exit codes: 0 success, 1 configuration error or failed kernel build, 2
failed numerical hypothesis (the failing condition is printed).

numpy's BLAS runs on one thread, so the bytes do not depend on the host.
A fresh process that imports this module before numpy sets
``OPENBLAS_NUM_THREADS=1`` first, so OpenBLAS loads with one thread and
never starts its pool; a process that already loaded numpy keeps its
environment, and ``main`` pins the thread count in process instead.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

if "numpy" not in sys.modules:
    # read once, when numpy loads OpenBLAS: its worker threads then never start and spin
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .bounds import BoundKind, evaluate_bound, write_bound_csv
from .errors import HypothesisError, KernelBuildError
from .experiments import (
    _EXPERIMENT_KEYS,
    ExperimentConfig,
    _rk_from,
    apply_paper_scale,
    build_noisy,
    run_figure_experiment,
    run_preconditioner_demo,
    run_table2,
    write_band_csv,
)
from .kaczmarz import initial_iterates, record_points, solve, write_trajectory_csv
from .problems import (
    _NOISE_KEYS, _REQUIRED, _exact, _list_of, _number, _or_none, _read,  # the config reader
    NoiseSpec,
    SpectrumSpec,
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


def _threads(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        p.add_argument("--seed", type=int, default=None, help="override every seed")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("table2", "figure"):
            p.add_argument("--scale", choices=("desk", "paper"), default="desk", help="'paper': full-size run")
            p.add_argument("--threads", type=_threads, default=os.cpu_count(), help="pool size over grid points")
    return parser


def _config(args, schema: dict) -> dict:
    """The ``--config`` object read through ``schema``; ``--out`` overrides ``output_dir``, and one is required."""
    with open(args.config) as fh:
        cfg = _read(json.load(fh), "config", {**schema, "output_dir": (_or_none(os.fspath), None)})
    cfg["output_dir"] = args.out or cfg["output_dir"]
    if cfg["output_dir"] is None:
        raise ValueError("an output directory is required (--out or output_dir)")
    return cfg


def _cmd_gen(args) -> int:
    cfg = _config(args, {
        "spectrum": (SpectrumSpec.from_dict, _REQUIRED), "noise": (_exact(dict), {}), "seed": (_exact(int), 0),
    })
    # gen's noise block carries the magnitudes that a grid point supplies elsewhere
    noise = _read(cfg["noise"], "noise", {**_NOISE_KEYS, "sigma_a": (_number, 0.0), "sigma_b": (_number, 0.0)})
    sigma_a, sigma_b = noise.pop("sigma_a"), noise.pop("sigma_b")
    seed = args.seed if args.seed is not None else cfg["seed"]
    sys_ = generate_system(cfg["spectrum"], seed)
    save_system(build_noisy(NoiseSpec(**noise), sys_, sigma_a, sigma_b, seed), cfg["output_dir"])
    return 0


def _cmd_solve(args) -> int:
    cfg = _config(args, {"system_dir": (os.fspath, _REQUIRED), "rk": (_exact(dict), {})})
    rk = _rk_from(cfg["rk"], 0, args.seed)  # every key is read before the system is loaded
    traj = solve(load_system(cfg["system_dir"]), rk)
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "traj.csv", traj)
    write_band_csv(out / "band.csv", traj)
    return 0


def _cmd_bounds(args) -> int:
    cfg = _config(args, {
        "system_dir": (os.fspath, _REQUIRED), "rk": (_exact(dict), {}), "bounds": (_list_of(BoundKind), _REQUIRED),
    })
    rk = _rk_from(cfg["rk"], 0, args.seed)
    noisy = load_system(cfg["system_dir"])
    ks = record_points(rk.max_iterations, rk.record_stride)
    # the starts solve uses by default: the curves carry the trial-mean initial error
    x0s = initial_iterates(noisy.a_tilde, rk)
    # every kind is evaluated before any file is written: a failing kind leaves no output
    curves = [evaluate_bound(kind, noisy, x0s, ks) for kind in cfg["bounds"]]
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    for curve in curves:
        write_bound_csv(out / f"bound_{curve.kind.value}.csv", curve)
    return 0


def _experiment_config(args, schema: dict) -> ExperimentConfig:
    exp = ExperimentConfig._from_fields(_config(args, schema))
    if args.seed is not None:
        exp = replace(exp, master_seed=args.seed, rk=replace(exp.rk, seed=args.seed))
    return apply_paper_scale(exp) if args.scale == "paper" else exp


def _cmd_table2(args) -> int:
    # the sweep evaluates no bound curves, so a bounds list is an unknown key
    schema = {k: v for k, v in _EXPERIMENT_KEYS.items() if k != "bounds"}
    run_table2(_experiment_config(args, schema), threads=args.threads)
    return 0


def _cmd_figure(args) -> int:
    run_figure_experiment(_experiment_config(args, _EXPERIMENT_KEYS), threads=args.threads)
    return 0


def _cmd_precondition(args) -> int:
    cfg = _config(args, {
        "spectrum": (SpectrumSpec.from_dict, _REQUIRED), "tau": (_number, _REQUIRED), "rk": (_exact(dict), {}),
        "master_seed": (_exact(int), 0), "initial_sq_error": (_or_none(_number), None),
    })
    run_preconditioner_demo(
        cfg["spectrum"],
        tau=cfg["tau"],
        rk=_rk_from(cfg["rk"], cfg["master_seed"], args.seed),
        master_seed=args.seed if args.seed is not None else cfg["master_seed"],
        output_dir=Path(cfg["output_dir"]),
        initial_sq_error=cfg["initial_sq_error"],
    )
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
    except (ValueError, OSError) as exc:
        prefix = "kernel build error" if isinstance(exc, KernelBuildError) else "config error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
