"""Command-line front end.

Subcommands: ``gen`` (build and serialize a system), ``solve`` (run the
solver on a serialized system), ``bounds`` (evaluate bound curves),
``table2`` (noise-magnitude sweep), ``figure`` (trajectory + bound
dataset over a grid), ``precondition`` (gap-fill speedup demo).

Configs are JSON (see the README for the schema per subcommand).
``--seed`` overrides every seed in the config, so it fully determines
all stochastic behavior.  Diagnostics go to stderr; data goes to files.
Exit codes: 0 success, 1 configuration error, 2 failed numerical
hypothesis (the failing condition is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .bounds import evaluate_bound, write_bound_csv
from .errors import HypothesisError
from .experiments import (
    ExperimentConfig,
    _rk_from,
    apply_paper_scale,
    build_noisy,
    run_figure_experiment,
    run_preconditioner_demo,
    run_table2,
    write_band_csv,
)
from .kaczmarz import initial_iterate, record_points, solve, write_trajectory_csv
from .problems import (
    NoiseSpec,
    SpectrumSpec,
    _config_value,
    _exact,
    _or_none,
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
        p.add_argument(
            "--scale", choices=("desk", "paper"), default="desk",
            help="'paper' swaps in full-size dimensions and budget (figure/table2)",
        )
        p.add_argument(
            "--threads", type=int, default=os.cpu_count(),
            help="worker pool size for grid points",
        )
    return parser


def _load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(cfg).__name__}")
    return cfg


def _out_dir(args, cfg: dict) -> Path:
    out = args.out or _config_value(cfg, "output_dir", os.fspath, None)
    if out is None:
        raise ValueError("an output directory is required (--out or output_dir)")
    return Path(out)


def _cmd_gen(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    seed = args.seed if args.seed is not None else _config_value(cfg, "seed", _exact(int), 0)
    block = cfg.get("noise", {})
    noise = NoiseSpec.from_dict(block)
    sigma_a = _config_value(block, "sigma_a", float, 0.0, "noise")
    sigma_b = _config_value(block, "sigma_b", float, 0.0, "noise")
    sys_ = generate_system(_config_value(cfg, "spectrum", SpectrumSpec.from_dict), seed)
    save_system(build_noisy(noise, sys_, sigma_a, sigma_b, seed), out)
    return 0


def _cmd_solve(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    noisy = load_system(_config_value(cfg, "system_dir", os.fspath))
    rk = _rk_from(cfg.get("rk", {}), 0, args.seed)
    traj = solve(noisy, rk)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "traj.csv", traj)
    write_band_csv(out / "band.csv", traj)
    return 0


def _cmd_bounds(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    noisy = load_system(_config_value(cfg, "system_dir", os.fspath))
    rk = _rk_from(cfg.get("rk", {}), 0, args.seed)
    ks = record_points(rk.max_iterations, rk.record_stride)
    # every trial's start, as solve uses them: the curves carry the trial-mean initial error
    x0 = [initial_iterate(noisy.a_tilde, rk, t) for t in range(rk.trials)]
    out.mkdir(parents=True, exist_ok=True)
    for kind in _config_value(cfg, "bounds", list):
        curve = evaluate_bound(kind, noisy.base, noisy, x0, ks)
        write_bound_csv(out / f"bound_{curve.kind.value}.csv", curve)
    return 0


def _experiment_config(args, cfg: dict) -> ExperimentConfig:
    exp = ExperimentConfig.from_dict(cfg)
    if args.seed is not None:
        exp = replace(exp, master_seed=args.seed, rk=replace(exp.rk, seed=args.seed))
    if args.out is not None:
        exp = replace(exp, output_dir=args.out)
    if args.scale == "paper":
        exp = apply_paper_scale(exp)
    if exp.output_dir is None:
        raise ValueError("an output directory is required (--out or output_dir)")
    return exp


def _cmd_table2(args, cfg: dict) -> int:
    run_table2(_experiment_config(args, cfg), threads=args.threads)
    return 0


def _cmd_figure(args, cfg: dict) -> int:
    run_figure_experiment(_experiment_config(args, cfg), threads=args.threads)
    return 0


def _cmd_precondition(args, cfg: dict) -> int:
    out = _out_dir(args, cfg)
    seed = args.seed if args.seed is not None else _config_value(cfg, "master_seed", _exact(int), 0)
    rk = _rk_from(cfg.get("rk", {}), seed, args.seed)
    run_preconditioner_demo(
        _config_value(cfg, "spectrum", SpectrumSpec.from_dict),
        tau=_config_value(cfg, "tau", float),
        rk=rk,
        master_seed=seed,
        output_dir=out,
        initial_sq_error=_config_value(cfg, "initial_sq_error", _or_none(float), None),
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.subcommand](args, cfg)
    except HypothesisError as exc:
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
