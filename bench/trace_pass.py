"""In-process traced pass: per-layer busy time and exact call counts.

Run as a child of ``run.py`` with the benchmark's controlled environment::

    python bench/trace_pass.py JOB.json RESULT.json

JOB holds the workload's CLI argv lists for an untraced and a traced
pass (distinct output directories), the system spectrum used to warm
BLAS, and a time budget.  The passes run ``noisyrk.cli.main`` in this
process with one worker.  The traced pass wraps each layer's public
functions where their callers look them up (``noisyrk.cli.*``,
``noisyrk.experiments.*``) plus ``numpy.linalg.svd``/``qr``, and records
one span per call: name, start, end, parent.  Untraced/traced pairs
repeat until the budget is spent, two pairs at least, so the exact
counts can be compared.  The spans of every traced pass go to RESULT
with the pass walls, exit codes and the sampler replay timing.  Nothing
under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import noisyrk.cli as cli
import noisyrk.experiments as experiments
from noisyrk.kaczmarz import make_sampler, record_points
from noisyrk.problems import SpectrumSpec, generate_system

NOISE = ("additive_noise", "multiplicative_noise", "partial_consistent_noise", "preconditioner_noise")
WRITES = ("write_trajectory_csv", "write_band_csv", "write_bound_csv", "write_table2_csv")

# (module, attribute, span name): every layer entry point the CLI and the
# experiment runners reach, patched where they look it up.
TARGETS = (
    [(cli, "run_table2", "experiments.run"), (cli, "run_figure_experiment", "experiments.run")]
    + [(m, "solve", "kaczmarz.solve") for m in (cli, experiments)]
    + [(m, "evaluate_bound", "bounds.evaluate") for m in (cli, experiments)]
    + [(experiments, "bound_additive", "bounds.evaluate")]
    + [(m, "generate_system", "problems.generate_system") for m in (cli, experiments)]
    + [(m, fn, "problems.noise") for m in (cli, experiments) for fn in NOISE]
    + [(cli, "save_system", "problems.save_system"), (cli, "load_system", "problems.load_system")]
    + [(m, fn, "experiments.write") for m in (cli, experiments) for fn in WRITES if hasattr(m, fn)]
    + [(np.linalg, "svd", "linalg.svd"), (np.linalg, "qr", "linalg.qr")]
)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _written_bytes(path) -> int:
    path = str(path)
    sidecar = path[: -len(".csv")] + ".meta.json"
    return os.path.getsize(path) + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


class Tracer:
    """Spans kept in memory: name, start, end, parent index, error, bytes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.solve_calls = []  # (a_tilde, RkConfig) per solve, for the sampler replay

    def call(self, name, fn, args, kwargs):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "error": None, "bytes": 0}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if rec["error"] is None:
                self._after(rec, args)

    def _after(self, rec, args) -> None:
        # sizes and replay inputs are taken after the span has closed
        name = rec["name"]
        if name in ("problems.save_system", "problems.load_system"):
            rec["bytes"] = _dir_bytes(args[1] if name == "problems.save_system" else args[0])
        elif name == "experiments.write":
            rec["bytes"] = _written_bytes(args[0])
        elif name == "kaczmarz.solve":
            rec["steps"] = args[1].trials * args[1].max_iterations
            self.solve_calls.append((args[0].a_tilde, args[1]))

    def install(self) -> list:
        saved = []
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return saved

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced


def _run_commands(argvs, tracer=None) -> tuple:
    """Run each argv through ``cli.main``; return (wall seconds, exit codes)."""
    codes = []
    start = time.perf_counter()
    for argv in argvs:
        if tracer is None:
            codes.append(cli.main(argv))
        else:
            codes.append(tracer.call("cli.command", cli.main, (argv,), {}))
    return time.perf_counter() - start, codes


def _replay_sampling(solve_calls) -> float:
    """Time the row sampling of the recorded solves from outside ``solve``.

    Rebuilds each trial's sampler and draws the same blocks in the same
    order as ``solve`` does, so the time is the sampling share of the solve.
    """
    start = time.perf_counter()
    for a_tilde, cfg in solve_calls:
        ks = record_points(cfg.max_iterations, cfg.record_stride)
        for trial in range(cfg.trials):
            sampler = make_sampler(a_tilde, cfg.seed, trial)
            for j in range(1, ks.size):
                sampler.sample_block(int(ks[j] - ks[j - 1]))
    return time.perf_counter() - start


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    # first-call BLAS and allocator warm-up, paid by neither timed pass
    generate_system(SpectrumSpec(**job["spectrum"]), seed=0)
    untraced, traced = [], []
    deadline = time.perf_counter() + job["budget_s"]
    for p, argvs in enumerate(job["passes"]):
        pair_start = time.perf_counter()
        wall, codes = _run_commands(argvs["untraced"])
        untraced.append({"wall_s": wall, "codes": codes})
        tracer = Tracer()
        saved = tracer.install()
        try:
            wall, codes = _run_commands(argvs["traced"], tracer)
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        traced.append({"wall_s": wall, "codes": codes, "spans": tracer.spans,
                       "replay_s": _replay_sampling(tracer.solve_calls)})
        now = time.perf_counter()
        if p >= 1 and 2 * now - pair_start > deadline:
            break
    Path(result_path).write_text(json.dumps({"untraced": untraced, "traced": traced}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
