"""noisyrk benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` (no install).  Every process starts from an explicit environment
(PATH, PYTHONPATH=src, PYTHONHASHSEED=0, TMPDIR inside ``.bench_work``)
with no inherited ``*_NUM_THREADS``, so the BLAS default thread count
applies.  Scratch outputs go to ``.bench_work/`` at the checkout root.

``--trace 0`` runs the workload's CLI commands as fresh processes,
back to back, until ``--seconds`` is spent (at least two reps), checks
every output, and reports the medians of ``wall_s``, ``cpu_s`` (user+sys
of every process, pool workers and BLAS threads included) and
``peak_rss_mb`` (largest process), plus ``setup_s``, the median time for
a fresh interpreter to import ``noisyrk.cli`` (sampled before and
between the reps).

``--trace 1`` runs ``trace_pass.py`` (the same commands in one process
with one worker, untraced then traced), then the CLI commands once at the
gated ``--threads`` and once at the CLI default, and reports per-layer
metrics.  All output sets must have equal digests.

The last stdout line is the JSON result; lines before it are for humans.
The exit code is nonzero, with no result line, when the checkout holds
no ``src/noisyrk`` or the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PYTHON = sys.executable

SETUP_SAMPLES = 3
MIN_REPS = 2
MAX_TRACE_PAIRS = 4
# Every run must end within 180 s; stop starting work well before that.
RUN_DEADLINE_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Spawns processes in a controlled environment against one deadline."""

    def __init__(self, work: Path):
        self.start = time.perf_counter()
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = {
            "PATH": os.environ.get("PATH", os.defpath),
            "LANG": "C.UTF-8",
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "TMPDIR": str(tmp),
        }

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, argv: list, log: Path) -> Proc:
        """Run argv to completion in its own process group.

        Wall time is spawn to reap; CPU and peak RSS come from ``wait4``,
        which includes every descendant the child waited for.
        """
        timeout = max(1.0, RUN_DEADLINE_S - self.elapsed())
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(
                argv[0], argv, self.env, setpgroup=0,
                file_actions=[
                    (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                    (os.POSIX_SPAWN_DUP2, fd, 1),
                    (os.POSIX_SPAWN_DUP2, fd, 2),
                ],
            )
        finally:
            os.close(fd)
        timer = threading.Timer(timeout, _kill_group, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            _kill_group(pid)
            os.waitpid(pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        return Proc(
            code=os.waitstatus_to_exitcode(status),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
        )

    def cli(self, argvs: list, logs: Path) -> list:
        return [
            self.spawn([PYTHON, "-m", "noisyrk.cli", *argv], logs / f"cmd{k}.log")
            for k, argv in enumerate(argvs)
        ]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _check(workload, rep: Path, procs: list) -> list:
    """Output checks plus exit codes: a failed command fails its operations."""
    ops = workload.check(rep)
    for k, proc in enumerate(procs):
        if proc.code != 0:
            # roundtrip: command k is operation k; otherwise one command owns all ops
            hit = [ops[k]] if len(procs) == len(ops) else ops
            for op in hit:
                op.fail(f"command {k} exited {proc.code}")
    return ops


def _compare(ops: list, reference: list, label: str) -> None:
    for op, ref in zip(ops, reference):
        if op.digest != ref.digest:
            op.fail(f"digest differs from {label}")


def _machine(runner: Runner, work: Path, workload) -> dict:
    proc_log = work / "probe.log"
    proc = runner.spawn([PYTHON, str(BENCH / "probe.py"), json.dumps(workload.spectrum)], proc_log)
    if proc.code != 0:
        raise SystemExit(f"probe failed (exit {proc.code}); see {proc_log}")
    machine = json.loads(proc_log.read_text().splitlines()[-1])
    machine["env"] = {k: v for k, v in runner.env.items() if k != "PATH"}
    return machine


def run_end_to_end(workload, seed: int, seconds: float, runner: Runner, work: Path) -> tuple:
    def setup_sample() -> float:
        return runner.spawn([PYTHON, "-c", "import noisyrk.cli"], work / "setup.log").wall_s

    # a few samples up front, then one per rep, so they span the run like the reps do
    setup = [setup_sample() for _ in range(SETUP_SAMPLES)]
    reps, all_ops, reference = [], [], None
    loop_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = _fresh(work / "rep")
        procs = runner.cli(workload.commands(rep, seed, workload.threads), rep)
        ops = _check(workload, rep, procs)
        setup.append(setup_sample())
        if reference is None:
            reference = ops
        else:
            _compare(ops, reference, "rep 0")
        all_ops += ops
        reps.append({
            "wall_s": sum(p.wall_s for p in procs),
            "cpu_s": sum(p.cpu_s for p in procs),
            "peak_rss_mb": max(p.rss_mb for p in procs),
            "rep_s": time.perf_counter() - t0,
        })
        if any(op.reasons for op in ops):
            shutil.copytree(rep, work / f"failed-rep{len(reps) - 1}", dirs_exist_ok=True)
        typical = statistics.median(r["rep_s"] for r in reps)
        if len(reps) >= MIN_REPS and (
            time.perf_counter() - loop_start + typical > seconds
            or runner.elapsed() + typical > RUN_DEADLINE_S
        ):
            break
    shutil.rmtree(work / "rep", ignore_errors=True)
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    detail = {"reps": reps, "setup_samples": setup}
    return metrics, END_TO_END_UNITS, all_ops, detail


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "cli.commands": "count",
    "cli.exit_nonzero": "count",
    "experiments.self.s": "s",
    "experiments.write.s": "s",
    "experiments.write.bytes": "B",
    "experiments.pool.efficiency": "1",
    "experiments.pool.speedup_default_threads": "1",
    "kaczmarz.solve.calls": "count",
    "kaczmarz.solve.s": "s",
    "kaczmarz.solve.steps": "count",
    "kaczmarz.solve.ns_per_step": "ns",
    "kaczmarz.sample.ns_per_draw": "ns",
    "kaczmarz.project.ns_per_step": "ns",
    "bounds.evaluate.calls": "count",
    "bounds.evaluate.s": "s",
    "bounds.hypothesis_failed": "count",
    "bounds.useful_ratio": "1",
    "linalg.svd.calls": "count",
    "linalg.svd.s": "s",
    "linalg.svd.calls_per_point": "count",
    "linalg.qr.calls": "count",
    "linalg.qr.s": "s",
    "problems.generate_system.calls": "count",
    "problems.generate_system.s": "s",
    "problems.noise.calls": "count",
    "problems.noise.s": "s",
    "problems.save_system.s": "s",
    "problems.save_system.bytes": "B",
    "problems.load_system.s": "s",
    "problems.load_system.bytes": "B",
}
# Exact per-pass counts: equal across traced passes of one run, or the run fails.
COUNTS = [k for k, unit in PER_LAYER_UNITS.items() if unit in ("count", "B")]


def layer_metrics(spans: list, points: int) -> dict:
    """Per-layer busy time, calls and bytes from one traced pass's spans.

    Ratios over a layer that did not run read 0; the failed command that
    kept it from running is reported through the operations.
    """
    for s in spans:
        s["dur"] = s["end"] - s["start"]
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["dur"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["dur"] for s in named(name))

    bounds = named("bounds.evaluate")
    failed = sum(s["error"] == "HypothesisError" for s in bounds)
    solve_steps = sum(s.get("steps", 0) for s in named("kaczmarz.solve"))
    m = {
        "cli.commands": len(named("cli.command")),
        "experiments.self.s": sum(
            s["dur"] - children.get(i, 0.0)
            for i, s in enumerate(spans) if s["name"] in ("cli.command", "experiments.run")
        ),
        "experiments.write.s": busy("experiments.write"),
        "experiments.write.bytes": sum(s["bytes"] for s in named("experiments.write")),
        "kaczmarz.solve.calls": len(named("kaczmarz.solve")),
        "kaczmarz.solve.s": busy("kaczmarz.solve"),
        "kaczmarz.solve.steps": solve_steps,
        "kaczmarz.solve.ns_per_step": 1e9 * busy("kaczmarz.solve") / max(solve_steps, 1),
        "bounds.evaluate.calls": len(bounds),
        "bounds.evaluate.s": busy("bounds.evaluate"),
        "bounds.hypothesis_failed": failed,
        "bounds.useful_ratio": (len(bounds) - failed) / max(len(bounds), 1),
        "linalg.svd.calls": len(named("linalg.svd")),
        "linalg.svd.s": busy("linalg.svd"),
        "linalg.svd.calls_per_point": len(named("linalg.svd")) / points,
        "linalg.qr.calls": len(named("linalg.qr")),
        "linalg.qr.s": busy("linalg.qr"),
    }
    for layer in ("generate_system", "noise"):
        m[f"problems.{layer}.calls"] = len(named(f"problems.{layer}"))
        m[f"problems.{layer}.s"] = busy(f"problems.{layer}")
    for layer in ("save_system", "load_system"):
        m[f"problems.{layer}.s"] = busy(f"problems.{layer}")
        m[f"problems.{layer}.bytes"] = sum(s["bytes"] for s in named(f"problems.{layer}"))
    return m


def run_traced(workload, seed: int, seconds: float, runner: Runner, work: Path) -> tuple:
    in_process = 1 if workload.threads is not None else None
    trace_dir = _fresh(work / "trace")
    pairs = [
        {label: workload.commands(trace_dir / f"{label}{p}", seed, in_process)
         for label in ("untraced", "traced")}
        for p in range(MAX_TRACE_PAIRS)
    ]
    job = trace_dir / "job.json"
    job.write_text(json.dumps({"spectrum": workload.spectrum, "budget_s": seconds, "passes": pairs}))
    result_path = trace_dir / "result.json"
    proc = runner.spawn([PYTHON, str(BENCH / "trace_pass.py"), str(job), str(result_path)],
                        trace_dir / "trace_pass.log")
    if proc.code != 0:
        raise SystemExit(f"traced pass failed (exit {proc.code}); see {trace_dir / 'trace_pass.log'}")
    result = json.loads(result_path.read_text())
    gated = runner.cli(workload.commands(_fresh(trace_dir / "gated"), seed, workload.threads),
                       trace_dir / "gated")
    reference = _check(workload, trace_dir / "gated", gated)
    all_ops = list(reference)
    speedup = 1.0  # no --threads flag: the gated command is the default command
    if workload.threads is not None:
        default = runner.cli(workload.commands(_fresh(trace_dir / "default"), seed, None),
                             trace_dir / "default")
        speedup = sum(p.wall_s for p in gated) / sum(p.wall_s for p in default)
        ops = _check(workload, trace_dir / "default", default)
        _compare(ops, reference, "the gated-threads run")
        all_ops += ops

    per_pass = []
    for p, (untraced, traced) in enumerate(zip(result["untraced"], result["traced"])):
        for label, run in (("untraced", untraced), ("traced", traced)):
            ops = workload.check(trace_dir / f"{label}{p}")
            for op in ops:
                if any(run["codes"]):
                    op.fail(f"{label} pass exit codes {run['codes']}")
            _compare(ops, reference, f"the gated-threads run ({label} pass {p})")
            all_ops += ops
        m = layer_metrics(traced["spans"], len(reference))
        m["cli.exit_nonzero"] = sum(code != 0 for code in traced["codes"])
        m["trace.wall_s"] = traced["wall_s"]
        m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        m["kaczmarz.sample.ns_per_draw"] = 1e9 * traced["replay_s"] / max(m["kaczmarz.solve.steps"], 1)
        m["kaczmarz.project.ns_per_step"] = (
            m["kaczmarz.solve.ns_per_step"] - m["kaczmarz.sample.ns_per_draw"]
        )
        m["experiments.pool.efficiency"] = untraced["wall_s"] / (
            (workload.threads or 1) * sum(g.wall_s for g in gated)
        )
        m["experiments.pool.speedup_default_threads"] = speedup
        per_pass.append(m)
        if any(m[k] != per_pass[0][k] for k in COUNTS):
            for op in ops:  # the traced pass's operations
                op.fail(f"traced pass {p} counts differ from pass 0")

    metrics = {
        k: (per_pass[0][k] if k in COUNTS else statistics.median(m[k] for m in per_pass))
        for k in PER_LAYER_UNITS
    }
    (work / "spans.json").write_text(json.dumps([t["spans"] for t in result["traced"]]))
    if not any(op.reasons for op in all_ops):
        shutil.rmtree(trace_dir, ignore_errors=True)
    detail = {"passes": per_pass, "gated_walls": [g.wall_s for g in gated]}
    return metrics, PER_LAYER_UNITS, all_ops, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "noisyrk" / "cli.py").is_file():
        print(f"error: no noisyrk sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    runner = Runner(work)
    machine = _machine(runner, work, workload)
    measure = run_traced if args.trace else run_end_to_end
    metrics, units, ops, detail = measure(workload, args.seed, args.seconds, runner, work)

    failed = [op for op in ops if op.reasons]
    for op in failed[:20]:
        print(f"FAILED {op.name}: {'; '.join(op.reasons)}")
    margins = [op.margin for op in ops if op.margin != float("inf")]
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {len(failed)} failed")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':<44} {len(failed) / len(ops):>16.6g} 1")
    if margins:
        print(f"  {'min squared-bound margin (bound / error)':<44} {min(margins):>16.6g} 1")
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"machine": machine, "seed": args.seed, "metrics": metrics, "detail": detail,
         "failures": [(op.name, op.reasons) for op in failed]}, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
