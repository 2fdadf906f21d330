"""The process pool over grid points: forks of the calling process, loaded by pooled runs only.

:func:`fork_map` runs ``worker(cfg, sys, sigma_a, sigma_b)`` at each grid point in
``min(threads, len(grid))`` forks.  The forks take grid indices from one pipe, in grid
order as each becomes free, and pickle their records into a pipe of their own at the end.
Each fork generates the system at its first point and keeps it: generating it before the
forks would import ``numpy.random`` and run the QRs in the calling process, and every fork
would carry their pages.  On the ``table2-sweep`` benchmark config at seed 1 the calling
process peaks at 28.7 MB and each fork at 30.3 MB.

A fork whose point fails takes no more points and empties the task pipe, so the others start
none either; the first failed point in grid order is raised, the error an in-process run
raises.  A fork that ends without its records is a ``ChildProcessError`` at the points it
took.  No fork outlives the call: each is waited for, killed first if the caller is
interrupted, and on Linux killed by the kernel if the caller ends.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import pickle
import signal

from .linalg import _kernel
from .problems import generate_system


def _serve(worker, cfg, grid, tasks: int, out: int, parent: int) -> None:
    """In a fork of ``parent``: run the grid indices read from the pipe ``tasks``, then pickle the list of
    ``(index, record or exception)`` into the pipe ``out``; an index read after a failed point pairs with None.
    """
    with contextlib.suppress(AttributeError):  # on Linux, a fork dies with the process that forked it
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    if os.getppid() != parent:  # it ended before the line above
        return
    done, sys, failed = [], None, False
    while chunk := os.read(tasks, 4):
        index = int.from_bytes(chunk, "little")
        if failed:
            done.append((index, None))
            continue
        try:
            if sys is None:
                sys = generate_system(cfg.spectrum, cfg.master_seed)
            done.append((index, worker(cfg, sys, *grid[index])))
        except Exception as exc:
            done.append((index, exc))
            failed = True
    with open(out, "wb") as fh:
        pickle.dump(done, fh)


def fork_map(worker, cfg, grid, threads: int) -> list:
    """``worker(cfg, sys, sigma_a, sigma_b)`` at each grid point in forks, in grid order; the first failure raises."""
    _kernel()  # loaded before the forks, so they inherit it and a cold cache is built once
    tasks_r, tasks_w = os.pipe()
    parent, pids, pipes = os.getpid(), [], []
    try:
        for _ in range(min(threads, len(grid))):
            pipes.append(os.pipe())
            if (pid := os.fork()) == 0:
                try:
                    os.close(tasks_w)
                    _serve(worker, cfg, grid, tasks_r, pipes[-1][1], parent)
                    os._exit(0)
                finally:  # no inherited exit handler, stdio buffer or test runner runs twice
                    os._exit(1)
            pids.append(pid)
            os.close(pipes[-1][1])
        os.close(tasks_r)
        try:
            with open(tasks_w, "wb") as fh:  # after the forks, which read while a long grid fills the pipe
                fh.write(b"".join(index.to_bytes(4, "little") for index in range(len(grid))))
        except BrokenPipeError:  # every fork has ended; its exit status says how
            pass
        blobs = []
        for fd, _ in pipes:
            with open(fd, "rb") as fh:
                blobs.append(fh.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    records = dict(item for blob, code in zip(blobs, codes) if code == 0 for item in pickle.loads(blob))
    if lost := [index for index in range(len(grid)) if index not in records]:
        dead = "; ".join(f"pid {pid}, " + (f"killed by signal {-code}" if code < 0 else f"exit status {code}")
                         for pid, code in zip(pids, codes) if code)
        points = ", ".join(f"[{grid[index][0]:g}, {grid[index][1]:g}]" for index in lost)
        records.update(dict.fromkeys(lost, ChildProcessError(
            f"a grid worker ended before it returned its points ({dead}): no result for {points}")))
    results = [records[index] for index in range(len(grid))]
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results
