"""Print the machine block as JSON: cores, CPU, Python, numpy, BLAS.

    python bench/probe.py SPECTRUM_JSON

Run in the benchmark's controlled environment, so the BLAS thread count
it reports is the library default the CLI processes get.  It also warms
the machine before anything is timed: importing ``noisyrk.cli`` fills
the bytecode cache, and generating one system of the workload's size
pays the slow first large allocation that otherwise lands on the first
rep after the machine has idled.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import sys

import numpy as np

import noisyrk.cli  # noqa: F401
from noisyrk.problems import SpectrumSpec, generate_system


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Default thread count reported by numpy's bundled OpenBLAS, if any."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def main(spectrum: str) -> None:
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    generate_system(SpectrumSpec(**json.loads(spectrum)), seed=0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_default_threads": _blas_threads(),
        "process_threads_after_import": threads,
    }, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
