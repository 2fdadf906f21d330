"""Each quick demo, and the README's quick start, runs to completion as a fresh process.

Demo 04 (the noise sweep) is left out: it is the slowest by far, and it
drives the ``table2`` path that the CLI and experiment tests already cover.
Each runs with ``-W error::RuntimeWarning``, the suite's own warning policy,
so a numpy overflow warning fails it there too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = [
    "01_spectral_toolkit.py",
    "02_noise_models.py",
    "03_solver_and_bounds.py",
    "05_gap_fill_speedup.py",
]


def run_python(args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_0(demo, tmp_path):
    done = run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    done = run_python(["-c", block], tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.split()) == 3  # rate, horizon, empirical horizon
