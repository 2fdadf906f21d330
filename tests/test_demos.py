"""Each quick demo runs to completion as a fresh process.

Demo 04 (the noise sweep) is left out: it is the slowest by far, and it
drives the ``table2`` path that the CLI and experiment tests already cover.
"""

import os
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


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
