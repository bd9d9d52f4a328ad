"""The benchmark harness still runs against the library's public API."""

import os
import subprocess
import sys
from pathlib import Path

import dualitylab as dl

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    """perfbench/selftest.py runs every workload clean and perturbed; a
    public name it uses that goes missing fails it here."""
    env = os.environ.copy()
    package_root = str(Path(dl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
