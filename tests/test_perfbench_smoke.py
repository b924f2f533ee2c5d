"""Runs the benchmark's tiny-scale smoke check, so that a change to the
program that breaks the benchmark's oracle checks or traced span counts
fails here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
