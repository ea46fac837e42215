"""The benchmark's own smoke run, so that a change to what it reads
(``Problem`` fields, the module names it wraps) fails here first."""

import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.skipif(not RUNNER.is_file(), reason="bench/run.py is absent")
def test_bench_smoke_run_passes():
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--smoke"],
        cwd=RUNNER.parent.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "smoke: ok" in done.stdout.splitlines(), done.stdout + done.stderr
