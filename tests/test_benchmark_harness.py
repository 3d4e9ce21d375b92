"""The benchmark under ``perfbench/`` can still drive the package.

The benchmark replaces ``montecarlo._draw_block`` in its self-test and wraps
module attributes in its traced run, so it depends on private names and
signatures that no other test calls the way it does.  Both run in a
subprocess, as the benchmark runs them, so nothing they patch leaks here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


def test_selftest_passes():
    done = _run("perfbench/selftest.py")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.rstrip().endswith("0 case(s) wrong")


def test_tracer_installs():
    code = (
        "import sys; sys.path[:0] = ['perfbench', 'src']\n"
        "import tracing; tracing.install(tracing.Tracer())\n"
    )
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr[-2000:]
