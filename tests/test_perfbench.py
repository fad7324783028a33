"""The benchmark's own self-test, run as part of the suite: a change to a
name or a return shape that ``perfbench`` reads fails here, not only when
the benchmark runs."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
