"""The benchmark's correctness gate in the test suite.

`perfbench/selftest.py` runs one small untraced round of the benchmark,
the streaming child's `KineticsEngine` calls included, and requires every
check in `perfbench/oracle.py` to pass on the real outputs and to fail on
each corrupted one.  It writes only under the git-ignored
`perfbench/out/selftest/`.
"""

import subprocess
import sys
from pathlib import Path

from pipeline_helpers import child_env

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)],
                          env=child_env(PYTHONDONTWRITEBYTECODE="1"), cwd=SELFTEST.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 problem(s)"
