"""scipy stays out of every process that computes no p-value.

Importing scipy.stats costs about a second and 70 MB of RSS, and only
`eval`'s significance test needs scipy at all.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import veloscore
from veloscore.cli import EXIT_OK, main
from veloscore.synth import SynthConfig, generate

SRC = Path(veloscore.__file__).resolve().parent.parent
LEAK_CHECK = """
import sys
{body}
print("scipy modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def scipy_modules_after(body: str, *argv) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", LEAK_CHECK.format(body=body), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("scipy modules:")
    return last.split()[2:]


@pytest.mark.parametrize("module", ["veloscore", "veloscore.cli"])
def test_import_leaves_scipy_out(module):
    assert scipy_modules_after(f"import {module}") == []


def test_trend_run_leaves_scipy_out(tmp_path):
    data = tmp_path / "data"
    generate(SynthConfig(seed=5, users=30, hours=336, follows_per_user=4), data)
    out = tmp_path / "out"
    assert main(["score", "--events", str(data / "events.ndjson"),
                 "--edges", str(data / "edges.tsv"), "--out", str(out)]) == EXIT_OK
    body = "from veloscore.cli import main\nassert main(sys.argv[1:]) == 0"
    assert scipy_modules_after(body, "trend", "--out", out, "--week", "1") == []
