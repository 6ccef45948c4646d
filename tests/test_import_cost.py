"""scipy and OpenSSL's hashlib stay out of every command.

Importing scipy.special costs about half a second and 23 MB of RSS; `eval`'s
p-values come from a pure-Python incomplete beta instead, and scipy is only
a test oracle.  Importing hashlib loads OpenSSL (`_hashlib`), about 3.5 MB of
RSS; the BLAKE2b of the stream digest and the graph cache comes from the
built-in `_blake2` module instead.
"""

import subprocess
import sys

import pytest

from pipeline_helpers import child_env, run_pipeline
from veloscore.synth import SynthConfig, generate

LEAK_CHECK = """
import sys
{body}
print("heavy modules:", *sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy" or m == "_hashlib"))
"""


def heavy_modules_after(body: str, *argv) -> list[str]:
    """The scipy modules and `_hashlib`, if loaded, after running ``body``."""
    proc = subprocess.run([sys.executable, "-c", LEAK_CHECK.format(body=body), *map(str, argv)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("heavy modules:")
    return last.split()[2:]


@pytest.mark.parametrize("module", ["veloscore", "veloscore.cli", "veloscore.evaluation"])
def test_import_leaves_scipy_out(module):  # and _hashlib
    assert heavy_modules_after(f"import {module}") == []


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A synth dataset with clicks, and the --out of a `score` run over it."""
    data = tmp_path_factory.mktemp("data")
    generate(SynthConfig(seed=5, users=30, hours=336, follows_per_user=4, url_count=40), data)
    return data, run_pipeline(data, data / "out", commands=("score",))


def test_trend_run_leaves_scipy_out(scored):  # and _hashlib
    _, out = scored
    body = "from veloscore.cli import main\nassert main(sys.argv[1:]) == 0"
    assert heavy_modules_after(body, "trend", "--out", out, "--week", "1") == []


def test_centrality_run_on_digest_leaves_scipy_and_hashlib_out(scored):
    data, out = scored
    # no parser to fall back on: the run must use score's stream digest and graph cache
    body = ("from veloscore import cli\ncli.read_events_file = cli.load_graph = None\n"
            "assert cli.main(sys.argv[1:]) == 0")
    assert heavy_modules_after(body, "centrality", "--edges", data / "edges.tsv",
                               "--events", data / "events.ndjson", "--out", out) == []


def test_eval_run_leaves_scipy_and_hashlib_out(scored):
    data, out = scored
    body = ("from veloscore.cli import main\n"
            "argv = sys.argv[1:]\ncut = argv.index('--')\n"
            "assert main(argv[:cut]) == 0\nassert main(argv[cut + 1:]) == 0")
    inputs = ["--edges", data / "edges.tsv", "--events", data / "events.ndjson", "--out", out]
    assert heavy_modules_after(body, "centrality", *inputs, "--",
                               "eval", *inputs, "--clicks", data / "clicks.tsv") == []
