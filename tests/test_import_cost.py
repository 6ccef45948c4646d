"""numpy stays out of `trend`; scipy and OpenSSL's hashlib stay out of every command.

`import veloscore` and `import veloscore.cli` load the standard library
alone: the package exports its names lazily, the parser's choices and
defaults live in `veloscore.core`, and each command imports the numpy
modules it runs.  So `trend`, which ranks two checkpoint rows, never loads
numpy (about 14.6 MB of the 31.4 MB a `trend` run peaked at while it did).
`veloscore.dynamics` loads every numpy module of the package, as the
benchmark's traced child wraps only the functions of the modules loaded
when it installs its tracer.
Importing scipy.special costs about half a second and 23 MB of RSS; `eval`'s
p-values come from a pure-Python incomplete beta instead, and scipy is only
a test oracle.  Importing hashlib loads OpenSSL (`_hashlib`), about 3.5 MB of
RSS; the BLAKE2b of the stream digest and the graph cache comes from the
built-in `_blake2` module instead.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import veloscore
from pipeline_helpers import child_env, run_pipeline
from veloscore.synth import SynthConfig, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LEAK_CHECK = """
import sys
{body}
print("heavy modules:", *sorted({{m.split(".")[0] for m in sys.modules
                                 if m.split(".")[0] in ("scipy", "numpy", "_hashlib")}}))
"""


def heavy_modules_after(body: str, *argv) -> set[str]:
    """Which of scipy, numpy and `_hashlib` are loaded after running ``body``."""
    proc = subprocess.run([sys.executable, "-c", LEAK_CHECK.format(body=body), *map(str, argv)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("heavy modules:")
    return set(last.split()[2:])


# the heavy modules each import may load: the package and the parser none
@pytest.mark.parametrize("module, allowed", [("veloscore", set()), ("veloscore.cli", set()),
                                             ("veloscore.evaluation", {"numpy"})],
                         ids=["veloscore", "veloscore.cli", "veloscore.evaluation"])
def test_import_leaves_scipy_out(module, allowed):  # and _hashlib, and numpy where not allowed
    assert heavy_modules_after(f"import {module}") <= allowed


def test_every_export_resolves_and_is_listed():
    listed = dir(veloscore)
    for name in veloscore.__all__:
        assert name in listed
        assert getattr(veloscore, name).__module__.startswith("veloscore."), name
    with pytest.raises(AttributeError, match="no_such_name"):
        veloscore.no_such_name  # noqa: B018


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A synth dataset with clicks, and the --out of a `score` run over it."""
    data = tmp_path_factory.mktemp("data")
    generate(SynthConfig(seed=5, users=30, hours=336, follows_per_user=4, url_count=40), data)
    return data, run_pipeline(data, data / "out", commands=("score",))


def test_trend_run_leaves_scipy_out(scored, tmp_path):  # and _hashlib and numpy
    """`python -X importtime -m veloscore.cli trend` lists every module the
    run imports on stderr; none of scipy, numpy and `_hashlib` is among them."""
    _, out = scored
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "veloscore.cli", "trend",
                           "--out", out, "--week", "1"],
                          env=child_env(), cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "veloscore.core" in imported
    assert [m for m in imported if m.split(".")[0] in ("scipy", "numpy", "_hashlib")] == []
    assert proc.stdout.endswith(" trending users for week 1\n")


def test_centrality_run_on_digest_leaves_scipy_and_hashlib_out(scored):
    data, out = scored
    # no parser to fall back on: the run must use score's stream digest and graph cache
    body = ("from veloscore import cli, ingest\n"
            "ingest.read_events_file = ingest.load_graph = None\n"
            "assert cli.main(sys.argv[1:]) == 0")
    assert heavy_modules_after(body, "centrality", "--edges", data / "edges.tsv",
                               "--events", data / "events.ndjson", "--out", out) <= {"numpy"}


def test_eval_run_leaves_scipy_and_hashlib_out(scored):
    data, out = scored
    body = ("from veloscore.cli import main\n"
            "argv = sys.argv[1:]\ncut = argv.index('--')\n"
            "assert main(argv[:cut]) == 0\nassert main(argv[cut + 1:]) == 0")
    inputs = ["--edges", data / "edges.tsv", "--events", data / "events.ndjson", "--out", out]
    assert heavy_modules_after(body, "centrality", *inputs, "--",
                               "eval", *inputs, "--clicks", data / "clicks.tsv") <= {"numpy"}


TRACED_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from veloscore import cli, dynamics  # what perfbench/traced_cli.py imports before install
from tracer import TARGETS, Tracer
Tracer().install()
for name, (module, path) in TARGETS.items():
    owner = sys.modules[module]
    for part in path.split("."):
        owner = getattr(owner, part)
    if not hasattr(owner, "__wrapped__"):
        print(name)
"""


def test_traced_child_wraps_every_target(tmp_path):
    """The benchmark's traced child wraps only the functions of the modules
    loaded when its tracer is installed; `veloscore.dynamics` loads them all,
    or the per-layer metrics of the rest vanish from `--trace 1` runs."""
    proc = subprocess.run([sys.executable, "-c", TRACED_CHILD, PERFBENCH],
                          env=child_env(PYTHONDONTWRITEBYTECODE="1"), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
