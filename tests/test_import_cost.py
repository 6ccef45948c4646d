"""numpy stays out of `score`, `trend` and `eval`; scipy and OpenSSL's hashlib stay out of every command.

`import veloscore` and `import veloscore.cli` load the standard library
alone: the package exports its names lazily, the parser's choices and
defaults live in `veloscore.core`, and each command imports the numpy
modules it runs.  So `trend`, which ranks two checkpoint rows, never loads
numpy (about 14.6 MB of the 31.4 MB a `trend` run peaked at while it did).
Nor does `score`: its force table, damping estimate and replay live in
`veloscore.core` and run in plain Python, and the follower graph is built
and held in `array`s.  Nor does `eval`, with or without a graph cache to
read: the score vectors hold plain floats, and the quartiles and
Pearson's r are computed in Python.  Only `centrality`, `synth` and the
streaming engine load numpy.
`veloscore.dynamics` loads every module the benchmark's traced child wraps,
as that child wraps only the functions of the modules loaded when it
installs its tracer.
Importing scipy.special costs about half a second and 23 MB of RSS; `eval`'s
p-values come from a pure-Python incomplete beta instead, and scipy is only
a test oracle.  Importing hashlib loads OpenSSL (`_hashlib`), about 3.5 MB of
RSS; the BLAKE2b of the stream digest and the graph cache comes from the
built-in `_blake2` module instead."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import veloscore
from pipeline_helpers import child_env, pipeline_argvs, run_pipeline
from test_bench_targets import TARGETS
from veloscore.cli import GRAPH_CACHE_FILE
from veloscore.synth import SynthConfig, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HEAVY = ("scipy", "numpy", "_hashlib")

LEAK_CHECK = """
import sys
{body}
print("heavy modules:", *sorted({{m.split(".")[0] for m in sys.modules
                                 if m.split(".")[0] in {heavy}}}))
"""


def heavy_modules_after(body: str, *argv) -> set[str]:
    """Which of scipy, numpy and `_hashlib` are loaded after running ``body``."""
    proc = subprocess.run([sys.executable, "-c", LEAK_CHECK.format(body=body, heavy=HEAVY),
                           *map(str, argv)],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("heavy modules:")
    return set(last.split()[2:])


def heavy_modules_run(argv, cwd) -> tuple[list[str], str]:
    """The heavy modules that `python -X importtime -m veloscore.cli *argv`
    imports, which it lists on stderr with every other module, and the
    run's stdout."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "veloscore.cli", *argv],
                          env=child_env(), cwd=cwd, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "veloscore.core" in imported
    return [m for m in imported if m.split(".")[0] in HEAVY], proc.stdout


@pytest.mark.parametrize("module", ["veloscore", "veloscore.cli", "veloscore.evaluation",
                                    "veloscore.ingest"])
def test_import_leaves_scipy_out(module):  # and _hashlib and numpy
    assert heavy_modules_after(f"import {module}") == set()


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


@pytest.fixture(scope="module")
def ranked(scored):
    """``scored``, with the `centrality` files `eval` reads in its --out."""
    data, out = scored
    return data, run_pipeline(data, out, commands=("centrality",))


def test_trend_run_leaves_scipy_out(scored, tmp_path):  # and _hashlib and numpy
    _, out = scored
    heavy, stdout = heavy_modules_run(["trend", "--out", out, "--week", "1"], tmp_path)
    assert heavy == []
    assert stdout.endswith(" trending users for week 1\n")


def test_centrality_run_on_digest_leaves_scipy_and_hashlib_out(scored):
    data, out = scored
    # no parser to fall back on: the run must use score's stream digest and graph cache
    body = ("from veloscore import cli, ingest\n"
            "ingest.read_events_file = ingest.load_graph = None\n"
            "assert cli.main(sys.argv[1:]) == 0")
    assert heavy_modules_after(body, "centrality", "--edges", data / "edges.tsv",
                               "--events", data / "events.ndjson", "--out", out) <= {"numpy"}


def test_eval_run_leaves_scipy_and_hashlib_out(ranked, tmp_path):  # and numpy
    data, out = ranked
    eval_argv = pipeline_argvs(data, out, commands=("eval",))[0]
    heavy, stdout = heavy_modules_run(eval_argv, tmp_path)
    assert heavy == []
    assert stdout.startswith("urls: ")


def test_score_into_a_fresh_out_loads_no_numpy(scored, tmp_path):  # nor scipy nor _hashlib
    """`score` parses the stream and the edge list, builds the follower
    graph, estimates the damping and replays the stream, all without numpy."""
    data, _ = scored
    score_argv = pipeline_argvs(data, tmp_path / "out", commands=("score",))[0]
    heavy, stdout = heavy_modules_run(score_argv, tmp_path)
    assert heavy == []
    assert stdout.startswith("tracked ")
    assert (tmp_path / "out" / "snapshots.tsv").is_file()


def test_eval_into_a_fresh_out_loads_no_numpy(ranked, tmp_path):  # nor scipy nor _hashlib
    """With no graph cache to read, `eval` parses the edge list and builds
    the follower graph in `array`s, and leaves a graph cache for the next run."""
    data, out = ranked
    fresh = shutil.copytree(out, tmp_path / "fresh")
    (fresh / GRAPH_CACHE_FILE).unlink()
    eval_argv = pipeline_argvs(data, fresh, commands=("eval",))[0]
    heavy, _ = heavy_modules_run(eval_argv, tmp_path)
    assert heavy == []
    assert (fresh / GRAPH_CACHE_FILE).is_file()


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


def test_traced_eval_reports_its_layers(ranked, tmp_path):
    """A traced `eval` child, run as the benchmark runs it, records a span for
    the score-file reader `centrality.ScoreVector.read_tsv`, which `eval`
    reaches through `veloscore.core`, and for every `evaluation` target: the
    per-layer metrics `centrality.read_tsv_s` and `evaluation.*_s` come
    from these spans."""
    data, out = ranked
    spans_path = tmp_path / "spans.json"
    argv = pipeline_argvs(data, out, commands=("eval",))[0]
    proc = subprocess.run([sys.executable, PERFBENCH / "traced_cli.py", spans_path, *argv],
                          env=child_env(PYTHONDONTWRITEBYTECODE="1"), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = {s["name"] for s in json.loads(spans_path.read_text(encoding="utf-8"))["spans"]}
    wanted = ["centrality.ScoreVector.read_tsv",
              *(name for name in TARGETS if name.startswith("evaluation."))]
    assert set(wanted) <= set(TARGETS) and len(wanted) > 1
    assert [name for name in wanted if name not in spans] == []
