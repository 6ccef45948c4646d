"""Metamorphic checks (Chen et al., ACM CSUR 2018): no oracle gives the
right outputs, but the pipeline must write the same ones whatever the order
of the edge list's lines, of the events within an hour, or the hash seed,
and the same ones up to the names whatever the users' handles are.
The benchmark's streaming child must read the velocities `score` writes.
"""

import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pipeline_helpers import (DETERMINISM_DATA, PIPELINE, SCORE_FILES, child_env, hash_dir,
                              pipeline_argvs, run, run_pipeline, scored_history)
from veloscore.cli import (EXIT_OK, GRAPH_CACHE_FILE, REPORT_TSV, REPORT_TXT, REPORT_WEEKLY,
                           RUN_CONFIG_TEMPLATE, SNAPSHOT_FILE, STREAM_DIGEST_FILE, TRENDING_FILE)
from veloscore.dynamics import week_end_hour
from veloscore.synth import generate

STREAM_PASS = Path(__file__).resolve().parent.parent / "perfbench" / "stream_pass.py"
# keyed to the input bytes, or holding the input paths
INPUT_BOUND = (STREAM_DIGEST_FILE, GRAPH_CACHE_FILE,
               *(RUN_CONFIG_TEMPLATE.format(command) for command in PIPELINE))


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    generate(DETERMINISM_DATA, path)
    return path


def shuffled(lines):
    lines = list(lines)
    random.Random(0).shuffle(lines)
    return lines


def shuffled_within_hours(lines):
    hours = itertools.groupby(lines, lambda line: json.loads(line)["ts"][:13])
    return [line for _, group in hours for line in shuffled(group)]


@pytest.fixture(scope="module")
def reference_out(data, tmp_path_factory):
    return run_pipeline(data, tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def reference(reference_out):
    return hash_dir(reference_out, INPUT_BOUND)


@pytest.mark.parametrize("name, reorder", [
    ("edges.tsv", shuffled),
    ("events.ndjson", shuffled_within_hours),
], ids=["edge-lines-shuffled", "events-shuffled-within-hours"])
def test_outputs_ignore_input_order(data, reference, tmp_path, name, reorder):
    copy = shutil.copytree(data, tmp_path / "data")
    lines = (data / name).read_text(encoding="utf-8").splitlines(keepends=True)
    (copy / name).write_text("".join(reorder(lines)), encoding="utf-8")
    assert (copy / name).read_bytes() != (data / name).read_bytes()
    got = hash_dir(run_pipeline(copy, tmp_path / "out"), INPUT_BOUND)
    assert len(got) >= 10
    assert got == reference


def renamed(text):
    """``text`` with every handle uNNNNN renamed v{99999 - NNNNN}, which
    reverses the handles' sort order."""
    return re.sub(r"\bu(\d{5})\b", lambda m: f"v{99999 - int(m[1]):05d}", text)


def original_name(handle):
    """The handle that ``renamed`` turned into ``handle``."""
    return f"u{99999 - int(handle[1:]):05d}" if handle.startswith("v") else handle


def named_back(path, user_column):
    """The tab-separated rows of ``path``, each handle in ``user_column``
    given its original name, sorted."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        row[user_column] = original_name(row[user_column])
    return sorted(rows)


def trending_groups(path):
    """`trending.tsv`'s rows as one (acceleration, users with their relative
    increase) group per run of equal accelerations: the order within a run
    is the user-id tie-break, which a renaming reverses."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    return [(a, sorted((original_name(u), r) for _, u, _, r in group))
            for a, group in itertools.groupby(rows, key=lambda row: row[2])]


def test_outputs_ignore_handle_names(data, reference_out, tmp_path):
    copy = shutil.copytree(data, tmp_path / "data")
    for name in ("events.ndjson", "edges.tsv"):
        (copy / name).write_text(renamed((data / name).read_text(encoding="utf-8")),
                                 encoding="utf-8")
    assert "u00001" not in (copy / "edges.tsv").read_text(encoding="utf-8")
    original = shutil.copytree(reference_out, tmp_path / "original")
    outs = (original, run_pipeline(copy, tmp_path / "renamed"))
    trending = {out: [] for out in outs}
    for out in outs:
        for week in (0, 1):
            assert run("trend", "--out", out, "--week", week, "--top-k", 10**6) == EXIT_OK
            trending[out].append(trending_groups(out / TRENDING_FILE))
    renamed_out = outs[1]
    for name in (REPORT_TSV, REPORT_WEEKLY, REPORT_TXT):
        assert (renamed_out / name).read_bytes() == (original / name).read_bytes(), name
    for name, user_column in ((SNAPSHOT_FILE, 1), ("velocity_final.tsv", 0),
                              *((score, 0) for score in SCORE_FILES)):
        got = named_back(renamed_out / name, user_column)
        assert len(got) > 10 and got == named_back(original / name, user_column), name
    assert all(trending[original])
    assert trending[renamed_out] == trending[original]


def test_outputs_and_stdout_ignore_hash_seed(data, reference, tmp_path):
    runs = {}
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        stdout = []
        for argv in pipeline_argvs(data, out):
            proc = subprocess.run([sys.executable, "-m", "veloscore.cli", *argv],
                                  env=child_env(PYTHONHASHSEED=seed), cwd=tmp_path,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        runs[seed] = hash_dir(out, INPUT_BOUND), stdout
    assert runs["1"] == runs["2"]
    assert runs["1"][0] == reference


def test_stream_pass_velocities_equal_score_snapshots(data, tmp_path):
    """The benchmark's streaming child, `perfbench/stream_pass.py`, reads the
    engine's velocity at every week end; they equal what `score` wrote."""
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(STREAM_PASS), str(data / "events.ndjson"),
         str(data / "edges.tsv"), "0.01", str(result)],
        input="pass\n", env=child_env(PYTHONDONTWRITEBYTECODE="1"), cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    velocity = json.loads(result.read_text(encoding="utf-8"))["velocity"]
    history = scored_history(data, tmp_path / "out", "--zeta", "0.01")
    assert sorted(velocity) == ["0", "1"]
    for week, row in velocity.items():
        assert row == history.row(week_end_hour(int(week)))
