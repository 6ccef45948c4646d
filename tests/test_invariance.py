"""Metamorphic checks (Chen et al., ACM CSUR 2018): no oracle gives the
right outputs, but the pipeline must write the same ones whatever the order
of the edge list's lines, of the events within an hour, or the hash seed.
The benchmark's streaming child must read the velocities `score` writes.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pipeline_helpers import (DETERMINISM_DATA, PIPELINE, child_env, hash_dir, pipeline_argvs,
                              run_pipeline, scored_history)
from veloscore.cli import GRAPH_CACHE_FILE, RUN_CONFIG_TEMPLATE, STREAM_DIGEST_FILE
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
def reference(data, tmp_path_factory):
    return hash_dir(run_pipeline(data, tmp_path_factory.mktemp("reference")), INPUT_BOUND)


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
