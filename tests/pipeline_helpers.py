"""Run the `veloscore` commands in-process over a synth dataset and read
what they wrote, as a user of the command line would; and the datasets,
file lists and damage that the tests of those commands share."""

import hashlib
import json
import os
import shutil
from pathlib import Path

import veloscore
from veloscore.centrality import SCORERS
from veloscore.cli import (EXIT_OK, REPORT_TSV, REPORT_TXT, REPORT_WEEKLY, RUN_CONFIG_TEMPLATE,
                           SCORE_FILE_TEMPLATE, SNAPSHOT_FILE, main)
from veloscore.dynamics import load_snapshots
from veloscore.evaluation import CorrelationReport
from veloscore.synth import SynthConfig

SRC = Path(veloscore.__file__).resolve().parent.parent

# every file `centrality --algorithm all` writes, in the order it writes them
SCORE_FILES = tuple(SCORE_FILE_TEMPLATE.format(name)
                    for scorer in SCORERS.values() for name in scorer.outputs)

PIPELINE = ("score", "centrality", "eval")

# the command-line tests' dataset
CLI_DATA = SynthConfig(seed=21, users=60, hours=336, follows_per_user=6, url_count=50,
                       signal=1.0, base_mention_rate=0.1, base_click_prob=2.0)

# C8's dataset, on which the invariance tests also run the pipeline
DETERMINISM_DATA = SynthConfig(seed=88, users=200, hours=336, follows_per_user=8,
                               url_count=120, signal=1.0, base_mention_rate=0.05,
                               mention_follower_exponent=1.0, mention_rate_cap=2.0,
                               mutual_retweet_pairs=True, base_click_prob=2.0)

# damage to the stream digest or the graph cache, after which a command parses its input again
CACHE_DAMAGES = {
    "truncated": lambda b: b[:len(b) // 2],
    "no-trailer": lambda b: b[:b.rstrip(b"\n").rindex(b"\n") + 1],
    "garbage": lambda b: b"\xff\xfe not json \x00" * 50,
    "no-final-newline": lambda b: b[:-1],
    "empty": lambda b: b"",
    "header-only": lambda b: b.split(b"\n")[0] + b"\n",
}


def trailer(lines):
    """The last line `write_framed` writes after ``lines``: the BLAKE2b
    hash of every line before it."""
    return (json.dumps(["end", hashlib.blake2b(b"".join(lines)).hexdigest()]) + "\n").encode()


def run(*argv):
    """The exit code of `veloscore` run in-process on ``argv``, each made a string."""
    return main([str(a) for a in argv])


def pipeline_argvs(data_dir, out_dir, *score_flags, commands=PIPELINE):
    """The argument list of each of ``commands`` over the dataset in
    ``data_dir``, writing to ``out_dir``.

    ``score_flags`` go to `score`.  The dataset's `follower_counts.tsv`, if
    it has one, goes to every command as ``--counts``.
    """
    data = Path(data_dir)
    inputs = ["--events", data / "events.ndjson", "--edges", data / "edges.tsv"]
    if (data / "follower_counts.tsv").is_file():
        inputs += ["--counts", data / "follower_counts.tsv"]
    extra = {"score": score_flags, "eval": ("--clicks", data / "clicks.tsv")}
    return [[str(a) for a in (command, *inputs, "--out", out_dir, *extra.get(command, ()))]
            for command in commands]


def run_pipeline(data_dir, out_dir, *score_flags, commands=PIPELINE):
    """Run ``pipeline_argvs(...)`` in-process, asserting that each command
    exits 0; returns ``out_dir``."""
    for argv in pipeline_argvs(data_dir, out_dir, *score_flags, commands=commands):
        assert run(*argv) == EXIT_OK, argv
    return Path(out_dir)


def centrality_and_eval(data_dir, out_dir, capsys):
    """Run `centrality` then `eval` into ``out_dir``; returns their stdout,
    asserting that they wrote nothing to stderr."""
    capsys.readouterr()
    run_pipeline(data_dir, out_dir, commands=("centrality", "eval"))
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def scored_copy(out_dir, dest):
    """A new --out holding the `score` results in ``out_dir``, but neither
    the stream digest nor the graph cache."""
    dest.mkdir()
    for name in (SNAPSHOT_FILE, RUN_CONFIG_TEMPLATE.format("score")):
        shutil.copy(Path(out_dir) / name, dest / name)
    return dest


def command_outputs(out_dir):
    """The bytes of each file that `centrality` and `eval` write under ``out_dir``."""
    names = (*SCORE_FILES, REPORT_TSV, REPORT_TXT, REPORT_WEEKLY)
    return {name: (Path(out_dir) / name).read_bytes() for name in names}


def hash_dir(path, skip=()):
    """The SHA-256 of each file directly under ``path`` whose name is not in ``skip``."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(path).iterdir()) if p.is_file() and p.name not in skip}


def scored_history(data_dir, out_dir, *score_flags):
    """The checkpoints that `score` with ``score_flags`` wrote to `snapshots.tsv`."""
    return load_snapshots(run_pipeline(data_dir, out_dir, *score_flags,
                                       commands=("score",)) / SNAPSHOT_FILE)


def read_report(out_dir):
    """`report.tsv` under ``out_dir`` as {section: {score: row}}, each row
    holding the r, r², p and n that `eval` printed."""
    sections = {}
    lines = (Path(out_dir) / REPORT_TSV).read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        section, score, r, r2, p, n = line.split("\t")
        sections.setdefault(section, {})[score] = CorrelationReport(
            score, float(r), float(r2), int(n), float(p))
    return sections


def child_env(**extra):
    """``os.environ`` with ``extra`` set, for a child Python process that
    imports this tree's veloscore."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return {**os.environ, "PYTHONPATH": path, **extra}
