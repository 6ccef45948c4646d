"""Bytes that are not UTF-8: a counted skip in streams and graphs, a named
data error in the tables a command reads whole."""

import shutil

import pytest

from pipeline_helpers import run, run_pipeline
from veloscore.cli import EXIT_DATA, EXIT_OK
from veloscore.core import ScoreVector, load_snapshots, table_rows
from veloscore.evaluation import read_clicks
from veloscore.ingest import DataFileError, IngestStats, load_graph, read_events_file
from veloscore.synth import SynthConfig, generate

BAD_EVENTS = [
    b"\xff\n",
    b'{"id": "x", "ts": "2025-01-06T00:30:00Z", "author": "u00001", '
    b'"text": "caf\xe9 @u00002 http://sho.rt/bad"}\n',
    b'{"id": "y\xc3", "ts": "2025-01-06T00:30:00Z", "author": "u00001", "mentions": []}\n',
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    generate(SynthConfig(seed=23, users=50, hours=336, follows_per_user=6, url_count=40,
                         signal=1.0, base_mention_rate=0.1, base_click_prob=2.0), data)
    dirty = shutil.copytree(data, data / "dirty")  # the same dataset but for BAD_EVENTS
    lines = (data / "events.ndjson").read_bytes().splitlines(keepends=True)
    (dirty / "events.ndjson").write_bytes(b"".join(lines[:30] + BAD_EVENTS + lines[30:]))
    return data


def pipeline(data, out):
    """score, centrality and eval over ``data``; each must exit 0."""
    run_pipeline(data, out, "--error-ceiling", "0.5", commands=("score",))
    (out / "stream_digest.ndjson").unlink()  # centrality and eval parse the stream again
    run_pipeline(data, out, commands=("centrality", "eval"))


def test_event_lines_counted_and_skipped(dataset):
    stats = IngestStats()
    clean = list(read_events_file(dataset / "events.ndjson"))
    events = list(read_events_file(dataset / "dirty" / "events.ndjson", stats))
    assert stats.parse_errors == len(BAD_EVENTS)
    assert stats.records == len(clean) + len(BAD_EVENTS)
    assert events == clean


def test_score_centrality_and_eval_skip_them(dataset, tmp_path, capsys):
    pipeline(dataset, tmp_path / "clean")
    capsys.readouterr()
    pipeline(dataset / "dirty", tmp_path / "dirty")
    assert f"skipped {len(BAD_EVENTS)}/" in capsys.readouterr().out
    for name in ("snapshots.tsv", "ip_influence.tsv", "report.tsv", "report_weekly.tsv"):
        assert (tmp_path / "dirty" / name).read_bytes() == \
            (tmp_path / "clean" / name).read_bytes(), name


def test_graph_lines_counted(dataset, tmp_path):
    edges = tmp_path / "edges.tsv"
    edges.write_bytes((dataset / "edges.tsv").read_bytes()
                      + b"u00001\tu0\xff002\n\xfe\xff\n")
    counts = tmp_path / "counts.tsv"
    counts.write_bytes(b"u00001\t12\nu00002\t1\xff3\nu\xe900003\t4\n")
    stats = IngestStats()
    graph = load_graph(edges, counts, stats)
    assert stats.bad_graph_lines == 4
    clean = load_graph(dataset / "edges.tsv")
    assert graph.users == clean.users
    assert graph.edge_keys == clean.edge_keys
    assert graph.followers_of("u00001") == 12
    assert run("score", "--events", dataset / "events.ndjson", "--edges", edges,
               "--counts", counts, "--out", tmp_path / "out") == EXIT_OK


@pytest.mark.parametrize("name", ["clicks.tsv", "snapshots.tsv", "pagerank.tsv", "config"])
def test_tables_name_the_line(dataset, tmp_path, capsys, name):
    out = tmp_path / "out"
    pipeline(dataset, out)
    clicks = tmp_path / "clicks.tsv"
    clicks.write_bytes((dataset / "clicks.tsv").read_bytes())
    config = tmp_path / "run.cfg"
    config.write_bytes(b"iqr-k = 1.5\n")
    target = {"clicks.tsv": clicks, "config": config}.get(name, out / name)
    lines = target.read_bytes().splitlines(keepends=True)
    lines.insert(1, b"caf\xe9\t1\n")
    target.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run("eval", "--events", dataset / "events.ndjson", "--edges", dataset / "edges.tsv",
               "--clicks", clicks, "--out", out, "--config", config) == EXIT_DATA
    assert f"{target}:2: not valid UTF-8" in capsys.readouterr().err
    if name == "snapshots.tsv":
        assert run("trend", "--out", out, "--week", "0") == EXIT_DATA
        assert f"{target}:2: not valid UTF-8" in capsys.readouterr().err


def test_table_line_named_past_the_decoders_read_ahead(tmp_path):
    path = tmp_path / "table.tsv"
    path.write_bytes(b"a\t1\n" * 5000 + b"caf\xe9\t1\n" + b"b\t2\n" * 10)
    with pytest.raises(DataFileError, match=r":5001: not valid UTF-8"):
        for _ in table_rows(path, str.split):
            pass


FIRST_BAD_LINE = {
    "clicks.tsv": (read_clicks, b"a\t1\n", b"b\tnot-a-number\n", b"e\xff\t5\n"),
    "pagerank.tsv": (ScoreVector.read_tsv, b"a\t0.5\n", b"b\tnot-a-number\n", b"e\xff\t5\n"),
    "snapshots.tsv": (load_snapshots, b"0\ta\t1.0\t0.0\n", b"0\tb\tnot-a-number\t0.0\n",
                      b"0\te\xff\t1.0\t0.0\n"),
}


@pytest.mark.parametrize("name", FIRST_BAD_LINE)
def test_table_names_its_first_bad_line(tmp_path, name):
    """A parse error on line 2 is named, though line 5 holds bytes that are
    not UTF-8 and the decoder reads the whole small file at once."""
    read, good, unparsable, undecodable = FIRST_BAD_LINE[name]
    path = tmp_path / name
    path.write_bytes(good + unparsable + good.replace(b"a", b"c") + good.replace(b"a", b"d")
                     + undecodable)
    assert path.stat().st_size < 8192
    with pytest.raises(DataFileError, match=rf"{name}:2: "):
        read(path)


def test_undecodable_comment_line_is_a_data_error(dataset, tmp_path, capsys):
    out = tmp_path / "out"
    pipeline(dataset, out)
    clicks = tmp_path / "clicks.tsv"
    clicks.write_bytes(b"# caf\xe9\n" + (dataset / "clicks.tsv").read_bytes())
    capsys.readouterr()
    assert run("eval", "--events", dataset / "events.ndjson", "--edges", dataset / "edges.tsv",
               "--clicks", clicks, "--out", out) == EXIT_DATA
    assert f"{clicks}:1: not valid UTF-8" in capsys.readouterr().err
