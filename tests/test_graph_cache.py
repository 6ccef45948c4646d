"""The graph cache each command keeps beside the stream digest.

The first of `score`, `centrality` and `eval` to load the follower graph
into an --out writes `graph_cache.ndjson`, keyed to the byte size and
BLAKE2b hash of `--edges` and of `--counts` (or its absence).  A later
command uses it only when it is whole and matches its own inputs; in
every other case it parses the files again, and its outputs are the same
either way.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pipeline_helpers import (CACHE_DAMAGES, CLI_DATA, centrality_and_eval, command_outputs, run,
                              run_pipeline, scored_copy)
from veloscore import cli, ingest
from veloscore.cli import EXIT_OK, GRAPH_CACHE_FILE
from veloscore.ingest import (IngestStats, file_fingerprint, load_graph, read_graph_cache,
                              write_graph_cache)
from veloscore.synth import generate

GRAPH_COUNTS = ("bad_graph_lines", "self_loops_dropped", "duplicate_edges")


def graph_counts(stats):
    return tuple(getattr(stats, f) for f in GRAPH_COUNTS)


def key_of(edges, counts=None):
    return [*file_fingerprint(edges), *(file_fingerprint(counts) if counts else (None, None))]


def assert_same_graph(got, want):
    assert got.users == want.users
    assert got.edges.dtype == np.int64 and got.edges.flags.f_contiguous
    assert np.array_equal(got.edges, want.edges) and got.edges.shape == want.edges.shape
    assert got.follower_count.dtype == np.int64
    assert np.array_equal(got.follower_count, want.follower_count)
    assert all(got.index(u) == i for i, u in enumerate(got.users))


# --- round trip --------------------------------------------------------

# handles that normalize to the same user, and lines load_graph counts
# as bad: a bad handle, too many or too few fields
NAMES = ["a", "A", "@a", "b", "c_1", "x" * 15]
BAD_EDGES = ["not a handle!\tb", "a\tb\tc", "lonely", "x" * 16 + "\ta"]
edge_lines = (st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES)).map("\t".join)
              | st.sampled_from(BAD_EDGES))
count_lines = (st.tuples(st.sampled_from(NAMES + ["zed", "only_here"]),
                         st.integers(0, 10 ** 12)).map(lambda t: f"{t[0]}\t{t[1]}")
               | st.sampled_from(["zed\t-1", "zed\tmany", "zed"]))


@given(edges=st.lists(edge_lines, max_size=40),
       counts=st.none() | st.lists(count_lines, max_size=8))
@example(edges=[], counts=None)                  # no users at all
@example(edges=["a\ta", "b\tb"], counts=["zed\t7"])  # override-only users, no edges
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_round_trip(tmp_path, edges, counts):
    edges_path = tmp_path / "edges.tsv"
    edges_path.write_text("".join(f"{ln}\n" for ln in edges), encoding="utf-8")
    counts_path = None
    if counts is not None:
        counts_path = tmp_path / "counts.tsv"
        counts_path.write_text("".join(f"{ln}\n" for ln in counts), encoding="utf-8")
    stats = IngestStats()
    graph = load_graph(edges_path, counts_path, stats)
    cache = tmp_path / GRAPH_CACHE_FILE
    key = key_of(edges_path, counts_path)
    write_graph_cache(cache, graph, stats, key)
    cache.read_bytes().decode("ascii")
    got, got_stats = read_graph_cache(cache, key)
    assert_same_graph(got, graph)
    assert got_stats == stats
    assert not list(tmp_path.glob("*.tmp"))
    assert read_graph_cache(cache, key[:2] + ["0", "0"]) is None


def test_rows_span_many_batches(tmp_path):
    """A graph whose rows are split over several reads and several rows per tag."""
    edges = tmp_path / "edges.tsv"
    rng = np.random.default_rng(3)
    pairs = rng.integers(0, 9000, size=(40_000, 2))
    edges.write_text("".join(f"u{a}\tu{b}\n" for a, b in pairs), encoding="ascii")
    stats = IngestStats()
    graph = load_graph(edges, None, stats)
    cache = tmp_path / GRAPH_CACHE_FILE
    write_graph_cache(cache, graph, stats, key_of(edges))
    assert cache.stat().st_size > 2 * ingest._FRAME_BATCH
    got, got_stats = read_graph_cache(cache, key_of(edges))
    assert_same_graph(got, graph)
    assert got_stats == stats


def test_cached_read_adds_the_parse_counts(tmp_path, parses):
    """A cached read adds to IngestStats what the parse that made it added."""
    edges = tmp_path / "edges.tsv"
    edges.write_text("# comment\nb\ta\nb\ta\nB\t@a\na\ta\nnot a pair\nc\tc\nb\tc\tz\n"
                     "c\tb\n", encoding="utf-8")
    counts = tmp_path / "counts.tsv"
    counts.write_text("zed\t4\nbad\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    parsed, cached = IngestStats(records=5), IngestStats(records=5)
    first = cli._graph(edges, counts, out, parsed)
    second = cli._graph(edges, counts, out, cached)
    assert len(parses) == 1
    assert graph_counts(parsed) == (3, 2, 2)
    assert cached == parsed
    assert_same_graph(second, first)


# --- the CLI -----------------------------------------------------------

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    generate(CLI_DATA, data)
    with open(data / "edges.tsv", "a", encoding="utf-8") as fh:
        fh.write("u00001\tu00001\nu00001\tu00002\nnot a handle!\tu00003\n")
    return data


@pytest.fixture
def parses(monkeypatch):
    """The edge lists `cli` parses, in order."""
    seen = []

    def counting(path, counts_path=None, stats=None):
        seen.append(path)
        return load_graph(path, counts_path, stats)

    monkeypatch.setattr(ingest, "load_graph", counting)
    return seen


def score(data, out):
    return run_pipeline(data, out, commands=("score",))


def test_one_parse_per_pipeline(dataset, tmp_path, parses, capsys):
    out = tmp_path / "out"
    score(dataset, out)
    assert (out / GRAPH_CACHE_FILE).is_file()
    cached = centrality_and_eval(dataset, out, capsys)
    assert len(parses) == 1
    fresh = scored_copy(out, tmp_path / "fresh")
    assert centrality_and_eval(dataset, fresh, capsys) == cached
    assert len(parses) == 2  # centrality parses and caches; eval reads its cache
    assert command_outputs(fresh) == command_outputs(out)


def test_cache_is_byte_deterministic(dataset, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    score(dataset, a)
    assert run("centrality", "--edges", dataset / "edges.tsv", "--algorithm", "pagerank",
               "--out", b) == EXIT_OK
    assert (a / GRAPH_CACHE_FILE).read_bytes() == (b / GRAPH_CACHE_FILE).read_bytes()


def _one_digit_changed(b):
    at = b.index(b'["edges", ') + len(b'["edges", ')
    digit = b"2" if b[at:at + 1] == b"1" else b"1"
    return b[:at] + digit + b[at + 1:]


def _extra_after_trailer(b):
    return b + b'["followers", 1]\n'


DAMAGES = {**CACHE_DAMAGES, "one-digit": _one_digit_changed, "extra-line": _extra_after_trailer}


@pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES)
def test_broken_cache_is_reparsed(dataset, tmp_path, parses, capsys, damage):
    out = tmp_path / "out"
    score(dataset, out)
    reference = scored_copy(out, tmp_path / "reference")
    expected = centrality_and_eval(dataset, reference, capsys)
    cache = out / GRAPH_CACHE_FILE
    whole = cache.read_bytes()
    cache.write_bytes(damage(whole))
    del parses[:]
    assert centrality_and_eval(dataset, out, capsys) == expected
    assert len(parses) == 1  # centrality parses and writes it anew
    assert cache.read_bytes() == whole
    assert command_outputs(out) == command_outputs(reference)


def _stale_run(data, out, fresh, capsys, parses):
    """`centrality` and `eval` on ``out`` after ``data`` changed: one parse,
    and the outputs of the new --out ``fresh``."""
    del parses[:]
    stale = centrality_and_eval(data, out, capsys)
    assert len(parses) == 1
    fresh_dir = scored_copy(out, fresh)
    assert centrality_and_eval(data, fresh_dir, capsys) == stale
    assert command_outputs(out) == command_outputs(fresh_dir)


def test_same_size_edit_is_reparsed(dataset, tmp_path, parses, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    out = tmp_path / "out"
    score(data, out)
    edges = data / "edges.tsv"
    before = edges.stat()
    text = edges.read_text(encoding="utf-8")
    at = text.index("\tu000") + len("\tu000")
    edges.write_text(text[:at] + ("1" if text[at] == "0" else "0") + text[at + 1:],
                     encoding="utf-8")
    os.utime(edges, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert edges.stat().st_size == before.st_size
    _stale_run(data, out, tmp_path / "fresh", capsys, parses)


def test_counts_are_part_of_the_key(dataset, tmp_path, parses, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    out = tmp_path / "out"
    score(data, out)
    counts = data / "follower_counts.tsv"  # passed as --counts while it exists
    counts.write_text("u00003\t500\nnewcomer\t9\n", encoding="utf-8")
    _stale_run(data, out, tmp_path / "added", capsys, parses)
    counts.write_text("u00003\t501\nnewcomer\t9\n", encoding="utf-8")
    _stale_run(data, out, tmp_path / "changed", capsys, parses)
    counts.unlink()
    _stale_run(data, out, tmp_path / "removed", capsys, parses)


def test_edges_changed_while_read_leaves_no_cache(dataset, tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)

    def growing(path, counts_path=None, stats=None):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        return load_graph(path, counts_path, stats)

    monkeypatch.setattr(ingest, "load_graph", growing)
    out = tmp_path / "out"
    score(data, out)
    assert (out / "snapshots.tsv").is_file()
    assert not (out / GRAPH_CACHE_FILE).exists()
    assert not list(out.glob("*.tmp"))
