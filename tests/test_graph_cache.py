"""The graph cache each command keeps beside the stream digest.

The first of `score`, `centrality` and `eval` to load the follower graph
into an --out writes `graph_cache.ndjson`, keyed to the byte size and
BLAKE2b hash of `--edges` and of `--counts` (or its absence).  A later
command uses it only when it is whole and matches its own inputs; in
every other case it parses the files again, and its outputs are the same
either way.
"""

import json
import os
import shutil
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pipeline_helpers import (CACHE_DAMAGES, CLI_DATA, centrality_and_eval, command_outputs,
                              pipeline_argvs, run, run_pipeline, scored_copy, trailer)
from veloscore import cli, ingest
from veloscore.cli import EXIT_OK, GRAPH_CACHE_FILE, REPORT_TSV, REPORT_TXT, REPORT_WEEKLY
from veloscore.ingest import (IngestStats, file_fingerprint, load_graph, read_graph_cache,
                              write_graph_cache)
from veloscore.synth import generate

GRAPH_COUNTS = ("bad_graph_lines", "self_loops_dropped", "duplicate_edges")
# the rows `eval` keeps: a URL's audience needs follower counts, not edges
EVAL_ROWS = ("users", "followers")


def graph_counts(stats):
    return tuple(getattr(stats, f) for f in GRAPH_COUNTS)


def key_of(edges, counts=None):
    return [*file_fingerprint(edges), *(file_fingerprint(counts) if counts else (None, None))]


def assert_same_graph(got, want):
    assert got.users == want.users
    assert got.edge_keys.typecode == got.follower_count.typecode == "q"
    assert got.edge_keys == want.edge_keys
    assert got.follower_count == want.follower_count
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
    part, part_stats = read_graph_cache(cache, key, EVAL_ROWS)
    assert (part.users, part.follower_count, part.edge_keys) == \
        (graph.users, graph.follower_count, array("q"))
    assert part_stats == stats
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
    """A cached read returns the graph counts of the parse that made it."""
    edges = tmp_path / "edges.tsv"
    edges.write_text("# comment\nb\ta\nb\ta\nB\t@a\na\ta\nnot a pair\nc\tc\nb\tc\tz\n"
                     "c\tb\n", encoding="utf-8")
    counts = tmp_path / "counts.tsv"
    counts.write_text("zed\t4\nbad\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    first, parsed = cli._graph(edges, counts, out)
    second, cached = cli._graph(edges, counts, out)
    assert len(parses) == 1
    assert graph_counts(parsed) == (3, 2, 2)
    assert cached == parsed
    assert_same_graph(second, first)


# --- damage the full read and the follower-only read both reject --------

def _rehashed(damage):
    """``damage`` applied to a cache's lines but its trailer, and the
    trailer's hash remade, so only the rows' own checks can catch it."""
    def damaged(b):
        lines = damage(b.splitlines(keepends=True)[:-1])
        return b"".join(lines) + trailer(lines)
    return damaged


def _edited_row(tag, k, edit):
    """A damage that passes the ``k``-th row tagged ``tag`` through ``edit``."""
    def damage(lines):
        at = [i for i, line in enumerate(lines) if line.startswith(b'["%s"' % tag.encode())][k]
        lines[at] = (json.dumps(edit(json.loads(lines[at]))) + "\n").encode()
        return lines
    return damage


def _keys_edited(edit):
    """A row edit that passes an ``edges`` row's keys, as a list, through ``edit``."""
    def row_edit(row):
        keys = list(ingest._unpacked(row[1]))
        edit(keys)
        return ["edges", ingest._packed(array("q", keys))]
    return row_edit


def _swap_first_two(keys):
    keys[0], keys[1] = keys[1], keys[0]


FOLLOWER_READ_DAMAGES = {
    "bad-base64": _rehashed(_edited_row("edges", 0, lambda row: ["edges", "!" + row[1][1:]])),
    "short-edge-count": _rehashed(_edited_row("graph", 0, lambda row: [*row[:2], row[2] + 1,
                                                                      *row[3:]])),
    "out-of-order": _rehashed(_edited_row("edges", 0, _keys_edited(_swap_first_two))),
    "unknown-tag": _rehashed(_edited_row("edges", 0, lambda row: ["edgez", *row[1:]])),
}


def _across_rows(lines):
    """The first key of the second ``edges`` row made the last key of the
    first, so each row still increases on its own."""
    edges = [i for i, line in enumerate(lines) if line.startswith(b'["edges"')]
    last = ingest._unpacked(json.loads(lines[edges[0]])[1])[-1]

    def edit(keys):
        keys[0] = last
    return _edited_row("edges", 1, _keys_edited(edit))(lines)


def _past_the_range(lines):
    n = json.loads(lines[1])[1]

    def edit(keys):
        keys[-1] = n * n
    return _edited_row("edges", -1, _keys_edited(edit))(lines)


ROW_DAMAGES = {**FOLLOWER_READ_DAMAGES, "order-across-rows": _rehashed(_across_rows),
               "key-past-the-range": _rehashed(_past_the_range)}


@pytest.mark.parametrize("rows", [ingest.GRAPH_ROWS, EVAL_ROWS])
@pytest.mark.parametrize("damage", ROW_DAMAGES.values(), ids=ROW_DAMAGES)
def test_every_read_checks_the_edges(tmp_path, monkeypatch, rows, damage):
    """The edge keys' count, range and order, across row boundaries too,
    are checked whether or not the read keeps them."""
    monkeypatch.setattr(ingest, "_GRAPH_ROW", 8)
    edges = tmp_path / "edges.tsv"
    edges.write_text("".join(f"u{a}\tu{(a * 7 + b) % 30}\n" for a in range(30) for b in (1, 2, 3)),
                     encoding="ascii")
    stats = IngestStats()
    graph = load_graph(edges, None, stats)
    cache = tmp_path / GRAPH_CACHE_FILE
    write_graph_cache(cache, graph, stats, key_of(edges))
    assert read_graph_cache(cache, key_of(edges), rows)[0].follower_count == graph.follower_count
    cache.write_bytes(damage(cache.read_bytes()))
    assert read_graph_cache(cache, key_of(edges), rows) is None


def test_follower_read_memory_bounded(tmp_path):
    """`eval`'s graph read checks a 258k-edge cache's keys a row at a time
    and keeps none.  Keeping them, the read peaked at 2.9 MiB under
    tracemalloc; without them, 1.0 MiB."""
    rng = np.random.default_rng(0)
    users, per_user = 5000, 52
    src = np.repeat(np.arange(users), per_user)
    dst = rng.integers(0, users, src.size)
    edges = tmp_path / "edges.tsv"
    with open(edges, "w", encoding="utf-8") as fh:
        fh.writelines(f"u{a}\tu{b}\n" for a, b in zip(src.tolist(), dst.tolist()))
    out = tmp_path / "out"
    out.mkdir()
    graph, _ = cli._graph(edges, None, out)  # parses and caches
    assert graph.edge_count > 250_000
    tracemalloc.start()
    try:
        followers = cli._graph(edges, None, out, EVAL_ROWS)[0].follower_map()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert followers == graph.follower_map()
    assert peak < 1.5 * 2 ** 20


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


@pytest.mark.parametrize("damage", FOLLOWER_READ_DAMAGES.values(), ids=FOLLOWER_READ_DAMAGES)
def test_eval_follower_read_misses_damaged_edges(dataset, tmp_path, monkeypatch, parses, capsys,
                                                damage):
    """`eval` keeps no edge key, yet each damage to the edges that the full
    read rejects sends it back to `--edges`, and it prints and writes what
    a clean run does."""
    out = run_pipeline(dataset, tmp_path / "out")
    (eval_argv,) = pipeline_argvs(dataset, out, commands=("eval",))
    reports = (REPORT_TSV, REPORT_TXT, REPORT_WEEKLY)
    kept = []

    def recording(path, key, rows=ingest.GRAPH_ROWS):
        kept.append(rows)
        return read_graph_cache(path, key, rows)

    monkeypatch.setattr(ingest, "read_graph_cache", recording)
    capsys.readouterr()
    assert run(*eval_argv) == EXIT_OK
    assert kept == [EVAL_ROWS]
    clean = capsys.readouterr().out
    written = {name: (out / name).read_bytes() for name in reports}
    cache = out / GRAPH_CACHE_FILE
    whole = cache.read_bytes()
    assert read_graph_cache(cache, key_of(dataset / "edges.tsv"), EVAL_ROWS) is not None
    cache.write_bytes(damage(whole))
    assert read_graph_cache(cache, key_of(dataset / "edges.tsv")) is None
    del parses[:]
    assert run(*eval_argv) == EXIT_OK
    assert capsys.readouterr().out == clean
    assert len(parses) == 1
    assert {name: (out / name).read_bytes() for name in reports} == written
    assert cache.read_bytes() == whole
