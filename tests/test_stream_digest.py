"""The stream digest `score` writes for `centrality` and `eval`.

`score` summarizes the event stream once into `stream_digest.ndjson`,
keyed to the events file's size and BLAKE2b hash.  `centrality` and
`eval` use it only when it is whole and matches their `--events`; in
every other case they parse the file, and their outputs are the same
either way.
"""

import json
import os
import shutil
from datetime import datetime, timedelta, timezone
from hashlib import blake2b

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pipeline_helpers import (CACHE_DAMAGES, CLI_DATA, centrality_and_eval, command_outputs, run,
                              scored_copy)
from veloscore import ingest
from veloscore.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, STREAM_DIGEST_FILE
from veloscore.ingest import Event, StreamDigest, file_fingerprint, read_events_file
from veloscore.synth import generate


# --- round trip --------------------------------------------------------

# text with the characters a JSON line could trip on: tab, newline, quote,
# backslash, U+2028 (a line break to some readers) and non-ASCII
awkward = st.text(st.sampled_from(["\t", "\n", '"', "\\", " ", "é", "漢", "🙂", "a", "/"])
                  | st.characters(), min_size=1, max_size=12)
offsets = st.builds(lambda s: timezone(timedelta(seconds=s)), st.integers(-86399, 86399))
instants = st.datetimes(min_value=datetime(1970, 1, 2), max_value=datetime(2100, 1, 1),
                        timezones=offsets)
handles = st.sampled_from(["alice", "bob", "carol", "u00001"]) | awkward
events = st.builds(
    lambda author, ts, rt, urls: Event("x", author, ts, [], rt, urls),
    handles, instants, st.none() | handles, st.lists(awkward, max_size=3))


@given(stream=st.lists(events, max_size=25))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_round_trip(tmp_path, stream):
    source = tmp_path / "events.ndjson"
    source.write_text("any content\n", encoding="utf-8")
    digest = StreamDigest()
    assert list(digest.tap(stream)) == stream
    path = tmp_path / STREAM_DIGEST_FILE
    digest.write(path, file_fingerprint(source))
    path.read_bytes().decode("ascii")  # one ASCII text file, whatever the strings hold
    assert StreamDigest.load(path, list(file_fingerprint(source))) == digest
    assert not list(tmp_path.glob("*.tmp"))


@given(stream=st.lists(events, max_size=25), batch=st.integers(1, 400))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_round_trip_in_any_batch_size(tmp_path, monkeypatch, stream, batch):
    """Batches that end inside a line, on its newline, or hold many lines."""
    monkeypatch.setattr(ingest, "_FRAME_BATCH", batch)
    source = tmp_path / "events.ndjson"
    source.write_text("any content\n", encoding="utf-8")
    digest = StreamDigest.of(stream)
    path = tmp_path / STREAM_DIGEST_FILE
    digest.write(path, file_fingerprint(source))
    assert StreamDigest.load(path, list(file_fingerprint(source))) == digest


T0 = datetime(2025, 1, 6, tzinfo=timezone.utc)
LONG_STREAM = [Event(str(i), f"u{i % 500}", T0 + timedelta(seconds=i), [],
                     f"u{i * 7 % 500}" if i % 3 else None, [f"http://example.com/{i}/" + "x" * 40])
               for i in range(12_000)]


def test_digest_spans_many_batches(tmp_path):
    source = tmp_path / "events.ndjson"
    source.write_text("any content\n", encoding="utf-8")
    digest = StreamDigest.of(LONG_STREAM)
    path = tmp_path / STREAM_DIGEST_FILE
    digest.write(path, file_fingerprint(source))
    assert path.stat().st_size > 3 * ingest._FRAME_BATCH
    assert StreamDigest.load(path, list(file_fingerprint(source))) == digest


def _trailer(lines):
    return (json.dumps(["end", blake2b(b"".join(lines)).hexdigest()]) + "\n").encode()


def _trailer_in_the_middle(lines):
    mid = len(lines) // 2
    return lines[:mid] + [_trailer(lines[:mid])] + lines[mid:]


def _two_rows_on_one_line(lines):
    return lines[:2] + [lines[2].rstrip(b"\n") + b", " + lines[3]] + lines[4:]


@pytest.mark.parametrize("batch", [1 << 18, 64])
@pytest.mark.parametrize("edit", [_trailer_in_the_middle, _two_rows_on_one_line])
def test_lines_that_are_not_one_row_are_rejected(tmp_path, monkeypatch, batch, edit):
    """Each line but the last holds one row, and the last is the only
    trailer, even when the trailer's hash holds."""
    monkeypatch.setattr(ingest, "_FRAME_BATCH", batch)
    source = tmp_path / "events.ndjson"
    source.write_text("any content\n", encoding="utf-8")
    path = tmp_path / STREAM_DIGEST_FILE
    digest = StreamDigest.of(LONG_STREAM[:40])
    digest.write(path, file_fingerprint(source))
    lines = path.read_bytes().splitlines(keepends=True)[:-1]
    path.write_bytes(b"".join(lines) + _trailer(lines))
    assert StreamDigest.load(path, list(file_fingerprint(source))) == digest
    lines = edit(lines)
    path.write_bytes(b"".join(lines) + _trailer(lines))
    assert StreamDigest.load(path, list(file_fingerprint(source))) is None


def test_tallies():
    t0 = datetime(2025, 1, 6, 1, 30, tzinfo=timezone.utc)
    stream = [Event("1", "a", t0, ["b"], "b", ["http://x/1", "http://x/2"]),
              Event("2", "a", t0 - timedelta(hours=3), ["b"], "b", []),
              Event("3", "b", t0, [], None, ["http://x/1"])]
    digest = StreamDigest.of(stream)
    assert digest.first_ts == t0
    assert digest.authored == {"a": 2, "b": 1}
    assert digest.retweets == {"a": {"b": 2}}
    assert digest.urls == [("http://x/1", "a", t0), ("http://x/2", "a", t0),
                           ("http://x/1", "b", t0)]
    assert StreamDigest.of(digest) is digest
    assert StreamDigest.of([]) == StreamDigest()


def test_fingerprint_is_size_and_blake2b(tmp_path):
    path = tmp_path / "f"
    path.write_bytes(b"abc" * 100_000)
    size, content_hash = file_fingerprint(path)
    assert size == 300_000
    assert content_hash == blake2b(b"abc" * 100_000).hexdigest()


# --- the CLI -----------------------------------------------------------

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A synth stream with late and pre-epoch events appended: `score`'s
    buckets drop them, `centrality` and `eval` count them."""
    data = tmp_path_factory.mktemp("data")
    generate(CLI_DATA, data)
    lines = (data / "events.ndjson").read_text(encoding="utf-8").splitlines()
    shared = [json.loads(ln) for ln in lines if "http" in ln or "RT @" in ln][:40]
    extra = []
    for i, rec in enumerate(shared):
        ts = "2025-01-05T20:00:00Z" if i % 2 else "2025-01-08T10:00:00Z"  # pre-epoch, late
        extra.append(json.dumps({**rec, "id": f"extra{i}", "ts": ts}))
    (data / "events.ndjson").write_text("\n".join(lines + extra) + "\n", encoding="utf-8")
    return data


@pytest.fixture
def parses(monkeypatch):
    """The events files `cli` parses, in order."""
    seen = []

    def counting(path, stats=None):
        seen.append(path)
        return read_events_file(path, stats)

    monkeypatch.setattr(ingest, "read_events_file", counting)
    return seen


def score(data, out, *extra):
    return run("score", "--events", data / "events.ndjson", "--edges", data / "edges.tsv",
               "--out", out, "--error-ceiling", 1, *extra)


def test_digest_and_parse_give_identical_outputs(dataset, tmp_path, parses, capsys):
    out = tmp_path / "out"
    assert score(dataset, out) == EXIT_OK
    assert "skipped 40/" in capsys.readouterr().out  # the late and pre-epoch events
    assert (out / STREAM_DIGEST_FILE).is_file()
    bypass = scored_copy(out, tmp_path / "bypass")
    assert len(parses) == 1
    with_digest = centrality_and_eval(dataset, out, capsys)
    assert len(parses) == 1
    parsed = centrality_and_eval(dataset, bypass, capsys)
    assert len(parses) == 3
    assert with_digest == parsed
    assert command_outputs(out) == command_outputs(bypass)


def test_parse_count(dataset, tmp_path, parses, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    out = tmp_path / "out"
    assert score(data, out) == EXIT_OK
    centrality_and_eval(data, out, capsys)
    assert len(parses) == 1
    with open(data / "events.ndjson", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "new", "ts": "2025-01-19T23:00:00Z", "author": "u00001",
                             "text": "RT @u00002: one more"}) + "\n")
    centrality_and_eval(data, out, capsys)
    assert len(parses) == 3


def test_same_size_edit_is_reparsed(dataset, tmp_path, parses, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    out = tmp_path / "out"
    assert score(data, out) == EXIT_OK
    events = data / "events.ndjson"
    before = events.stat()
    text = events.read_text(encoding="utf-8")
    at = text.index("RT @u000") + len("RT @u000")
    edited = text[:at] + ("1" if text[at] == "0" else "0") + text[at + 1:]
    events.write_text(edited, encoding="utf-8")
    os.utime(events, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert events.stat().st_size == before.st_size
    stale = centrality_and_eval(data, out, capsys)
    assert len(parses) == 3
    fresh_dir = scored_copy(out, tmp_path / "fresh")
    fresh = centrality_and_eval(data, fresh_dir, capsys)
    assert stale == fresh
    assert command_outputs(out) == command_outputs(fresh_dir)


def _one_digit_changed(b):
    at = b.index(b'"author", "') + 20  # past the first author's handle, before its count
    while not b[at:at + 1].isdigit():
        at += 1
    digit = b"2" if b[at:at + 1] == b"1" else b"1"
    return b[:at] + digit + b[at + 1:]


def _extra_after_trailer(b):
    return b + b'["author", "u00001", 1]\n'


DAMAGES = {**CACHE_DAMAGES, "one-digit": _one_digit_changed, "extra-line": _extra_after_trailer}


@pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES)
def test_broken_digest_is_reparsed(dataset, tmp_path, parses, capsys, damage):
    out = tmp_path / "out"
    assert score(dataset, out) == EXIT_OK
    reference = scored_copy(out, tmp_path / "reference")
    expected = centrality_and_eval(dataset, reference, capsys)
    digest = out / STREAM_DIGEST_FILE
    digest.write_bytes(damage(digest.read_bytes()))
    del parses[:]
    assert centrality_and_eval(dataset, out, capsys) == expected
    assert len(parses) == 2
    assert command_outputs(out) == command_outputs(reference)


def test_failed_score_leaves_no_new_digest(dataset, tmp_path):
    dirty = tmp_path / "dirty.ndjson"
    good = (dataset / "events.ndjson").read_text(encoding="utf-8").splitlines()
    dirty.write_text("\n".join(good[:50] + ["garbage"] * 10) + "\n", encoding="utf-8")

    def score_dirty(out):
        return run("score", "--events", dirty, "--edges", dataset / "edges.tsv", "--out", out)

    fresh = tmp_path / "fresh"
    assert score_dirty(fresh) == EXIT_DATA
    assert list(fresh.iterdir()) == []

    out = tmp_path / "out"
    assert score(dataset, out) == EXIT_OK
    kept = (out / STREAM_DIGEST_FILE).read_bytes()
    assert score_dirty(out) == EXIT_DATA
    assert (out / STREAM_DIGEST_FILE).read_bytes() == kept
    assert not list(out.glob("*.tmp"))


def test_stream_changed_while_read_leaves_no_digest(dataset, tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)

    def growing(path, stats=None):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        return read_events_file(path, stats)

    monkeypatch.setattr(ingest, "read_events_file", growing)
    out = tmp_path / "out"
    assert score(data, out) == EXIT_OK
    assert (out / "snapshots.tsv").is_file()
    assert not (out / STREAM_DIGEST_FILE).exists()


@pytest.mark.parametrize("bad", [
    ("--zeta", "brisk"), ("--zeta", "nan"), ("--zeta", "-1"), ("--default-mass", "0.5"),
    ("--zeta", "auto", "--default-mass", "nan"),
    # argparse does not hold config-file values to a flag's choices
    ("--config", "mass_mode = log"), ("--config", "force_source = likes"),
    # a later --edges wins over the one score() passes
    ("--edges", "missing.tsv"), ("--counts", "missing.tsv"),
], ids=["zeta-word", "zeta-nan", "zeta-negative", "light-default-mass", "nan-default-mass",
        "config-mass-mode", "config-force-source", "missing-edges", "missing-counts"])
def test_bad_flags_fail_before_the_parse(dataset, tmp_path, parses, capsys, bad):
    """`score` checks its flags and files before it reads the stream."""
    out = tmp_path / "out"
    if bad[0] == "--config":
        (tmp_path / "score.cfg").write_text(bad[1] + "\n", encoding="utf-8")
        bad = ("--config", tmp_path / "score.cfg")
    bad = [tmp_path / v if v == "missing.tsv" else v for v in bad]
    assert score(dataset, out, *bad) == EXIT_USAGE
    assert parses == []
    assert not (out / STREAM_DIGEST_FILE).exists()
    assert "error" in capsys.readouterr().err


def test_digest_is_byte_deterministic(dataset, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert score(dataset, a) == EXIT_OK
    assert score(dataset, b, "--zeta", "0.01", "--epoch", "2025-01-05T00:00:00Z") == EXIT_OK
    # the digest describes the stream alone, whatever score's flags
    assert (a / STREAM_DIGEST_FILE).read_bytes() == (b / STREAM_DIGEST_FILE).read_bytes()
