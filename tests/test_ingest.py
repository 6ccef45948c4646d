"""Stream parsing, hour bucketing, and graph loading."""

import json
import random
import subprocess
import sys
from array import array
from unittest import mock
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dense_oracles import graph_from_edges
from pipeline_helpers import child_env
from veloscore import ingest
from veloscore.centrality import _followees, _offsets, build_retweet_graph
from veloscore.ingest import (
    EventDecoder,
    IngestStats,
    ParseError,
    StreamDigest,
    UserGraph,
    bucketize,
    load_graph,
    normalize_handle,
    read_events,
)

EPOCH = datetime(2025, 1, 6, 0, 0, 0, tzinfo=timezone.utc)

# peak RSS growth, in MB, of one load_graph call in a fresh process; numpy,
# which load_graph imports for its edge dedupe, is loaded before the count
RSS_GROWTH = """
import sys
import numpy
from veloscore.ingest import load_graph

def status_mb(key):
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(key):
                return int(line.split()[1]) / 1024

before = status_mb("VmRSS:")
graph = load_graph(sys.argv[1])
print(graph.edge_count, status_mb("VmHWM:") - before)
"""

# raw graph fields: handles with '@', case and padding variants that normalize
# to the same user, bad handles, an empty field and bytes that are not UTF-8
GRAPH_FIELDS = [b"a", b"A", b"@a", b"@A", b" a", b"a ", b"b", b"B", b"@b", b"c",
                b"e_1", b"x" * 15, b"x" * 16, b"not a handle!", b"", b"@", b"#c",
                b"\xc3\xa9", b"a\xff", b"\xe2\x82", b"\x80"]


# one line of an edge list: indent; fields, or a blank, whitespace-only or
# comment line; trailing whitespace; and an LF, CRLF or lone CR
GRAPH_LINES = st.tuples(
    st.sampled_from([b"", b"", b" ", b"\t"]),
    st.lists(st.sampled_from(GRAPH_FIELDS), min_size=1, max_size=3).map(b"\t".join)
    | st.sampled_from([b"", b" ", b"\t", b"\x0b\x0c", b"# note\ta\tb", b"  # note"]),
    st.sampled_from([b"", b"", b"\t", b"\t\t", b" "]),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
)


def edge_file(lines, final_newline):
    """The bytes of ``lines``, the last one left unended unless ``final_newline``."""
    if lines and not final_newline:
        lines[-1] = lines[-1][:-1] + (b"",)
    return b"".join(b"".join(line) for line in lines)


EDGE_FILES = st.builds(edge_file, st.lists(GRAPH_LINES, max_size=40), st.booleans())

# many lines over a few users, so that most are repeats, self-loops among them
REPEATED_EDGES = st.lists(st.tuples(st.sampled_from(["a", "B", "@c", "d"]),
                                    st.sampled_from(["A", "b", "c", "@d"])),
                          min_size=1, max_size=80)
# override counts for users on edges and for users listed only in the override file
OVERRIDES = st.dictionaries(st.sampled_from(["a", "d", "zed", "yan"]),
                            st.integers(0, 2**63 - 1), max_size=4)


def record(author, text, ts=None, **extra):
    rec = {"id": "e1", "author": author,
           "ts": (ts or EPOCH).isoformat(), "text": text}
    rec.update(extra)
    return json.dumps(rec)


def at_hour(hour, minute=0, second=0):
    return EPOCH + timedelta(hours=hour, minutes=minute, seconds=second)


class TestParseEvent:
    def test_retweet_attribution(self):
        ev = EventDecoder().decode(record("bob", "RT @alice: Hello world!"))
        assert ev.author == "bob"
        assert ev.mentions == ["alice"]
        assert ev.retweet_of == "alice"

    def test_no_mentions(self):
        ev = EventDecoder().decode(record("bob", "no mentions here"))
        assert ev.mentions == []
        assert ev.retweet_of is None

    def test_retweet_with_cc(self):
        ev = EventDecoder().decode(record("bob", "RT @alice: Hello world! (cc @carol)"))
        assert ev.mentions == ["alice", "carol"]
        assert ev.retweet_of == "alice"

    def test_duplicate_tokens_kept(self):
        ev = EventDecoder().decode(record("bob", "@alice hi again @alice"))
        assert ev.mentions == ["alice", "alice"]

    def test_self_mention_flagged_not_counted(self):
        ev = EventDecoder().decode(record("bob", "@bob notes to self and @alice"))
        assert ev.mentions == ["alice"]
        assert ev.self_mentions == 1

    def test_handles_normalized(self):
        ev = EventDecoder().decode(record("BoB", "@ALICE hi"))
        assert ev.author == "bob"
        assert ev.mentions == ["alice"]

    def test_preextracted_wins_over_text(self):
        ev = EventDecoder().decode(
            record("bob", "@alice hi", mentions=["carol"], rt_of="carol"))
        assert ev.mentions == ["carol"]
        assert ev.retweet_of == "carol"

    def test_rt_attribution_joins_mentions(self):
        ev = EventDecoder().decode(record("bob", "", mentions=["dave"], rt_of="alice"))
        assert ev.retweet_of == "alice"
        assert ev.mentions[0] == "alice"
        assert "dave" in ev.mentions

    def test_self_retweet_dropped(self):
        ev = EventDecoder().decode(record("bob", "RT @bob: my own words"))
        assert ev.retweet_of is None

    def test_email_like_text_not_a_mention(self):
        ev = EventDecoder().decode(record("bob", "mail me at bob@example.com"))
        assert ev.mentions == []

    def test_empty_author_rejected(self):
        with pytest.raises(ParseError):
            EventDecoder().decode(record("", "hello"))

    def test_invalid_author_rejected(self):
        with pytest.raises(ParseError):
            EventDecoder().decode(record("way-too-long-for-a-handle!", "hello"))

    def test_malformed_timestamp_rejected(self):
        with pytest.raises(ParseError):
            EventDecoder().decode(json.dumps({"id": "e", "author": "bob",
                                    "ts": "not-a-time", "text": "x"}))

    def test_z_suffix_timestamp(self):
        ev = EventDecoder().decode(json.dumps({"id": "e", "author": "bob",
                                     "ts": "2025-01-06T05:30:00Z", "text": "x"}))
        assert ev.timestamp == EPOCH + timedelta(hours=5, minutes=30)

    def test_urls_extracted_and_trimmed(self):
        ev = EventDecoder().decode(record("bob", "see http://sho.rt/abc, and https://x.y/z."))
        assert ev.urls == ["http://sho.rt/abc", "https://x.y/z"]

    def test_preextracted_urls_win(self):
        ev = EventDecoder().decode(record("bob", "see http://a.b/c", urls=["http://d.e/f"]))
        assert ev.urls == ["http://d.e/f"]

    def test_skip_and_count(self):
        lines = [
            record("bob", "@alice hi"),
            "not json at all",
            json.dumps({"id": "e", "author": "bob", "ts": "nope", "text": "x"}),
            record("carol", "@alice yo"),
        ]
        stats = IngestStats()
        events = list(read_events(lines, stats))
        assert len(events) == 2
        assert stats.records == 4
        assert stats.parse_errors == 2
        assert stats.skip_rate == 0.5

    def test_self_retweets_counted(self):
        lines = [record("bob", "RT @bob: mine"), record("bob", "", rt_of="bob"),
                 record("bob", "RT @alice: theirs")]
        stats = IngestStats()
        events = list(read_events(lines, stats))
        assert [ev.retweet_of for ev in events] == [None, None, "alice"]
        assert [ev.self_retweets for ev in events] == [1, 1, 0]
        assert (stats.self_mentions, stats.self_retweets) == (1, 2)


def test_normalize_handle_rules():
    assert normalize_handle("@Alice_1") == "alice_1"
    for bad in ("", "@", "has space", "x" * 16, "dash-ed"):
        with pytest.raises(ParseError):
            normalize_handle(bad)


class TestBucketize:
    def run(self, lines, **kw):
        stats = kw.pop("stats", IngestStats())
        return list(bucketize(read_events(lines, stats), EPOCH, stats, **kw)), stats

    def test_three_mentions_one_hour(self):
        lines = [record("b", "@alice hi", at_hour(0, 5)),
                 record("c", "@alice hi", at_hour(0, 30)),
                 record("d", "@alice hi", at_hour(0, 59))]
        buckets, _ = self.run(lines)
        assert len(buckets) == 1
        assert buckets[0].force["alice"] == 3

    def test_gap_hours_emitted_empty(self):
        lines = [record("b", "@alice hi", at_hour(0)),
                 record("c", "@alice hi", at_hour(2, 30))]
        buckets, _ = self.run(lines)
        assert [b.hour_index for b in buckets] == [0, 1, 2]
        assert buckets[1].force == {}
        assert buckets[2].force == {"alice": 1}

    def test_leading_empty_hours_from_epoch(self):
        buckets, _ = self.run([record("b", "@alice hi", at_hour(3))])
        assert [b.hour_index for b in buckets] == [0, 1, 2, 3]

    def test_duplicate_tokens_count_twice(self):
        buckets, _ = self.run([record("b", "@alice and @alice", at_hour(0))])
        assert buckets[0].force["alice"] == 2

    def test_retweet_force(self):
        buckets, _ = self.run([record("b", "RT @alice: hi", at_hour(0))])
        assert buckets[0].force["alice"] == 1
        assert buckets[0].retweet_force["alice"] == 1

    def test_pre_epoch_counted(self):
        lines = [record("b", "@alice hi", EPOCH - timedelta(hours=1)),
                 record("c", "@alice hi", at_hour(0))]
        buckets, stats = self.run(lines)
        assert stats.pre_epoch_events == 1
        assert buckets[0].force["alice"] == 1

    def test_late_event_counted(self):
        lines = [record("b", "@alice hi", at_hour(0)),
                 record("c", "@alice hi", at_hour(5)),
                 record("d", "@alice hi", at_hour(2))]
        buckets, stats = self.run(lines)
        assert stats.late_events == 1
        assert sum(b.total_force for b in buckets) == 2

    def test_out_of_order_within_window_ok(self):
        lines = [record("b", "@alice hi", at_hour(1)),
                 record("c", "@alice hi", at_hour(0, 59))]
        buckets, stats = self.run(lines)
        assert stats.late_events == 0
        assert buckets[0].force["alice"] == 1
        assert buckets[1].force["alice"] == 1

    def test_force_totals_match_token_scan(self):
        # independent oracle: raw '@' token scan minus self-mentions
        lines = [
            record("ann", "RT @bob: news (cc @cd)", at_hour(0, 1)),
            record("bob", "@ann @ann @bob hi", at_hour(0, 2)),
            record("cd", "plain text", at_hour(1, 0)),
            record("ann", "@bob one more", at_hour(1, 30)),
            record("dee", "@ann @bob @cd all", at_hour(2, 0)),
        ]
        expected = 0
        for line in lines:
            rec = json.loads(line)
            for tok in rec["text"].replace(":", " ").replace("(", " ").split():
                if tok.startswith("@") and tok[1:] != rec["author"]:
                    expected += 1
        buckets, _ = self.run(lines)
        assert sum(b.total_force for b in buckets) == expected

    def test_permutation_invariant_within_hour(self):
        rng = random.Random(7)
        lines = [record(f"u{i}", f"@t{i % 3} hello", at_hour(0, i % 60))
                 for i in range(20)]
        base, _ = self.run(list(lines))
        for _ in range(5):
            rng.shuffle(lines)
            shuffled, _ = self.run(list(lines))
            assert [(b.hour_index, b.force) for b in shuffled] \
                == [(b.hour_index, b.force) for b in base]

    def test_random_fixture_token_conservation(self):
        rng = random.Random(123)
        users = [f"u{i}" for i in range(10)]
        lines = []
        token_count = 0
        for i in range(300):
            author = rng.choice(users)
            n_mentions = rng.randint(0, 3)
            targets = [rng.choice(users) for _ in range(n_mentions)]
            token_count += sum(1 for t in targets if t != author)
            text = " ".join(f"@{t}" for t in targets) or "quiet"
            lines.append(record(author, text, at_hour(i // 20, i % 60)))
        buckets, _ = self.run(lines)
        assert sum(b.total_force for b in buckets) == token_count

    def test_every_retweet_is_also_a_mention(self):
        rng = random.Random(5)
        for _ in range(50):
            author = f"u{rng.randint(0, 5)}"
            target = f"u{rng.randint(0, 5)}"
            ev = EventDecoder().decode(record(author, f"RT @{target}: hi"))
            if ev.retweet_of is not None:
                assert ev.retweet_of in ev.mentions


class TestLoadGraph:
    def write(self, tmp_path, text, name="edges.tsv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_follower_count_is_in_degree(self, tmp_path):
        g = load_graph(self.write(tmp_path, "b\ta\nc\ta\n"))
        assert g.followers_of("a") == 2
        assert g.followers_of("b") == 0

    def test_duplicate_edge_single(self, tmp_path):
        stats = IngestStats()
        g = load_graph(self.write(tmp_path, "b\ta\nb\ta\n"), stats=stats)
        assert g.edge_count == 1
        assert stats.duplicate_edges == 1

    def test_self_loop_dropped(self, tmp_path):
        stats = IngestStats()
        g = load_graph(self.write(tmp_path, "a\ta\nb\ta\n"), stats=stats)
        assert g.edge_count == 1
        assert stats.self_loops_dropped == 1

    def test_count_override_wins(self, tmp_path):
        edges = self.write(tmp_path, "b\ta\n")
        counts = self.write(tmp_path, "a\t1000\n", "counts.tsv")
        g = load_graph(edges, counts)
        assert g.followers_of("a") == 1000
        assert g.followers_of("b") == 0

    def test_override_only_user_becomes_node(self, tmp_path):
        edges = self.write(tmp_path, "b\ta\n")
        counts = self.write(tmp_path, "zed\t7\n", "counts.tsv")
        g = load_graph(edges, counts)
        assert g.index("zed") is not None
        assert g.followers_of("zed") == 7

    @pytest.mark.parametrize("line", ["a\t-1", "a\t99999999999999999999", f"a\t{2**63}",
                                      "a\tmany", "a", "not a handle!\t5"],
                             ids=["negative", "huge", "int64-end", "not-int", "one-field",
                                  "bad-handle"])
    def test_bad_override_line_counted(self, tmp_path, line):
        edges = self.write(tmp_path, "b\ta\n")
        counts = self.write(tmp_path, f"{line}\nb\t{2**63 - 1}\n", "counts.tsv")
        stats = IngestStats()
        g = load_graph(edges, counts, stats)
        assert stats.bad_graph_lines == 1
        assert g.followers_of("a") == 1  # its in-degree stands
        assert g.followers_of("b") == 2**63 - 1

    def test_bad_lines_counted(self, tmp_path):
        stats = IngestStats()
        g = load_graph(self.write(tmp_path, "# comment\nb\ta\nnot a pair\nb\ta\tc\n"),
                       stats=stats)
        assert g.edge_count == 1
        assert stats.bad_graph_lines == 2

    def test_comments_and_blanks_skipped(self, tmp_path):
        g = load_graph(self.write(tmp_path, "# header\n\nb\ta\n"))
        assert g.edge_count == 1

    def test_users_sorted_and_indexed(self, tmp_path):
        g = load_graph(self.write(tmp_path, "c\tb\nb\ta\n"))
        assert g.users == sorted(g.users)
        assert all(g.index(u) == i for i, u in enumerate(g.users))

    @given(data=EDGE_FILES)
    @example(data=b"A\tb\r\n@a\tB\rb\t@A\t\n \t# x\ta\n\t\nc\ta")
    @example(data=b"@a\tA\r\na\xff\tb\n\tb\na\t\tb\nb\ta")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_line_by_line_reference(self, tmp_path, data):
        path = tmp_path / "edges.tsv"  # rewritten for every example
        path.write_bytes(data)
        stats = IngestStats()
        g = load_graph(path, stats=stats)
        pairs, counts = reference_edge_list(universal_lines(data))
        assert g.users == sorted({u for pair in pairs for u in pair})
        assert g.edge_keys.typecode == "q" and g.edge_count == len(pairs)
        assert [(g.users[k // g.n], g.users[k % g.n]) for k in g.edge_keys] == sorted(pairs)
        keys = g.edge_keys.tolist()
        assert keys == sorted(set(keys))  # unique edges in (follower, followee) order
        assert [g.followers_of(u) for u in g.users] \
            == [sum(1 for _, b in pairs if b == u) for u in g.users]
        assert (stats.bad_graph_lines, stats.self_loops_dropped,
                stats.duplicate_edges) == counts

    @given(edges=REPEATED_EDGES, loop_at=st.integers(0, 80), overrides=OVERRIDES)
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference_with_repeats_and_overrides(self, tmp_path, edges, loop_at,
                                                          overrides):
        """Repeated edges are kept once and counted as duplicates; a name
        seen only on a self-loop line is no user unless overridden."""
        lines = [f"{a}\t{b}" for a, b in edges]
        lines.insert(loop_at, "solo\t@Solo")
        edge_path = self.write(tmp_path, "\n".join(lines) + "\n")
        counts_path = self.write(tmp_path, "".join(f"{u}\t{c}\n" for u, c in overrides.items()),
                                 "counts.tsv")
        stats = IngestStats()
        g = load_graph(edge_path, counts_path, stats)
        pairs, counts = reference_edge_list(lines)
        assert g.users == sorted({u for pair in pairs for u in pair} | overrides.keys())
        assert [(g.users[k // g.n], g.users[k % g.n]) for k in g.edge_keys] == sorted(pairs)
        assert [g.followers_of(u) for u in g.users] \
            == [overrides.get(u, sum(1 for _, b in pairs if b == u)) for u in g.users]
        assert (stats.bad_graph_lines, stats.self_loops_dropped,
                stats.duplicate_edges) == counts

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux VmRSS")
    def test_load_memory_growth_bounded(self, tmp_path):
        """Peak RSS growth of one load of a 258k-edge graph stays under 8 MB.

        Measured in RSS because that is what a command's peak is, and
        tracemalloc cannot see it all: numpy's hash-table set operations
        (``np.unique`` and ``np.isin`` on integers) allocate their tables
        outside its tracked allocator.  On numpy 2.4.6 the hash-based
        dedup grew RSS by 21.5 MB, a sort-based one over separate id and
        key arrays by 11.9 MB, and the build in place, one 8-byte word an
        edge line plus chunk-sized temporaries, by 5.0 MB.  A fresh
        process keeps other tests' heap out of the figure.
        """
        rng = np.random.default_rng(0)
        users, per_user = 5000, 52
        src = np.repeat(np.arange(users), per_user)
        dst = rng.integers(0, users, src.size)
        path = tmp_path / "edges.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"u{a}\tu{b}\n" for a, b in zip(src.tolist(), dst.tolist()))
        proc = subprocess.run([sys.executable, "-c", RSS_GROWTH, str(path)], env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        edges, growth_mb = proc.stdout.split()
        assert int(edges) > 250_000
        assert float(growth_mb) < 8.0

    def test_mean_followers(self):
        g = graph_from_edges({("b", "a"), ("c", "a")})
        assert g.mean_followers() == pytest.approx(2 / 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**40), min_size=1, max_size=300)
           | st.lists(st.integers(0, 3), min_size=1, max_size=300))
    def test_mean_followers_is_numpys_mean(self, counts):
        """An exact integer sum divided once: the bits numpy's mean gives, so
        the zeta estimated from it does not move."""
        g = UserGraph([f"u{i}" for i in range(len(counts))], array("q"), array("q", counts))
        assert g.mean_followers() == float(np.mean(np.array(counts, dtype=np.int64)))


class TestUserGraphInvariant:
    """Edge keys ``follower * n + followee`` must strictly increase: the
    retweet graph binary-searches them."""

    COUNTS = array("q", [1, 1, 0])

    @pytest.mark.parametrize("edges", [
        [6, 1],  # (2, 0) before (0, 1): out of order
        [1, 1],  # a repeat
        [2, 1],  # same follower, followees out of order
        [9],  # past the last user
        [-1],
        [0, 4, 2],  # out of order inside, not at the ends
    ])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="UserGraph edge keys"):
            UserGraph(["a", "b", "c"], array("q", edges), self.COUNTS)

    def test_sorted_hand_built_graph_keeps_retweet_edges(self):
        graph = UserGraph(["a", "b", "c"], array("q", [1, 6]), self.COUNTS)  # a -> b, c -> a
        digest = StreamDigest(authored={"a": 1, "b": 4, "c": 1},
                              retweets={"a": {"b": 2}, "c": {"a": 1}})  # a -> b, c -> a
        rg = build_retweet_graph(digest, graph)
        assert rg.dropped_no_follow == 0
        assert len(rg.src) == 2

    def test_no_edges(self):
        graph = UserGraph(["a"], array("q"), array("q", [0]))
        assert graph.edge_count == 0 and graph.edge_keys.typecode == "q"

    def test_scorer_views_rebuild_the_keys(self):
        """The scorers read each follower's run of edges and each edge's
        followee from the keys; together they give the keys back."""
        hand_built = UserGraph(["a", "b", "c"], array("q", [1, 6]), self.COUNTS)
        loaded = graph_from_edges([("b", "a"), ("c", "a"), ("a", "c")])
        for graph in (hand_built, loaded):
            out_degree, followees = np.diff(_offsets(graph)), _followees(graph)
            followers = np.repeat(np.arange(graph.n), out_degree)
            assert (followers * graph.n + followees).tolist() == graph.edge_keys.tolist()


def universal_lines(data: bytes) -> list[str]:
    """The lines of a file read as text: CRLF, lone CR and LF each end a
    line, and bytes that are not UTF-8 become lone surrogates."""
    text = data.decode("utf-8", errors="surrogateescape")
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def reference_edge_list(lines):
    """The edge-list rules applied one line at a time with a set of name
    pairs: (pairs, (bad lines, self-loops, duplicates))."""
    bad = loops = duplicates = 0
    pairs: set = set()
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            bad += 1
            continue
        try:
            a, b = normalize_handle(fields[0]), normalize_handle(fields[1])
        except ParseError:
            bad += 1
            continue
        if a == b:
            loops += 1
        elif (a, b) in pairs:
            duplicates += 1
        else:
            pairs.add((a, b))
    return pairs, (bad, loops, duplicates)
