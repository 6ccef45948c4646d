"""Event-stream and graph ingestion.

Events arrive as newline-delimited JSON records; graphs as tab-separated
edge lists.  Parsing is skip-and-count: a malformed record is counted and
dropped, never fatal.  Events are discretized into one-hour force buckets
with a bounded out-of-order window.
"""

from __future__ import annotations

import json
import math
import os
import re
from array import array
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import DataFileError, table_file  # noqa: F401  (re-exported)

HOUR_SECONDS = 3600.0
WINDOW_HOURS = 1  # hours an event may lag the newest one seen and still be bucketed

# Historical handle rule: 1-15 chars of [A-Za-z0-9_], case-insensitive.
_HANDLE_RE = re.compile(r"^[a-z0-9_]{1,15}$")
_MENTION_RE = re.compile(r"(?<![A-Za-z0-9_])@([A-Za-z0-9_]{1,15})")
_RETWEET_RE = re.compile(r"^\s*rt\s+@([A-Za-z0-9_]{1,15})\b", re.IGNORECASE)
_URL_RE = re.compile(r"https?://[^\s]+")
_URL_TRAIL = ".,;:!?)'\">"
# what bytes that are not UTF-8 become when read with errors="surrogateescape"
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


class ParseError(ValueError):
    """One malformed stream record or graph line."""


def normalize_handle(raw: str) -> str:
    """Lowercase a handle, strip a leading '@', and validate the grammar."""
    h = raw.strip().lstrip("@").lower()
    if not _HANDLE_RE.match(h):
        raise ParseError(f"invalid handle: {raw!r}")
    return h


def parse_timestamp(raw: str) -> datetime:
    """Parse an ISO-8601 instant; naive values are taken as UTC."""
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except (ValueError, TypeError, AttributeError) as exc:
        raise ParseError(f"malformed timestamp: {raw!r}") from exc
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass
class IngestStats:
    """Skip-and-count bookkeeping shared across the ingest pipeline."""

    records: int = 0
    parse_errors: int = 0
    self_mentions: int = 0
    self_retweets: int = 0
    pre_epoch_events: int = 0
    late_events: int = 0
    self_loops_dropped: int = 0
    bad_graph_lines: int = 0
    duplicate_edges: int = 0

    @property
    def skipped(self) -> int:
        return self.parse_errors + self.pre_epoch_events + self.late_events

    def add(self, other: "IngestStats") -> None:
        """Add every count of ``other`` to this one's."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def skip_rate(self) -> float:
        return self.skipped / self.records if self.records else 0.0


@dataclass
class Event:
    """One parsed stream item.

    ``mentions`` lists every non-self '@' token in text order, duplicates
    included: force counts token occurrences, not distinct mentioners.
    Self-mentions are dropped from the list but tallied in
    ``self_mentions``; a self-attributed retweet is dropped from
    ``retweet_of`` and tallied in ``self_retweets``.
    """

    event_id: str
    author: str
    timestamp: datetime
    mentions: list[str] = field(default_factory=list)
    retweet_of: Optional[str] = None
    urls: list[str] = field(default_factory=list)
    self_mentions: int = 0
    self_retweets: int = 0


def hours_since(ts: datetime, epoch: datetime) -> int:
    """Index of the whole hour after ``epoch`` that ``ts`` falls in (negative before it)."""
    return math.floor((ts - epoch).total_seconds() / HOUR_SECONDS)


_JSON = json.JSONDecoder()  # stateless; shared like json's own default decoder
_JSON_WS = json.decoder.WHITESPACE.match


def decode_json(line: str):
    """``json.loads(line)`` for a str, raising ParseError instead.

    Skips and checks whitespace around the value the way ``json.loads``
    does, so it accepts exactly the lines that ``json.loads`` accepts; a
    value nested too deeply for the decoder's recursion is a ParseError.
    """
    try:
        idx = _JSON_WS(line, 0).end() if line[:1] in " \t\n\r" else 0
        value, end = _JSON.raw_decode(line, idx)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("not valid JSON: nested too deeply") from exc
    if end != len(line) and _JSON_WS(line, end).end() != len(line):
        raise ParseError(f"not valid JSON: extra data at column {end + 1}")
    return value


class EventDecoder:
    """Parses stream records into Events for one reader.

    Remembers the handle each valid raw handle string normalizes to, so
    its memory grows with the distinct handles seen and never with the
    record count, and reuses the previous record's timestamp when the
    ``ts`` string repeats.  Every record gets the same checks as a fresh
    decoder would give it.
    """

    def __init__(self):
        self._handles: dict[str, str] = {}
        self._ts_raw: Optional[str] = None
        self._ts: Optional[datetime] = None

    def handle(self, raw) -> str:
        """``normalize_handle`` for any JSON value; a non-string is a ParseError."""
        try:
            return self._handles[raw]
        except KeyError:
            if not isinstance(raw, str):
                raise ParseError(f"handle is a {type(raw).__name__}") from None
        except TypeError:  # unhashable: a list or an object
            raise ParseError(f"handle is a {type(raw).__name__}") from None
        h = self._handles[raw] = normalize_handle(raw)
        return h

    def timestamp(self, raw) -> datetime:
        if raw != self._ts_raw or self._ts is None:
            ts = parse_timestamp(raw)
            self._ts_raw, self._ts = raw, ts
        return self._ts

    def decode(self, line: str) -> Event:
        """Parse one JSON stream record into an Event.

        Pre-extracted ``mentions``/``rt_of``/``urls`` fields win over the
        ``text`` field when both are present.  A retweet attribution always
        appears in ``mentions`` as well.  Any malformed record, however
        hostile, raises ParseError.
        """
        try:
            return self._decode(line)
        except RecursionError as exc:  # str() or repr() of a deeply nested field
            raise ParseError("record nested too deeply") from exc

    def _decode(self, line: str) -> Event:
        if not line.isascii() and _SURROGATE_RE.search(line):
            raise ParseError("not valid UTF-8")
        rec = decode_json(line)
        if not isinstance(rec, dict):
            raise ParseError("record is not an object")

        author_raw = rec.get("author")
        if not author_raw or not isinstance(author_raw, str):
            raise ParseError("empty author")
        handle = self.handle
        author = handle(author_raw)
        ts = self.timestamp(rec.get("ts"))
        text = rec.get("text", "") or ""
        has_mentions = "mentions" in rec
        if not isinstance(text, str) and not (has_mentions and "urls" in rec):
            raise ParseError("text is not a string")

        if has_mentions:
            if not isinstance(rec["mentions"], list):
                raise ParseError("mentions is not an array")
            raw_mentions = [handle(m) for m in rec["mentions"]]
        else:
            raw_mentions = list(map(str.lower, _MENTION_RE.findall(text)))

        rt_raw = rec.get("rt_of")
        if rt_raw:
            retweet_of: Optional[str] = handle(rt_raw)
        else:
            rt_match = _RETWEET_RE.match(text) if not has_mentions else None
            retweet_of = rt_match.group(1).lower() if rt_match else None

        if author in raw_mentions:
            mentions = [m for m in raw_mentions if m != author]
            self_mentions = len(raw_mentions) - len(mentions)
        else:
            mentions, self_mentions = raw_mentions, 0
        if retweet_of == author:
            retweet_of, self_retweets = None, 1  # self-attribution carries no outside attention
        else:
            self_retweets = 0
        if retweet_of is not None and retweet_of not in mentions:
            mentions.insert(0, retweet_of)

        if "urls" in rec:
            if not isinstance(rec["urls"], list):
                raise ParseError("urls is not an array")
            urls = [u for u in (str(u).strip() for u in rec["urls"]) if u]
        elif "http" in text:
            urls = [u.rstrip(_URL_TRAIL) for u in _URL_RE.findall(text)]
        else:
            urls = []

        event_id = str(rec.get("id", ""))
        return Event(event_id, author, ts, mentions, retweet_of, urls, self_mentions,
                     self_retweets)


def parse_event(line: str) -> Event:
    """Parse one JSON stream record into an Event (see ``EventDecoder.decode``)."""
    return EventDecoder().decode(line)


def read_events(lines: Iterable[str], stats: Optional[IngestStats] = None) -> Iterator[Event]:
    """Yield parsed events from raw lines, counting and skipping bad records."""
    stats = stats if stats is not None else IngestStats()
    decode = EventDecoder().decode
    for line in lines:
        if not line.strip():
            continue
        stats.records += 1
        try:
            ev = decode(line)
        except ParseError:
            stats.parse_errors += 1
            continue
        stats.self_mentions += ev.self_mentions
        stats.self_retweets += ev.self_retweets
        yield ev


def read_events_file(path, stats: Optional[IngestStats] = None) -> Iterator[Event]:
    """``read_events`` over a file; a line that is not UTF-8 is a ParseError."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from read_events(fh, stats)


def _blake2b():
    try:
        # hashlib.blake2b is this same object, but importing hashlib loads
        # OpenSSL: about 3.5 MB more RSS in every command that checks a digest
        from _blake2 import blake2b
    except ImportError:  # an interpreter without CPython's built-in module
        from hashlib import blake2b
    return blake2b()


def file_fingerprint(path) -> tuple[int, str]:
    """The byte size and the BLAKE2b hex digest of a file's content."""
    h = _blake2b()
    size = 0
    buf = bytearray(1 << 16)  # one reused buffer: a fresh large chunk per read can grow the heap
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
            size += n
    return size, h.hexdigest()


# rows decoded per json.loads call when a framed file is read: about this many
# bytes, so each call's cost is spread over many rows while the decoded batch
# stays small next to a command's peak
_FRAME_BATCH = 1 << 16


def write_framed(path, header: list, rows: Iterable[list]) -> None:
    """Write ``header`` and then each of ``rows`` as one JSON array per line.

    The last line holds the BLAKE2b hash of every line before it, so a
    truncated or damaged file is never read.  The file is ASCII text,
    written under a temporary name and then renamed into place.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    h = _blake2b()
    try:
        with open(tmp, "wb") as fh:
            def put(row):
                line = (json.dumps(row) + "\n").encode("ascii")
                h.update(line)
                fh.write(line)

            put(header)
            for row in rows:
                put(row)
            fh.write((json.dumps(["end", h.hexdigest()]) + "\n").encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_framed(path, magic: str, version: int, key: list) -> Iterator:
    """Yield the rows ``write_framed`` wrote to ``path`` after the header
    ``[magic, version, *key]``.

    Rows are decoded in batches of about ``_FRAME_BATCH`` bytes, one
    ``json.loads`` each.  Raises ValueError, after the last row if need
    be, unless the header matches and the file is whole: its last line,
    and only its last line, is a trailer that ends in a newline and holds
    the hash of every line before it.  A consumer keeps what it read only
    once the iteration has ended without an error.
    """
    h = _blake2b()
    with open(path, "rb") as fh:
        header = fh.readline()
        if json.loads(header) != [magic, version, *key]:
            raise ValueError(f"{path} was not made from these inputs")
        h.update(header)
        carry = b""
        while chunk := fh.read(_FRAME_BATCH):
            buf = carry + chunk
            # the last whole line may be the trailer, so it waits for the next chunk
            cut = buf.rfind(b"\n", 0, max(buf.rfind(b"\n"), 0)) + 1
            batch, carry = buf[:cut], buf[cut:]
            if batch:
                h.update(batch)
                rows = json.loads(b"[" + batch[:-1].replace(b"\n", b",") + b"]")
                if len(rows) != batch.count(b"\n"):
                    raise ValueError(f"{path}: a line holds other than one row")
                yield from rows
    if not (carry.endswith(b"\n") and carry.count(b"\n") == 1
            and json.loads(carry) == ["end", h.hexdigest()]):
        raise ValueError(f"{path} is not whole")


_DIGEST_MAGIC = "veloscore stream digest"
# Bump whenever the parser changes what it yields, so older digests are re-parsed.
_DIGEST_VERSION = 1


@dataclass
class StreamDigest:
    """What ``centrality`` and ``eval`` need from an event stream.

    Summarizes every event a reader yields, late and pre-epoch ones
    included: the first event's timestamp, the events each author wrote,
    the retweet attributions per author and retweeted user, and one
    ``(url, author, timestamp)`` row per URL occurrence, in stream order.
    ``score`` writes it next to its outputs, keyed to the events file's
    size and BLAKE2b hash, so that later commands over the same file need
    not parse it again.
    """

    first_ts: Optional[datetime] = None
    authored: dict[str, int] = field(default_factory=dict)
    retweets: dict[str, dict[str, int]] = field(default_factory=dict)  # author -> target -> n
    urls: list[tuple[str, str, datetime]] = field(default_factory=list)

    @classmethod
    def of(cls, events: "Iterable[Event] | StreamDigest") -> "StreamDigest":
        """``events`` itself if it is a digest, else the digest of the events."""
        if isinstance(events, cls):
            return events
        digest = cls()
        for _ in digest.tap(events):
            pass
        return digest

    def tap(self, events: Iterable[Event]) -> Iterator[Event]:
        """Yield ``events`` unchanged, tallying each into this digest."""
        authored, retweets, urls = self.authored, self.retweets, self.urls
        for ev in events:
            if self.first_ts is None:
                self.first_ts = ev.timestamp
            author = ev.author
            authored[author] = authored.get(author, 0) + 1
            target = ev.retweet_of
            if target is not None:
                counts = retweets.get(author)
                if counts is None:
                    counts = retweets[author] = {}
                counts[target] = counts.get(target, 0) + 1
            for url in ev.urls:
                urls.append((url, author, ev.timestamp))
            yield ev

    def write(self, path, key: list) -> None:
        """Write the digest as a framed file (``write_framed``) under the header key ``key``."""
        write_framed(path, [_DIGEST_MAGIC, _DIGEST_VERSION, *key], self._rows())

    def _rows(self) -> Iterator[list]:
        if self.first_ts is not None:
            yield ["first", self.first_ts.isoformat()]
        for author, n in self.authored.items():
            yield ["author", author, n]
        for author, counts in self.retweets.items():
            for target, n in counts.items():
                yield ["retweet", author, target, n]
        for url, author, ts in self.urls:
            yield ["url", url, author, ts.isoformat()]

    @classmethod
    def load(cls, path, key: list) -> Optional["StreamDigest"]:
        """The digest at ``path`` if it is whole and its header key equals
        ``key``; None otherwise."""
        digest = cls()
        names: dict[str, str] = {}  # one str object per handle, as the parser keeps them
        name = names.setdefault
        ts_raw, ts = None, None
        try:
            for row in read_framed(path, _DIGEST_MAGIC, _DIGEST_VERSION, key):
                tag = row[0]
                if tag == "url":
                    if row[3] != ts_raw:
                        ts_raw, ts = row[3], datetime.fromisoformat(row[3])
                    digest.urls.append((row[1], name(row[2], row[2]), ts))
                elif tag == "retweet":
                    counts = digest.retweets.setdefault(name(row[1], row[1]), {})
                    counts[name(row[2], row[2])] = row[3]
                elif tag == "author":
                    digest.authored[name(row[1], row[1])] = row[2]
                elif tag == "first":
                    digest.first_ts = datetime.fromisoformat(row[1])
                else:  # an unknown row, or a trailer that is not the last line
                    return None
        except (OSError, ValueError, TypeError, LookupError, RecursionError):
            return None
        return digest


@dataclass
class HourBucket:
    """Per-user applied-force tallies for one discrete hour.

    ``force`` counts mention tokens received; ``retweet_force`` counts
    retweet attributions.  Sealed buckets are treated as immutable.
    """

    hour_index: int
    force: dict[str, int] = field(default_factory=dict)
    retweet_force: dict[str, int] = field(default_factory=dict)

    def add(self, event: Event) -> None:
        for m in event.mentions:
            self.force[m] = self.force.get(m, 0) + 1
        if event.retweet_of is not None:
            rt = event.retweet_of
            self.retweet_force[rt] = self.retweet_force.get(rt, 0) + 1

    @property
    def total_force(self) -> int:
        return sum(self.force.values())


def floor_to_hour(ts: datetime) -> datetime:
    return ts.replace(minute=0, second=0, microsecond=0)


def bucketize(
    events: Iterable[Event],
    epoch: Optional[datetime] = None,
    stats: Optional[IngestStats] = None,
) -> Iterator[HourBucket]:
    """Discretize events into contiguous one-hour buckets.

    Buckets are emitted in increasing hour order starting at the epoch
    hour; empty hours are emitted as zero-force buckets so damping applies
    every hour.  A bucket seals once an event ``WINDOW_HOURS + 1`` hours
    newer arrives; events for sealed buckets are counted and dropped, as
    are events before the epoch.  When ``epoch`` is omitted it defaults to
    the first event's timestamp floored to the hour.
    """
    stats = stats if stats is not None else IngestStats()
    open_buckets: dict[int, HourBucket] = {}
    max_hour = -1
    emitted_through = -1

    for ev in events:
        if epoch is None:
            epoch = floor_to_hour(ev.timestamp)
        h = hours_since(ev.timestamp, epoch)
        if h < 0:
            stats.pre_epoch_events += 1
            continue
        if h < max_hour - WINDOW_HOURS:
            stats.late_events += 1
            continue
        if h > max_hour:
            max_hour = h
            seal_through = max_hour - WINDOW_HOURS - 1
            while emitted_through < seal_through:
                emitted_through += 1
                yield open_buckets.pop(emitted_through, HourBucket(emitted_through))
        bucket = open_buckets.get(h)
        if bucket is None:
            bucket = open_buckets[h] = HourBucket(h)
        bucket.add(ev)

    while emitted_through < max_hour:
        emitted_through += 1
        yield open_buckets.pop(emitted_through, HourBucket(emitted_through))


class UserGraph:
    """Directed follower graph with per-user follower counts.

    Edges are (follower, followee) index pairs into a lexicographically
    sorted user list, held as an int64 ``(edge_count, 2)`` array.  The
    rows are unique and sorted, so the keys ``follower * n + followee``
    strictly increase; lookups such as ``build_retweet_graph``'s binary
    search rely on that, and the constructor raises ``ValueError`` for
    edges that break it.  The array is column-major, so each column is a
    contiguous view that the scorers and ``bincount`` use without a copy.
    ``follower_count`` defaults to in-degree; an explicit count override
    wins per user.
    """

    def __init__(self, users: list[str], edges: np.ndarray, follower_count: np.ndarray):
        n = len(users)
        edges = np.asarray(edges, dtype=np.int64, order="F")
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"UserGraph edges must be (follower, followee) rows, "
                             f"got shape {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError(f"UserGraph edges must index the {n} users")
        src, dst = edges[:, 0], edges[:, 1]
        # row-major keys strictly increase: a larger follower, or the same
        # follower and a larger followee (bool temporaries, no key array)
        if not np.all((src[1:] > src[:-1]) | ((src[1:] == src[:-1]) & (dst[1:] > dst[:-1]))):
            raise ValueError("UserGraph edges must be unique and sorted by "
                             "(follower, followee); build graphs with from_ids")
        self.users = users
        self.edges = edges
        self.follower_count = follower_count
        self._idx = {u: i for i, u in enumerate(users)}

    @classmethod
    def from_edges(
        cls,
        pairs: Iterable[tuple[str, str]],
        overrides: Optional[dict[str, int]] = None,
    ) -> "UserGraph":
        ids: dict[str, int] = {}
        src: list[int] = []
        dst: list[int] = []
        for a, b in pairs:
            src.append(ids.setdefault(a, len(ids)))
            dst.append(ids.setdefault(b, len(ids)))
        return cls.from_ids(list(ids), src, dst, overrides)[0]

    @classmethod
    def from_ids(
        cls,
        names: list[str],
        src: Sequence[int],
        dst: Sequence[int],
        overrides: Optional[dict[str, int]] = None,
    ) -> tuple["UserGraph", int]:
        """The graph of edges ``names[src[k]] -> names[dst[k]]``, and the
        number of duplicate edges dropped.

        Users are the names on an edge plus the override keys; a name on
        no edge is left out.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        on_edge = np.zeros(len(names), dtype=bool)
        on_edge[src] = True
        on_edge[dst] = True
        user_set = {names[i] for i in np.flatnonzero(on_edge)}
        if overrides:
            user_set.update(overrides)
        users = sorted(user_set)
        idx = {u: i for i, u in enumerate(users)}
        to_user = np.array([idx.get(u, -1) for u in names], dtype=np.int64)
        n = len(users)
        keys = to_user[src]  # edge keys i * n + j, built in place
        keys *= n
        keys += to_user[dst]
        # sort and drop repeats by hand: np.unique takes a hash-table path on
        # integers that is slower and holds memory outside numpy's allocator
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        del first
        duplicates = src.size - keys.size
        edges = np.empty((keys.size, 2), dtype=np.int64, order="F")
        np.divmod(keys, max(n, 1), out=(edges[:, 0], edges[:, 1]))
        del keys
        follower_count = np.bincount(edges[:, 1], minlength=n).astype(np.int64)
        if overrides:
            for u, c in overrides.items():
                follower_count[idx[u]] = c
        return cls(users, edges, follower_count), duplicates

    @property
    def n(self) -> int:
        return len(self.users)

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def __contains__(self, user: str) -> bool:
        return user in self._idx

    def index(self, user: str) -> Optional[int]:
        return self._idx.get(user)

    def followers_of(self, user: str) -> int:
        i = self._idx.get(user)
        return int(self.follower_count[i]) if i is not None else 0

    @property
    def out_degree(self) -> np.ndarray:
        return np.bincount(self.edges[:, 0], minlength=self.n).astype(np.int64)

    def mean_followers(self) -> float:
        return float(self.follower_count.mean()) if self.n else 0.0


def _parse_tsv_lines(path) -> Iterator[list[str]]:
    # undecodable bytes become lone surrogates, which no handle or count
    # accepts, so such a line is counted as a bad graph line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield stripped.split("\t")


def load_graph(edge_path, counts_path=None, stats: Optional[IngestStats] = None) -> UserGraph:
    """Load a follower<TAB>followee edge list, deduplicated, self-loops dropped.

    ``counts_path`` optionally supplies per-user follower counts that
    override the in-degree default; users listed only there become
    isolated nodes.
    """
    stats = stats if stats is not None else IngestStats()
    handles: dict[str, int] = {}  # handle -> its id, in order of first sight
    ids: dict[str, int] = {}      # raw field -> id of its handle

    def intern(raw: str) -> int:
        i = ids.get(raw)
        if i is None:
            i = ids[raw] = handles.setdefault(normalize_handle(raw), len(handles))
        return i

    src, dst = array("q"), array("q")  # 8 bytes an id, not a Python int each
    for fields in _parse_tsv_lines(edge_path):
        if len(fields) != 2:
            stats.bad_graph_lines += 1
            continue
        try:
            a, b = intern(fields[0]), intern(fields[1])
        except ParseError:
            stats.bad_graph_lines += 1
            continue
        if a == b:
            stats.self_loops_dropped += 1
            continue
        src.append(a)
        dst.append(b)

    overrides: Optional[dict[str, int]] = None
    if counts_path is not None:
        overrides = {}
        for fields in _parse_tsv_lines(counts_path):
            if len(fields) != 2:
                stats.bad_graph_lines += 1
                continue
            try:
                u = normalize_handle(fields[0])
                c = int(fields[1])
            except (ParseError, ValueError):
                stats.bad_graph_lines += 1
                continue
            if c < 0:
                stats.bad_graph_lines += 1
                continue
            overrides[u] = c

    graph, duplicates = UserGraph.from_ids(list(handles), src, dst, overrides)
    stats.duplicate_edges += duplicates
    return graph


_GRAPH_MAGIC = "veloscore graph cache"
# Bump whenever load_graph changes what it returns, so older caches are re-parsed.
_GRAPH_VERSION = 1
_GRAPH_ROW = 4096  # values per row, so the cache is written a bounded chunk at a time


def write_graph_cache(path, graph: UserGraph, stats: IngestStats, key: list) -> None:
    """Write ``graph`` as a framed file (``write_framed``) under the header
    key ``key``, with the graph counts of the ``stats`` its load made.

    Rows: ``["graph", user_count, edge_count, bad_graph_lines,
    self_loops_dropped, duplicate_edges]``, then the users in order, the
    edge keys ``follower * n + followee`` as differences from the key
    before, and the follower counts, each in rows of at most
    ``_GRAPH_ROW`` values tagged ``users``, ``edges`` and ``followers``.
    """
    n, m = graph.n, graph.edge_count
    src, dst = graph.edges[:, 0], graph.edges[:, 1]

    def rows():
        yield ["graph", n, m, stats.bad_graph_lines, stats.self_loops_dropped,
               stats.duplicate_edges]
        for i in range(0, n, _GRAPH_ROW):
            yield ["users", *graph.users[i:i + _GRAPH_ROW]]
        last = 0
        for i in range(0, m, _GRAPH_ROW):
            keys = src[i:i + _GRAPH_ROW] * n + dst[i:i + _GRAPH_ROW]
            yield ["edges", *np.diff(keys, prepend=last).tolist()]
            last = keys[-1]
        for i in range(0, n, _GRAPH_ROW):
            yield ["followers", *graph.follower_count[i:i + _GRAPH_ROW].tolist()]

    write_framed(path, [_GRAPH_MAGIC, _GRAPH_VERSION, *key], rows())


def read_graph_cache(path, key: list) -> Optional[tuple[UserGraph, IngestStats]]:
    """The graph cached at ``path`` and the graph counts of the load that
    made it, if the cache is whole and its header key equals ``key``;
    None otherwise."""
    users: list[str] = []
    empty = np.zeros(0, dtype=np.int64)
    parts: dict[str, list[np.ndarray]] = {"edges": [empty], "followers": [empty]}
    try:
        rows = read_framed(path, _GRAPH_MAGIC, _GRAPH_VERSION, key)
        tag, n, m, *counts = next(rows)
        if tag != "graph":
            return None
        for row in rows:
            if row[0] == "users":
                users.extend(row[1:])
            else:  # a row of another tag is a KeyError
                parts[row[0]].append(np.array(row[1:], dtype=np.int64))
        keys, follower_count = np.concatenate(parts["edges"]), np.concatenate(parts["followers"])
        if (len(users), keys.size, follower_count.size) != (n, m, n):
            return None
        np.cumsum(keys, out=keys)
        edges = np.empty((m, 2), dtype=np.int64, order="F")
        np.divmod(keys, max(n, 1), out=(edges[:, 0], edges[:, 1]))
        graph = UserGraph(users, edges, follower_count)
        stats = IngestStats()
        stats.bad_graph_lines, stats.self_loops_dropped, stats.duplicate_edges = counts
    except (OSError, ValueError, TypeError, LookupError, RecursionError, StopIteration):
        return None
    return graph, stats
