"""The part of veloscore that runs on the standard library alone.

It holds what the command-line parser, `trend` and `eval` need: the
checked table reader, the week arithmetic, the velocity parameters, the
checkpoint type with its file format, trending, the table of centrality
scorers with their defaults, and the score vector with its file format.
So `veloscore trend` ranks two checkpoint rows, and `veloscore eval`
reads the score files, without loading numpy.  `ingest`, `dynamics` and
`centrality` import these names back; each is defined here once.
"""

from __future__ import annotations

import heapq
import math
import re
import sys
from array import array
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import ne
from typing import Callable, Iterator, Mapping, Optional, Sequence

WEEK_HOURS = 168

MASS_MODES = ("raw_followers", "ln_followers")
FORCE_SOURCES = ("mentions", "retweets")

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
DEFAULT_DAMPING = 0.85
DEFAULT_RETWEET_PROB = 0.05
# `score`'s --error-ceiling default, and the ceiling where no such flag is given
DEFAULT_ERROR_CEILING = 0.01

# what bytes that are not UTF-8 become when read with errors="surrogateescape":
# every text reader opens its file so, and finds them with this
SURROGATE_RE = re.compile("[\ud800-\udfff]")


class DataFileError(ValueError):
    """A malformed line in a table a command reads whole; names the file and line."""

    def __init__(self, path, lineno: int, problem):
        super().__init__(f"{path}:{lineno}: {problem}")


def table_rows(path, parse: Callable[[str], tuple],
               comments: bool = False) -> Iterator[tuple[int, tuple]]:
    """The number and ``parse(line)`` of each line of the table ``path``,
    read as UTF-8 and stripped, but for blank lines and, with ``comments``,
    lines that start with ``#``.  Bytes that are not UTF-8, like a
    ValueError from ``parse``, raise a DataFileError naming the line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and SURROGATE_RE.search(line):
                raise DataFileError(path, lineno, "not valid UTF-8")
            line = line.strip()
            if line and not (comments and line[0] == "#"):
                try:
                    yield lineno, parse(line)
                except ValueError as exc:
                    raise DataFileError(path, lineno, exc) from None


def week_end_hour(week: int) -> int:
    """Last hour index of the given week (week 0 ends at hour 167)."""
    return (week + 1) * WEEK_HOURS - 1


@dataclass
class KineticsConfig:
    """Parameters of the velocity update v' = max(0, v + force/mass - zeta)."""

    zeta: float = 0.0
    mass_mode: str = "raw_followers"
    default_mass: float = 1.0
    force_source: str = "mentions"

    def __post_init__(self):
        if not (math.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError(f"zeta must be finite and >= 0, got {self.zeta}")
        if self.mass_mode not in MASS_MODES:
            raise ValueError(f"mass_mode must be one of {MASS_MODES}")
        if not (math.isfinite(self.default_mass) and self.default_mass >= 1):
            raise ValueError(f"default_mass must be finite and >= 1, got {self.default_mass}")
        if self.force_source not in FORCE_SOURCES:
            raise ValueError(f"force_source must be one of {FORCE_SOURCES}")

    def mass_for(self, followers: int) -> float:
        """Mass of a user with the given follower count; always >= 1.

        Users absent from the graph or with zero followers get
        ``default_mass`` so force passes through on a unit body.
        """
        if followers is None or followers <= 0:
            return float(self.default_mass)
        if self.mass_mode == "ln_followers":
            return max(1.0, math.log(followers) + 1.0)
        return float(followers)


@dataclass
class TrendingEntry:
    user: str
    window: str
    acceleration: float
    relative_increase: float


class VelocityHistory:
    """Velocities of a fixed set of tracked users at the end of recorded hours.

    The one checkpoint type: ``dynamics.replay`` builds it from a stream
    (``matrix`` a numpy array) and ``load_snapshots`` from
    ``snapshots.tsv`` (``matrix`` a list of ``array('d')`` rows).  Row
    ``k`` of ``matrix`` holds hour ``hours[k]``.  Untracked users and hours before the epoch read as velocity 0;
    any other hour that was not recorded is an error naming it.
    """

    def __init__(self, users: list[str], matrix, hours: Sequence[int]):
        self.users = users
        self.matrix = matrix
        self.hours = list(hours)
        self._row = {h: k for k, h in enumerate(self.hours)}

    @property
    def final_hour(self) -> int:
        return self.hours[-1] if self.hours else -1

    def row(self, hour: int) -> dict[str, float]:
        """Every tracked user's velocity at the end of ``hour``, in ``users`` order."""
        if hour < 0:
            return dict.fromkeys(self.users, 0.0)
        k = self._row.get(hour)
        if k is None:
            raise ValueError(f"no velocity recorded for hour {hour}")
        return dict(zip(self.users, self.matrix[k].tolist()))


def rank_trending(
    v_start: Mapping[str, float],
    v_end: Mapping[str, float],
    threshold: float,
    k: int,
    window: str = "",
) -> list[TrendingEntry]:
    """Users whose relative velocity increase meets the threshold, ranked by
    decreasing acceleration (velocity delta), ties broken by user id.

    A user starting at velocity 0 with a positive delta counts as an
    infinite relative increase.  Only the top ``k`` are kept while ranking.
    """
    if k <= 0:
        return []

    def passing():
        for u in sorted(set(v_start) | set(v_end)):
            v0 = v_start.get(u, 0.0)
            dv = v_end.get(u, 0.0) - v0
            if v0 == 0.0:
                rel = math.inf if dv > 0.0 else 0.0
            else:
                rel = dv / v0
            if not rel < threshold:
                yield -dv, u, rel  # users are distinct, so rel is never compared

    return [TrendingEntry(u, window, -neg_dv, rel)
            for neg_dv, u, rel in heapq.nsmallest(k, passing())]


def write_snapshots(path, history: VelocityHistory, hours: Sequence[int]) -> None:
    """Persist checkpoints as hour<TAB>user<TAB>velocity<TAB>acceleration,
    lexicographic user order within each hour."""
    with open(path, "w", encoding="utf-8") as fh:
        for h in sorted(set(hours)):
            before = history.row(h - 1)
            for u, v in history.row(h).items():
                fh.write(f"{h}\t{u}\t{v!r}\t{v - before[u]!r}\n")


# characters of snapshots.tsv checked at a time: the ``readlines`` hint
_SNAPSHOT_BLOCK = 1 << 14


def load_snapshots(path) -> VelocityHistory:
    """The checkpoints of a ``write_snapshots`` file, one row per hour and
    users sorted.  Every line is checked, whichever hours are read later:
    the hour and the velocity must be >= 0, as ``score`` writes them; a
    user an hour does not list reads as velocity 0 at that hour.

    Lines are checked a block at a time, a column at a time.  A file that
    fails a check is read again a line at a time, which raises the
    DataFileError that names the first bad line.
    """
    try:
        rows = _snapshot_blocks(path)
    except ValueError:
        rows = None
    if rows is None:
        rows = _snapshot_lines(path)
    users = sorted(set().union(*(listed for listed, _ in rows.values())))
    hours = sorted(rows)
    matrix = []
    for h in hours:
        listed, velocities = rows.pop(h)
        if listed != users:
            velocities = array("d", map(dict(zip(listed, velocities)).get, users, repeat(0.0)))
        matrix.append(velocities)
    return VelocityHistory(users, matrix, hours)


def _snapshot_blocks(path) -> Optional[dict[int, tuple[list[str], array]]]:
    """Each hour of the snapshot file ``path`` with its users, in file
    order, and their velocities in one ``array('d')``, every hour sharing
    one str per user; None if a line fails a check of ``_snapshot_line``
    or holds bytes that are not UTF-8.  Raises ValueError for a value that
    does not parse."""
    rows: dict[int, tuple[list[str], array]] = {}
    names: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        while block := fh.readlines(_SNAPSHOT_BLOCK):
            lines = [line for line in map(str.strip, block) if line]
            if not lines:
                continue
            text = "\t".join(lines)
            if (set(map(str.count, lines, repeat("\t"))) != {3}
                    or not text.isascii() and SURROGATE_RE.search(text)):
                return None
            fields = text.split("\t")
            hours = list(map(int, fields[0::4]))
            velocities = array("d", map(float, fields[2::4]))
            if not (all(map(math.isfinite, velocities))
                    and all(map(math.isfinite, map(float, fields[3::4])))
                    and min(hours) >= 0 and min(velocities) >= 0):
                return None
            users = fields[1::4]
            # the runs of lines of one hour
            cuts = [0, *compress(range(1, len(hours)), map(ne, hours, islice(hours, 1, None))),
                    len(hours)]
            for lo, hi in zip(cuts, islice(cuts, 1, None)):
                listed, row = rows.setdefault(hours[lo], ([], array("d")))
                listed.extend(map(names.setdefault, users[lo:hi], users[lo:hi]))
                row.extend(velocities[lo:hi])
    if any(len(set(listed)) != len(listed) for listed, _ in rows.values()):
        return None  # a user listed again at an hour
    return rows


def _snapshot_line(line: str) -> tuple[int, str, float]:
    h_s, user, v_s, a_s = line.split("\t")
    h, v, a = int(h_s), float(v_s), float(a_s)  # a is checked, not kept
    if not (math.isfinite(v) and math.isfinite(a)):
        raise ValueError("velocity and acceleration must be finite")
    if h < 0:
        raise ValueError(f"hour {h} is before the epoch")
    if v < 0:
        raise ValueError(f"velocity {v_s} is negative")
    return h, user, v


def _snapshot_lines(path) -> dict[int, tuple[list[str], array]]:
    """``_snapshot_blocks``'s rows of ``path``, read a line at a time by
    ``table_rows``: a line that fails a check raises a DataFileError naming it."""
    rows: dict[int, dict[str, float]] = {}
    for lineno, (h, user, v) in table_rows(path, _snapshot_line):
        row = rows.setdefault(h, {})
        if user in row:
            raise DataFileError(path, lineno, f"user {user!r} is listed again at hour {h}")
        row[user] = v
    return {h: (list(row), array("d", row.values())) for h, row in rows.items()}


@dataclass
class ScoreVector:
    """Per-user scores, as plain floats, with convergence metadata for one algorithm."""

    algorithm: str
    users: list[str]
    values: list[float]
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    residual_history: Optional[list[float]] = None
    _idx: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._idx = {u: i for i, u in enumerate(self.users)}

    def get(self, user: str, default: float = 0.0) -> float:
        i = self._idx.get(user)
        return self.values[i] if i is not None else default

    def items(self):
        for u in sorted(self.users):
            yield u, self.get(u)

    def write_tsv(self, path) -> None:
        """user<TAB>score lines, lexicographic user order, 12 significant digits."""
        with open(path, "w", encoding="utf-8") as fh:
            for u, s in self.items():
                fh.write(f"{u}\t{s:.12g}\n")

    @classmethod
    def read_tsv(cls, path, algorithm: str = "") -> "ScoreVector":
        def parse(line):
            u, s = line.split("\t")
            value = float(s)
            if not math.isfinite(value):
                raise ValueError(f"score {s!r} is not finite")
            return sys.intern(u), value  # one str per user across the score files

        scores: dict[str, float] = {}
        for lineno, (u, value) in table_rows(path, parse):
            if u in scores:
                raise DataFileError(path, lineno, f"user {u!r} is listed again")
            scores[u] = value
        return cls(algorithm or "file", list(scores), list(scores.values()))


@dataclass(frozen=True)
class Scorer:
    """One ``--algorithm`` choice: the vectors it writes, those ``eval`` reports,
    whether it needs the stream, and its run on (the ``centrality`` module,
    graph, retweet graph, flags), giving ``ScoreVector``s."""

    outputs: tuple[str, ...]
    reported: tuple[str, ...]
    needs_stream: bool
    run: Callable[..., tuple]


# the scorer whose vector summed over a URL's promoters is the URL's audience
AUDIENCE = "followers"

# every scorer `centrality` runs, in the order it writes them
SCORERS = {
    "pagerank": Scorer(("pagerank",), ("pagerank",), False,
                       lambda c, g, rg, a: (c.pagerank(g, a.damping, a.tol, a.max_iter),)),
    "tunkrank": Scorer(("tunkrank",), ("tunkrank",), False,
                       lambda c, g, rg, a: (c.tunkrank(g, a.retweet_prob, a.tol, a.max_iter),)),
    # passivity is the dual vector of the fixed point, not an influence score
    "ip": Scorer(("ip_influence", "ip_passivity"), ("ip_influence",), True,
                 lambda c, g, rg, a: c.influence_passivity(rg, a.tol, a.max_iter)),
    # eval's `followers` row is this score already: a URL's audience is the
    # sum of it over the URL's promoters, and corrected it is identically 1
    AUDIENCE: Scorer((AUDIENCE,), (), False, lambda c, g, rg, a: (c.followers_score(g),)),
    # most users follow the same number of users, so its corrected values are
    # one constant up to rounding: a row would be noise or a zero variance
    "ratio": Scorer(("ratio",), (), False, lambda c, g, rg, a: (c.ratio_score(g),)),
}
