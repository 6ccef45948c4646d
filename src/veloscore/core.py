"""The part of veloscore that runs on the standard library alone.

It holds what the command-line parser, `score`, `trend` and `eval`
need: the checked table reader, the file writer that replaces a file
whole, the week arithmetic, the velocity parameters, the hourly force
table with the damping estimate and the replay over it, the checkpoint
type with its file format, trending, the table of centrality scorers
with their defaults, and the score vector with its file format.  So
`veloscore score` replays the stream, `veloscore trend` ranks two
checkpoint rows, and `veloscore eval` reads the score files, without
loading numpy.  `ingest`, `dynamics`, `kernels` and `centrality` import
these names back; each is defined here once.
"""

from __future__ import annotations

import heapq
import math
import os
import re
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from .ingest import HourBucket, UserGraph

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


@contextmanager
def replacing(path, mode: str = "w", **kwargs):
    """A file opened with ``open(path + ".tmp", mode, **kwargs)`` that is
    renamed to ``path`` once the block ends, or removed if the block
    raises: ``path`` is never left holding part of what was written."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


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

    The one checkpoint type: ``replay`` builds it from a stream and
    ``load_snapshots`` from ``snapshots.tsv``, each with ``matrix`` a list
    of ``array('d')`` rows in ``users`` order.  Row ``k`` of ``matrix``
    holds hour ``hours[k]``.  Untracked users and hours before the epoch
    read as velocity 0; any other hour that was not recorded is an error
    naming it.
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


def intake(bucket: HourBucket, hour: int, force_source: str,
           ids: dict[str, int]) -> tuple[dict[str, int], list[int]]:
    """The ``force_source`` force of ``bucket``, which must be hour ``hour``,
    and the id in ``ids`` of each user it forces.  A user forced for the
    first time gets the next id, so ids follow first force."""
    if bucket.hour_index != hour:
        raise ValueError(f"bucket hour {bucket.hour_index} is not contiguous: "
                         f"expected hour {hour}")
    force = bucket.retweet_force if force_source == "retweets" else bucket.force
    return force, [ids.setdefault(u, len(ids)) for u in force]


class ForceTable:
    """Sealed hours of force, added one bucket at a time, in compact form.

    Users of the ``force_source`` force get ids by ``intake``.  The
    entries of hour ``t`` are ``f_users``/``f_counts[indptr[t]:indptr[t + 1]]``,
    in flat arrays.  ``total_force`` counts mention tokens and ``active``
    holds every user who received a mention or a retweet attribution, as
    ``estimate_zeta`` needs whatever the force source.
    """

    def __init__(self, force_source: str):
        if force_source not in FORCE_SOURCES:
            raise ValueError(f"force_source must be one of {FORCE_SOURCES}")
        self.force_source = force_source
        self.ids: dict[str, int] = {}
        self.indptr = array("q", [0])
        self.f_users = array("q")
        self.f_counts = array("d")
        self.total_force = 0
        self.active: set[str] = set()

    @classmethod
    def of(cls, buckets: Iterable[HourBucket], force_source: str) -> "ForceTable":
        """The table of ``force_source`` force in the buckets, contiguous from hour 0."""
        table = cls(force_source)
        for b in buckets:
            table.add(b)
        return table

    @property
    def hours(self) -> int:
        return len(self.indptr) - 1

    def add(self, bucket: HourBucket) -> None:
        """Append the next hour; buckets must be contiguous from hour 0."""
        force, users = intake(bucket, self.hours, self.force_source, self.ids)
        self.f_users.extend(users)
        self.f_counts.extend(map(float, force.values()))
        self.total_force += bucket.total_force
        self.active.update(bucket.force, bucket.retweet_force)
        self.indptr.append(len(self.f_users))


def velocity_replay(hour_indptr, f_users, f_counts, mass, zeta: float,
                    rows: Sequence[int]) -> list[array]:
    """Replay hourly velocity updates, v = max(0, v + force/mass - zeta),
    over one state list.

    ``hour_indptr``/``f_users``/``f_counts`` are a CSR layout of per-hour
    force entries; each user appears at most once per hour, and
    ``mass[i]`` (>= 1) is user i's mass.  Returns the velocities at the
    end of each hour in ``rows`` (increasing), one ``array('d')`` per hour
    in user order.

    Only the users who are forced or moving are updated.  An idle user's
    step, ``(v + 0.0/m) - zeta``, is ``v - zeta`` for v >= +0, so with
    zeta >= 0 an idle user at rest stays at 0.  A forced user's step is
    ``(v + f/m) - zeta``, in that order.  Both give the bits of
    ``kernels.velocity_step``, the engine's whole-vector form of the law.
    """
    v = [0.0] * len(mass)
    moving: set[int] = set()  # the users with v > 0
    out = []
    k = 0
    for t in range(rows[-1] + 1 if rows else 0):
        lo, hi = hour_indptr[t], hour_indptr[t + 1]
        forced = f_users[lo:hi]
        if zeta and moving:  # v - 0.0 is v: with no damping the idle keep their speed
            for i in moving.difference(forced):
                x = v[i] - zeta
                if x > 0.0:
                    v[i] = x
                else:
                    v[i] = 0.0
                    moving.discard(i)
        for i, f in zip(forced, f_counts[lo:hi]):
            x = v[i] + f / mass[i] - zeta
            if x > 0.0:
                v[i] = x
                moving.add(i)
            else:
                v[i] = 0.0
                moving.discard(i)
        if rows[k] == t:
            out.append(array("d", v))
            k += 1
    return out


def replay(table: ForceTable, cfg: KineticsConfig, graph: UserGraph,
           checkpoints: Iterable[int]) -> VelocityHistory:
    """Replay the table's sealed hours of force through ``velocity_replay``.

    ``table`` must hold ``cfg.force_source`` force.  Equivalent to
    stepping a KineticsEngine over the same hours, but runs one state
    through the whole stream and keeps only the hours in ``checkpoints``.
    The table is not changed.
    """
    if table.force_source != cfg.force_source:
        raise ValueError(f"force table holds {table.force_source}, not {cfg.force_source}")
    rows = sorted(set(checkpoints))
    if rows and not 0 <= rows[0] <= rows[-1] < table.hours:
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise ValueError(f"cannot checkpoint hour {bad} of a {table.hours}-hour stream")
    users = sorted(table.ids)
    mass = [cfg.mass_for(graph.followers_of(u)) for u in table.ids]
    by_id = velocity_replay(table.indptr, table.f_users, table.f_counts, mass,
                            float(cfg.zeta), rows)
    order = [table.ids[u] for u in users]
    return VelocityHistory(users, [array("d", map(row.__getitem__, order)) for row in by_id],
                           rows)


def estimate_zeta(table: ForceTable, graph: UserGraph) -> float:
    """Damping constant: mean mentions per hour per active user, divided by
    the mean follower count of a graph user.

    Active users received a mention or a retweet attribution, whichever
    force the table holds.
    """
    if graph.n == 0:
        raise ValueError("cannot estimate damping on an empty graph")
    if table.hours == 0:
        raise ValueError("cannot estimate damping with zero hours")
    total, active = table.total_force, len(table.active)
    if total == 0 or not active:
        return 0.0
    mean_followers = graph.mean_followers()
    if mean_followers <= 0:
        raise ValueError("mean follower count is zero; damping undefined")
    return (total / (table.hours * active)) / mean_followers


def write_snapshots(path, history: VelocityHistory, hours: Sequence[int]) -> None:
    """Persist checkpoints as hour<TAB>user<TAB>velocity<TAB>acceleration,
    lexicographic user order within each hour; the file is replaced whole
    (``replacing``)."""
    with replacing(path, encoding="utf-8") as fh:
        for h in sorted(set(hours)):
            before = history.row(h - 1)
            for u, v in history.row(h).items():
                fh.write(f"{h}\t{u}\t{v!r}\t{v - before[u]!r}\n")


def load_snapshots(path) -> VelocityHistory:
    """The checkpoints of a ``write_snapshots`` file, one row per hour and
    users sorted.  Every line is checked, whichever hours are read later:
    the hour and the velocity must be >= 0, as ``score`` writes them, and
    no hour may list a user twice.  The first line that fails raises a
    DataFileError naming it.  A user an hour does not list reads as
    velocity 0 at that hour.
    """
    rows: dict[int, tuple[list[str], array]] = {}
    names: dict[str, str] = {}  # one str per user across hours
    hour = None
    for lineno, (h, user, v) in table_rows(path, _snapshot_line):
        if h != hour:  # a run of lines of one hour starts, maybe an hour seen before
            hour = h
            listed, velocities = rows.setdefault(h, ([], array("d")))
            seen = set(listed)
        if user in seen:
            raise DataFileError(path, lineno, f"user {user!r} is listed again at hour {h}")
        user = names.setdefault(user, user)
        seen.add(user)
        listed.append(user)
        velocities.append(v)
    users = sorted(names)
    hours = sorted(rows)
    matrix = []
    for h in hours:
        listed, velocities = rows.pop(h)
        if listed != users:
            velocities = array("d", map(dict(zip(listed, velocities)).get, users, repeat(0.0)))
        matrix.append(velocities)
    return VelocityHistory(users, matrix, hours)


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
        """user<TAB>score lines, lexicographic user order, 12 significant
        digits; the file is replaced whole (``replacing``)."""
        with replacing(path, encoding="utf-8") as fh:
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
