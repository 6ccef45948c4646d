"""The part of veloscore that runs on the standard library alone.

It holds what the command-line parser and `trend` need: the checked
table reader, the week arithmetic, the velocity parameters, the
checkpoint type with its file format, trending, and the table of
centrality scorers with their defaults.  So `veloscore trend` ranks two
checkpoint rows without loading numpy.  `ingest`, `dynamics` and
`centrality` import these names back; each is defined here once.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional, Sequence, TextIO

WEEK_HOURS = 168

MASS_MODES = ("raw_followers", "ln_followers")
FORCE_SOURCES = ("mentions", "retweets")

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
DEFAULT_DAMPING = 0.85
DEFAULT_RETWEET_PROB = 0.05


class DataFileError(ValueError):
    """A malformed line in a table a command reads whole; names the file and line."""

    def __init__(self, path, lineno: int, problem):
        super().__init__(f"{path}:{lineno}: {problem}")


@contextmanager
def table_file(path) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text; bytes that are not UTF-8 raise a
    DataFileError naming the first line that holds them."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            pass
        else:
            return
    lineno = 0
    with open(path, "rb") as fh:  # the decoder reads ahead, so find the line afresh
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    raise DataFileError(path, lineno, "not valid UTF-8")


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
    ``k`` of ``matrix`` holds hour ``hours[k]`` (by default row k is hour
    k).  Untracked users and hours before the epoch read as velocity 0;
    any other hour that was not recorded is an error naming it.
    """

    def __init__(self, users: list[str], matrix, hours: Optional[Sequence[int]] = None):
        self.users = users
        self.matrix = matrix
        self.hours = list(range(len(matrix)) if hours is None else hours)
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
    infinite relative increase.
    """
    if k <= 0:
        return []
    entries = []
    for u in sorted(set(v_start) | set(v_end)):
        v0 = v_start.get(u, 0.0)
        v1 = v_end.get(u, 0.0)
        dv = v1 - v0
        if v0 == 0.0:
            rel = math.inf if dv > 0.0 else 0.0
        else:
            rel = dv / v0
        if rel < threshold:
            continue
        entries.append(TrendingEntry(u, window, dv, rel))
    entries.sort(key=lambda e: (-e.acceleration, e.user))
    return entries[:k]


def write_snapshots(path, history: VelocityHistory, hours: Sequence[int]) -> None:
    """Persist checkpoints as hour<TAB>user<TAB>velocity<TAB>acceleration,
    lexicographic user order within each hour."""
    with open(path, "w", encoding="utf-8") as fh:
        for h in sorted(set(hours)):
            before = history.row(h - 1)
            for u, v in history.row(h).items():
                fh.write(f"{h}\t{u}\t{v!r}\t{v - before[u]!r}\n")


def load_snapshots(path) -> VelocityHistory:
    """The checkpoints of a ``write_snapshots`` file, one row per hour and
    users sorted.  Every line is checked, whichever hours are read later:
    the hour and the velocity must be >= 0, as ``score`` writes them; a
    user an hour does not list reads as velocity 0 at that hour."""
    rows: dict[int, dict[str, float]] = {}
    with table_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                h_s, user, v_s, a_s = line.split("\t")
                h, v, a = int(h_s), float(v_s), float(a_s)  # a is checked, not kept
            except ValueError as exc:
                raise DataFileError(path, lineno, exc) from None
            if not (math.isfinite(v) and math.isfinite(a)):
                raise DataFileError(path, lineno, "velocity and acceleration must be finite")
            if h < 0:
                raise DataFileError(path, lineno, f"hour {h} is before the epoch")
            if v < 0:
                raise DataFileError(path, lineno, f"velocity {v_s} is negative")
            row = rows.setdefault(h, {})
            if user in row:
                raise DataFileError(path, lineno, f"user {user!r} is listed again at hour {h}")
            row[user] = v
    users = sorted(set().union(*rows.values()))
    hours = sorted(rows)
    return VelocityHistory(users, [array("d", [rows[h].get(u, 0.0) for u in users])
                                   for h in hours], hours)


@dataclass(frozen=True)
class Scorer:
    """One ``--algorithm`` choice: the vectors it writes, those ``eval`` reports,
    whether it needs the stream, and its run on (the ``centrality`` module,
    graph, retweet graph, flags), giving ``ScoreVector``s."""

    outputs: tuple[str, ...]
    reported: tuple[str, ...]
    needs_stream: bool
    run: Callable[..., tuple]


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
    "followers": Scorer(("followers",), (), False, lambda c, g, rg, a: (c.followers_score(g),)),
    # most users follow the same number of users, so its corrected values are
    # one constant up to rounding: a row would be noise or a zero variance
    "ratio": Scorer(("ratio",), (), False, lambda c, g, rg, a: (c.ratio_score(g),)),
}
