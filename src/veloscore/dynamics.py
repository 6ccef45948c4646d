"""Damped-motion influence dynamics.

Each mentioned user is a body: mentions in an hour are applied force,
follower count is mass, and a constant damping term decays velocity when
no force arrives.  Velocity is clamped at zero.  Acceleration is the
realized per-hour velocity delta (post-clamp), which is what trending
detection ranks.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import kernels
from .ingest import DataFileError, HourBucket, UserGraph, table_file

MASS_MODES = ("raw_followers", "ln_followers")
FORCE_SOURCES = ("mentions", "retweets")

WEEK_HOURS = 168


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
    ``load_snapshots`` from ``snapshots.tsv``.  Row ``k`` of ``matrix``
    holds hour ``hours[k]`` (by default row k is hour k).  Untracked users
    and hours before the epoch read as velocity 0; any other hour that was
    not recorded is an error naming it.
    """

    def __init__(self, users: list[str], matrix: np.ndarray, hours: Optional[Sequence[int]] = None):
        self.users = users
        self.matrix = matrix
        self.hours = list(range(matrix.shape[0]) if hours is None else hours)
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

    def at(self, user: str, hour: int) -> float:
        """One user's entry of ``row(hour)``."""
        return self.row(hour).get(user, 0.0)


class ForceTable:
    """Sealed hours of force, added one bucket at a time, in compact form.

    Every user who receives a mention or a retweet attribution gets a
    provisional id, in order of first sight.  The ``force_source`` entries
    of hour ``t`` are ``f_users``/``f_counts[indptr[t]:indptr[t + 1]]``, in
    flat arrays.  ``total_force`` counts mention tokens, as
    ``estimate_zeta`` needs whatever the force source.
    """

    def __init__(self, force_source: str = "mentions"):
        if force_source not in FORCE_SOURCES:
            raise ValueError(f"force_source must be one of {FORCE_SOURCES}")
        self.force_source = force_source
        self.ids: dict[str, int] = {}
        self.indptr = array("q", [0])
        self.f_users = array("q")
        self.f_counts = array("d")
        self.total_force = 0

    @classmethod
    def of(cls, buckets: "ForceTable | Iterable[HourBucket]",
           force_source: str = "mentions") -> "ForceTable":
        """``buckets`` itself if it is a table, else the table of the buckets."""
        if isinstance(buckets, cls):
            return buckets
        table = cls(force_source)
        for b in buckets:
            table.add(b)
        return table

    @property
    def hours(self) -> int:
        return len(self.indptr) - 1

    def add(self, bucket: HourBucket) -> None:
        """Append the next hour; buckets must be contiguous from hour 0."""
        if bucket.hour_index != self.hours:
            raise ValueError(f"bucket sequence not contiguous at hour {bucket.hour_index}")
        ids = self.ids
        force, other = bucket.force, bucket.retweet_force
        if self.force_source == "retweets":
            force, other = other, force
        self.f_users.extend([ids.setdefault(u, len(ids)) for u in force])
        self.f_counts.extend(map(float, force.values()))
        for u in other:
            ids.setdefault(u, len(ids))
        self.total_force += bucket.total_force
        self.indptr.append(len(self.f_users))


class KineticsEngine:
    """Incremental hour-by-hour velocity state.

    Users enter the state when they first receive force; absent users are
    velocity 0 by definition.  Mass is frozen from the graph at first
    sight.  Besides the current state the engine keeps the velocities at
    each week end, so it holds O(users x weeks) values, and it answers
    only the current hour, a past week end or an hour before the epoch.
    """

    def __init__(self, cfg: KineticsConfig, graph: UserGraph):
        self.cfg = cfg
        self.graph = graph
        self.users: list[str] = []
        self._idx: dict[str, int] = {}
        self._mass = np.zeros(0, dtype=np.float64)
        self._v = np.zeros(0, dtype=np.float64)
        self._week_ends: dict[int, np.ndarray] = {}
        self._hour = -1

    @property
    def hour(self) -> int:
        return self._hour

    @property
    def tracked_users(self) -> list[str]:
        return sorted(self.users)

    def _force_map(self, bucket: HourBucket) -> Mapping[str, int]:
        if self.cfg.force_source == "retweets":
            return bucket.retweet_force
        return bucket.force

    def _register(self, new_users: Sequence[str]) -> None:
        masses = [self.cfg.mass_for(self.graph.followers_of(u)) for u in new_users]
        for u in new_users:
            self._idx[u] = len(self.users)
            self.users.append(u)
        self._mass = np.concatenate([self._mass, np.asarray(masses, dtype=np.float64)])
        self._v = np.concatenate([self._v, np.zeros(len(new_users))])

    def step_hour(self, bucket: HourBucket) -> None:
        """Advance state by one contiguous hour of force."""
        if bucket.hour_index != self._hour + 1:
            raise ValueError(
                f"bucket hour {bucket.hour_index} is not contiguous "
                f"(last processed {self._hour})"
            )
        force_map = self._force_map(bucket)
        new_users = sorted(u for u in force_map if u not in self._idx)
        if new_users:
            self._register(new_users)
        force = np.zeros(len(self.users))
        for u, c in force_map.items():
            force[self._idx[u]] = c
        self._v = kernels.velocity_step(self._v, force, self._mass, self.cfg.zeta)
        self._hour += 1
        if (self._hour + 1) % WEEK_HOURS == 0:
            self._week_ends[self._hour] = self._v  # the state is replaced, never written in place

    def run(self, buckets: Iterable[HourBucket]) -> "KineticsEngine":
        for b in buckets:
            self.step_hour(b)
        return self

    def _state(self, hour: int) -> np.ndarray:
        v = self._v if hour == self._hour else self._week_ends.get(hour)
        if v is None:
            raise ValueError(f"no velocity recorded for hour {hour}")
        return v

    def velocity_at(self, user: str, hour: int) -> float:
        """Velocity of a user at the end of the given hour; untracked -> 0.

        Any hour other than the current one, a past week end or one
        before the epoch is an error naming it.
        """
        if hour < 0:
            return 0.0
        v = self._state(hour)
        i = self._idx.get(user)
        return float(v[i]) if i is not None and i < v.shape[0] else 0.0

    def row(self, hour: int) -> dict[str, float]:
        """Every tracked user's velocity at the end of ``hour``, one that
        ``velocity_at`` answers, in ``users`` order; users first seen later read 0."""
        row = dict.fromkeys(self.users, 0.0)
        if hour >= 0:
            row.update(zip(self.users, self._state(hour).tolist()))
        return row

    def velocity(self, user: str) -> float:
        return self.velocity_at(user, self._hour)

    def trending(self, start_hour: int, end_hour: int, threshold: float, k: int,
                 window: str = "") -> list[TrendingEntry]:
        return rank_trending(self.row(start_hour), self.row(end_hour), threshold, k, window)


def replay(
    buckets: "ForceTable | Iterable[HourBucket]",
    cfg: KineticsConfig,
    graph: UserGraph,
    checkpoints: Optional[Iterable[int]] = None,
) -> VelocityHistory:
    """Replay sealed hours of force through the velocity kernel.

    ``buckets`` is a ForceTable built for ``cfg.force_source``, or a
    contiguous bucket sequence from hour 0.  Equivalent to stepping a
    KineticsEngine over the same hours, but runs one state vector through
    the whole stream and keeps only the hours in ``checkpoints`` (default:
    every hour).  Neither ``buckets`` nor a table is changed.
    """
    table = ForceTable.of(buckets, cfg.force_source)
    if table.force_source != cfg.force_source:
        raise ValueError(f"force table holds {table.force_source}, not {cfg.force_source}")
    rows = list(range(table.hours)) if checkpoints is None else sorted(set(checkpoints))
    if rows and not 0 <= rows[0] <= rows[-1] < table.hours:
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise ValueError(f"cannot checkpoint hour {bad} of a {table.hours}-hour stream")
    names = list(table.ids)
    f_users = np.frombuffer(table.f_users, dtype=np.int64)
    forced = np.zeros(len(names), dtype=bool)
    forced[f_users] = True
    order = sorted(np.flatnonzero(forced).tolist(), key=names.__getitem__)
    mass = np.array([cfg.mass_for(graph.followers_of(u)) for u in names], dtype=np.float64)
    matrix = kernels.velocity_replay(
        np.frombuffer(table.indptr, dtype=np.int64),
        f_users,
        np.frombuffer(table.f_counts, dtype=np.float64),
        mass,
        float(cfg.zeta),
        len(names),
        rows,
    )
    return VelocityHistory([names[i] for i in order], matrix[:, order], rows)


def estimate_zeta(buckets: "ForceTable | Iterable[HourBucket]", graph: UserGraph) -> float:
    """Damping constant: mean mentions per hour per active user, divided by
    the mean follower count of a graph user.

    Active users received a mention or a retweet attribution; ``buckets``
    is a ForceTable or a contiguous bucket sequence from hour 0.
    """
    if graph.n == 0:
        raise ValueError("cannot estimate damping on an empty graph")
    table = ForceTable.of(buckets)
    if table.hours == 0:
        raise ValueError("cannot estimate damping with zero hours")
    total, active = table.total_force, len(table.ids)
    if total == 0 or not active:
        return 0.0
    mean_followers = graph.mean_followers()
    if mean_followers <= 0:
        raise ValueError("mean follower count is zero; damping undefined")
    return (total / (table.hours * active)) / mean_followers


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
    users sorted.  Every line is checked, whichever hours are read later;
    a user an hour does not list reads as velocity 0 at that hour."""
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
            row = rows.setdefault(h, {})
            if user in row:
                raise DataFileError(path, lineno, f"user {user!r} is listed again at hour {h}")
            row[user] = v
    users = sorted(set().union(*rows.values()))
    col = {u: i for i, u in enumerate(users)}
    hours = sorted(rows)
    matrix = np.zeros((len(hours), len(users)), dtype=np.float64)
    for k, h in enumerate(hours):
        matrix[k, [col[u] for u in rows[h]]] = list(rows[h].values())
    return VelocityHistory(users, matrix, hours)
