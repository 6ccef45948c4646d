"""Damped-motion influence dynamics.

Each mentioned user is a body: mentions in an hour are applied force,
follower count is mass, and a constant damping term decays velocity when
no force arrives.  Velocity is clamped at zero.  Acceleration is the
realized per-hour velocity delta (post-clamp), which is what trending
detection ranks.

The velocity parameters, the checkpoint type with its file format, and
trending need no numpy, so they are defined in ``core`` and imported here.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import kernels
# loading dynamics loads the rest of the numpy layer: perfbench's traced child
# imports cli and dynamics, then wraps the functions of the modules loaded by then
from . import centrality, evaluation  # noqa: F401
from .core import (FORCE_SOURCES, WEEK_HOURS, KineticsConfig, TrendingEntry, VelocityHistory,
                   rank_trending)
from .core import MASS_MODES, load_snapshots, week_end_hour, write_snapshots  # noqa: F401
from .ingest import HourBucket, UserGraph


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
