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
from typing import Iterable

import numpy as np

from . import kernels
# loading dynamics loads every module perfbench's traced child wraps: it
# imports cli and dynamics, then wraps the functions of the modules loaded by then
from . import centrality, evaluation  # noqa: F401
from .core import (FORCE_SOURCES, WEEK_HOURS, KineticsConfig, TrendingEntry, VelocityHistory,
                   rank_trending)
from .core import MASS_MODES, load_snapshots, week_end_hour, write_snapshots  # noqa: F401
from .ingest import HourBucket, UserGraph


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


class KineticsEngine:
    """Incremental hour-by-hour velocity state.

    Users enter the state (``users``) when they first receive force, by
    ``intake``; absent users are velocity 0 by definition.  Mass is frozen
    from the graph at first sight.  Besides the current state the engine
    keeps the velocities at each week end, so it holds O(users x weeks)
    values, and it answers only the current hour, a past week end or an
    hour before the epoch.
    """

    def __init__(self, cfg: KineticsConfig, graph: UserGraph):
        self.cfg = cfg
        self.graph = graph
        self.users: list[str] = []
        self._idx: dict[str, int] = {}
        self._mass = array("d")
        self._v = np.zeros(0, dtype=np.float64)
        self._week_ends: dict[int, np.ndarray] = {}
        self._hour = -1

    @property
    def hour(self) -> int:
        return self._hour

    @property
    def tracked_users(self) -> list[str]:
        return sorted(self.users)

    def step_hour(self, bucket: HourBucket) -> None:
        """Advance state by one contiguous hour of force."""
        force_map, idx = intake(bucket, self._hour + 1, self.cfg.force_source, self._idx)
        known = len(self.users)
        self.users.extend(u for u, i in zip(force_map, idx) if i >= known)
        if len(self.users) > known:  # new users start at rest, with mass frozen now
            self._mass.extend(self.cfg.mass_for(self.graph.followers_of(u))
                              for u in self.users[known:])
            self._v = np.concatenate((self._v, np.zeros(len(self.users) - known)))
        force = np.zeros(len(self.users))
        force[idx] = list(force_map.values())
        self._v = kernels.velocity_step(self._v, force, np.frombuffer(self._mass), self.cfg.zeta)
        self._hour += 1
        if (self._hour + 1) % WEEK_HOURS == 0:
            self._week_ends[self._hour] = self._v  # the state is replaced, never written in place

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


def replay(table: ForceTable, cfg: KineticsConfig, graph: UserGraph,
           checkpoints: Iterable[int]) -> VelocityHistory:
    """Replay the table's sealed hours of force through the velocity kernel.

    ``table`` must hold ``cfg.force_source`` force.  Equivalent to
    stepping a KineticsEngine over the same hours, but runs one state
    vector through the whole stream and keeps only the hours in
    ``checkpoints``.  The table is not changed.
    """
    if table.force_source != cfg.force_source:
        raise ValueError(f"force table holds {table.force_source}, not {cfg.force_source}")
    rows = sorted(set(checkpoints))
    if rows and not 0 <= rows[0] <= rows[-1] < table.hours:
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise ValueError(f"cannot checkpoint hour {bad} of a {table.hours}-hour stream")
    users = sorted(table.ids)
    mass = np.array([cfg.mass_for(graph.followers_of(u)) for u in table.ids], dtype=np.float64)
    matrix = kernels.velocity_replay(
        np.frombuffer(table.indptr, dtype=np.int64),
        np.frombuffer(table.f_users, dtype=np.int64),
        np.frombuffer(table.f_counts, dtype=np.float64),
        mass,
        float(cfg.zeta),
        len(table.ids),
        rows,
    )
    return VelocityHistory(users, matrix[:, [table.ids[u] for u in users]], rows)


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
