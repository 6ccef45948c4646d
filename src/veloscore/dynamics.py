"""Damped-motion influence dynamics.

Each mentioned user is a body: mentions in an hour are applied force,
follower count is mass, and a constant damping term decays velocity when
no force arrives.  Velocity is clamped at zero.  Acceleration is the
realized per-hour velocity delta (post-clamp), which is what trending
detection ranks.

The velocity parameters, the hourly force table, the batch replay and the
damping estimate, the checkpoint type with its file format, and trending
need no numpy, so they are defined in ``core`` and imported here.  The
engine below steps a numpy vector through ``kernels.velocity_step``, the
same law as ``core.velocity_replay`` in whole-vector form.
"""

from __future__ import annotations

from array import array

import numpy as np

from . import kernels
# loading dynamics loads every module perfbench's traced child wraps: it
# imports cli and dynamics, then wraps the functions of the modules loaded by then
from . import centrality, evaluation  # noqa: F401
from .core import WEEK_HOURS, KineticsConfig, TrendingEntry, intake, rank_trending
from .core import (FORCE_SOURCES, MASS_MODES, ForceTable, VelocityHistory,  # noqa: F401
                   estimate_zeta, load_snapshots, replay, week_end_hour, write_snapshots)
from .ingest import HourBucket, UserGraph


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
