"""Damped-motion influence dynamics.

Each mentioned user is a body: mentions in an hour are applied force,
follower count is mass, and a constant damping term decays velocity when
no force arrives.  Velocity is clamped at zero.  Acceleration is the
realized per-hour velocity delta (post-clamp), which is what trending
detection ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import kernels
from .ingest import DataFileError, HourBucket, UserGraph

MASS_MODES = ("raw_followers", "ln_followers")
FORCE_SOURCES = ("mentions", "retweets")

WEEK_HOURS = 168


def week_end_hour(week: int, week_hours: int = WEEK_HOURS) -> int:
    """Last hour index of the given week (week 0 ends at hour 167)."""
    return (week + 1) * week_hours - 1


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
    """Dense per-hour velocity history for a fixed set of tracked users.

    Untracked users and hours before the epoch read as velocity 0.
    """

    def __init__(self, users: list[str], matrix: np.ndarray):
        self.users = users
        self.matrix = matrix
        self._idx = {u: i for i, u in enumerate(users)}

    @property
    def final_hour(self) -> int:
        return self.matrix.shape[0] - 1

    def at(self, user: str, hour: int) -> float:
        if hour > self.final_hour:
            raise ValueError(f"no velocity recorded for hour {hour}")
        if hour < 0:
            return 0.0
        i = self._idx.get(user)
        return float(self.matrix[hour, i]) if i is not None else 0.0

    def acceleration_at(self, user: str, hour: int) -> float:
        return self.at(user, hour) - self.at(user, hour - 1)

    def velocity_map(self, hour: int) -> dict[str, float]:
        return {u: self.at(u, hour) for u in self.users}

    def final_map(self) -> dict[str, float]:
        return self.velocity_map(self.final_hour)


class KineticsEngine:
    """Incremental hour-by-hour velocity state.

    Users enter the state when they first receive force; absent users are
    velocity 0 by definition.  Mass is frozen from the graph at first
    sight.  Every processed hour is snapshotted so any past boundary can
    be queried.
    """

    def __init__(self, cfg: KineticsConfig, graph: UserGraph):
        self.cfg = cfg
        self.graph = graph
        self._users: list[str] = []
        self._idx: dict[str, int] = {}
        self._mass = np.zeros(0, dtype=np.float64)
        self._v = np.zeros(0, dtype=np.float64)
        self._a = np.zeros(0, dtype=np.float64)
        self._snaps: list[np.ndarray] = []
        self._hour = -1

    @property
    def hour(self) -> int:
        return self._hour

    @property
    def tracked_users(self) -> list[str]:
        return sorted(self._users)

    def _force_map(self, bucket: HourBucket) -> Mapping[str, int]:
        if self.cfg.force_source == "retweets":
            return bucket.retweet_force
        return bucket.force

    def _register(self, new_users: Sequence[str]) -> None:
        masses = [self.cfg.mass_for(self.graph.followers_of(u)) for u in new_users]
        for u in new_users:
            self._idx[u] = len(self._users)
            self._users.append(u)
        self._mass = np.concatenate([self._mass, np.asarray(masses, dtype=np.float64)])
        self._v = np.concatenate([self._v, np.zeros(len(new_users))])
        self._a = np.concatenate([self._a, np.zeros(len(new_users))])

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
        force = np.zeros(len(self._users))
        for u, c in force_map.items():
            force[self._idx[u]] = c
        v_new = np.maximum(0.0, self._v + force / self._mass - self.cfg.zeta)
        self._a = v_new - self._v
        self._v = v_new
        self._hour += 1
        self._snaps.append(v_new.copy())

    def run(self, buckets: Iterable[HourBucket]) -> "KineticsEngine":
        for b in buckets:
            self.step_hour(b)
        return self

    def velocity_at(self, user: str, hour: int) -> float:
        """Velocity of a user at the end of the given hour; untracked -> 0."""
        if hour > self._hour:
            raise ValueError(f"no velocity recorded for hour {hour}")
        if hour < 0:
            return 0.0
        i = self._idx.get(user)
        if i is None:
            return 0.0
        snap = self._snaps[hour]
        return float(snap[i]) if i < snap.shape[0] else 0.0

    def velocity(self, user: str) -> float:
        return self.velocity_at(user, self._hour) if self._hour >= 0 else 0.0

    def acceleration(self, user: str) -> float:
        i = self._idx.get(user)
        return float(self._a[i]) if i is not None else 0.0

    def history(self) -> VelocityHistory:
        """Materialize the full history as a dense matrix view."""
        n_hours = self._hour + 1
        users = self.tracked_users
        matrix = np.zeros((n_hours, len(users)))
        order = [self._idx[u] for u in users]
        for t, snap in enumerate(self._snaps):
            for col, i in enumerate(order):
                if i < snap.shape[0]:
                    matrix[t, col] = snap[i]
        return VelocityHistory(users, matrix)

    def trending(self, start_hour: int, end_hour: int, threshold: float, k: int,
                 window: str = "") -> list[TrendingEntry]:
        v_start = {u: self.velocity_at(u, start_hour) for u in self._users}
        v_end = {u: self.velocity_at(u, end_hour) for u in self._users}
        return rank_trending(v_start, v_end, threshold, k, window)


def replay(
    buckets: Sequence[HourBucket],
    cfg: KineticsConfig,
    graph: UserGraph,
) -> VelocityHistory:
    """Batch-replay a sealed bucket sequence through the velocity kernel.

    Equivalent to stepping a KineticsEngine over the same buckets, but
    runs the whole stream through one compiled loop.
    """
    users_set: set[str] = set()
    for b in buckets:
        users_set.update(b.retweet_force if cfg.force_source == "retweets" else b.force)
    users = sorted(users_set)
    idx = {u: i for i, u in enumerate(users)}
    mass = np.array([cfg.mass_for(graph.followers_of(u)) for u in users], dtype=np.float64)
    if not users:
        return VelocityHistory([], np.zeros((len(buckets), 0)))

    indptr = np.zeros(len(buckets) + 1, dtype=np.int64)
    f_users: list[int] = []
    f_counts: list[float] = []
    for t, b in enumerate(buckets):
        if b.hour_index != t:
            raise ValueError(f"bucket sequence not contiguous at hour {b.hour_index}")
        fm = b.retweet_force if cfg.force_source == "retweets" else b.force
        for u in sorted(fm):
            f_users.append(idx[u])
            f_counts.append(float(fm[u]))
        indptr[t + 1] = len(f_users)
    matrix = kernels.velocity_replay(
        indptr,
        np.asarray(f_users, dtype=np.int64),
        np.asarray(f_counts, dtype=np.float64),
        mass,
        float(cfg.zeta),
        len(users),
    )
    return VelocityHistory(users, matrix)


def estimate_zeta(buckets: Sequence[HourBucket], graph: UserGraph) -> float:
    """Damping constant: mean mentions per hour per active user, divided by
    the mean follower count of a graph user."""
    buckets = list(buckets)
    if graph.n == 0:
        raise ValueError("cannot estimate damping on an empty graph")
    hours = len(buckets)
    if hours == 0:
        raise ValueError("cannot estimate damping with zero hours")
    total = 0
    active: set[str] = set()
    for b in buckets:
        total += sum(b.force.values())
        active.update(b.force)
        active.update(b.retweet_force)
    if total == 0 or not active:
        return 0.0
    mean_followers = graph.mean_followers()
    if mean_followers <= 0:
        raise ValueError("mean follower count is zero; damping undefined")
    return (total / (hours * len(active))) / mean_followers


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


def trending_for_window(
    history: VelocityHistory,
    start_hour: int,
    end_hour: int,
    threshold: float,
    k: int,
    window: str = "",
) -> list[TrendingEntry]:
    """Trending ranking between two recorded hour boundaries."""
    v_start = {u: history.at(u, start_hour) for u in history.users}
    v_end = {u: history.at(u, end_hour) for u in history.users}
    return rank_trending(v_start, v_end, threshold, k, window)


class SnapshotTable:
    """Checkpointed velocities loaded from a snapshot file.

    Only the persisted hours are queryable; asking for a missing boundary
    is an error naming the hour.  Hours before the epoch read as 0.
    """

    def __init__(self, hours: dict[int, dict[str, tuple[float, float]]], final_hour: int):
        self.hours = hours
        self.final_hour = final_hour

    def at(self, user: str, hour: int) -> float:
        if hour < 0:
            return 0.0
        snap = self.hours.get(hour)
        if snap is None:
            raise ValueError(f"no snapshot for hour boundary {hour}")
        entry = snap.get(user)
        return entry[0] if entry is not None else 0.0

    def velocity_map(self, hour: int) -> dict[str, float]:
        if hour < 0:
            return {}
        snap = self.hours.get(hour)
        if snap is None:
            raise ValueError(f"no snapshot for hour boundary {hour}")
        return {u: va[0] for u, va in snap.items()}


def write_snapshots(path, history: VelocityHistory, hours: Sequence[int]) -> None:
    """Persist checkpoints as hour<TAB>user<TAB>velocity<TAB>acceleration,
    lexicographic user order within each hour."""
    with open(path, "w", encoding="utf-8") as fh:
        for h in sorted(set(hours)):
            for u in history.users:
                v = history.at(u, h)
                a = history.acceleration_at(u, h)
                fh.write(f"{h}\t{u}\t{v!r}\t{a!r}\n")


def load_snapshots(path) -> SnapshotTable:
    hours: dict[int, dict[str, tuple[float, float]]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                h_s, user, v_s, a_s = line.split("\t")
                hours.setdefault(int(h_s), {})[user] = (float(v_s), float(a_s))
            except ValueError as exc:
                raise DataFileError(path, lineno, exc) from None
    final_hour = max(hours) if hours else -1
    return SnapshotTable(hours, final_hour)
