"""Baseline influence scorers on the follower graph and the retweet graph.

PageRank and TunkRank run on follower -> followee edges (a user endorses
whom they follow).  Influence/passivity runs on a retweet graph whose
edges exist only where a follow edge carries at least one retweet; edge
weight is the follower's retweet rate over the followee's authored
events.  Follower-count and followers/followees-ratio scorers are
zero-iteration baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import kernels
from .core import (DEFAULT_DAMPING, DEFAULT_MAX_ITER, DEFAULT_RETWEET_PROB, DEFAULT_TOL,
                   DataFileError, table_file)
from .core import SCORERS, Scorer  # noqa: F401  (re-exported)
from .ingest import Event, StreamDigest, UserGraph


def _check_iteration(tol: float, max_iter: int) -> None:
    """ValueError unless ``max_iter`` >= 1 and ``tol`` is finite and >= 0: with
    no iteration a scorer would report its start vector as converged."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


@dataclass
class ScoreVector:
    """Per-user scores with convergence metadata for one algorithm."""

    algorithm: str
    users: list[str]
    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True
    residual_history: Optional[np.ndarray] = None
    _idx: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._idx = {u: i for i, u in enumerate(self.users)}

    def get(self, user: str, default: float = 0.0) -> float:
        i = self._idx.get(user)
        return float(self.values[i]) if i is not None else default

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
        scores: dict[str, float] = {}
        with table_file(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    u, s = line.split("\t")
                    value = float(s)
                except ValueError as exc:
                    raise DataFileError(path, lineno, exc) from None
                if not math.isfinite(value):
                    raise DataFileError(path, lineno, f"score {s!r} is not finite")
                if u in scores:
                    raise DataFileError(path, lineno, f"user {u!r} is listed again")
                scores[u] = value
        return cls(algorithm or "file", list(scores),
                   np.fromiter(scores.values(), dtype=np.float64, count=len(scores)))


def _iterated(algorithm: str, users: list[str], values: np.ndarray, history: list,
              tol: float) -> ScoreVector:
    """The ScoreVector of an iterative scorer, from the residual of each
    round that ``kernels.fixed_point`` ran."""
    residual = float(history[-1])
    return ScoreVector(
        algorithm, list(users), values,
        iterations=len(history), residual=residual,
        converged=residual <= tol, residual_history=np.array(history),
    )


def pagerank(
    graph: UserGraph,
    damping: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScoreVector:
    """Standard PageRank over follower -> followee edges.

    Dangling mass is redistributed uniformly; scores sum to 1.
    """
    if graph.n == 0:
        raise ValueError("pagerank needs a non-empty graph")
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    _check_iteration(tol, max_iter)
    n, damping = graph.n, float(damping)
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    out_deg = graph.out_degree
    dangling = out_deg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_deg[~dangling]
    scores, history = kernels.fixed_point(
        lambda r: kernels.pagerank_kernel(r, src, dst, inv_out, dangling, n, damping),
        np.full(n, 1.0 / n), float(tol), int(max_iter),
    )
    return _iterated("pagerank", graph.users, scores, history, tol)


def tunkrank(
    graph: UserGraph,
    retweet_prob: float = DEFAULT_RETWEET_PROB,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ScoreVector:
    """Fixed point of influence(u) = sum over followers f of
    (1 + retweet_prob * influence(f)) / followees(f), reported normalized
    to sum 1."""
    if graph.n == 0:
        raise ValueError("tunkrank needs a non-empty graph")
    if not 0.0 <= retweet_prob <= 1.0:
        raise ValueError(f"retweet_prob must be in [0, 1], got {retweet_prob}")
    _check_iteration(tol, max_iter)
    n, p = graph.n, float(retweet_prob)
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    safe_out = np.maximum(graph.out_degree, 1)
    raw, history = kernels.fixed_point(
        lambda score: kernels.tunkrank_kernel(score, src, dst, safe_out, p, n),
        np.zeros(n), float(tol), int(max_iter),
    )
    total = raw.sum()
    # with no edges, bincount's sums (so every raw score) are int64 zeros
    scores = raw / total if total > 0 else np.zeros(n)
    return _iterated("tunkrank", graph.users, scores, history, tol)


@dataclass
class RetweetGraph:
    """Weighted retweet-rate edges restricted to existing follow edges.

    Edge (follower i -> followee j) with weight = retweets of j by i over
    events authored by j, clamped to [0, 1].
    """

    users: list[str]
    src: np.ndarray
    dst: np.ndarray
    weights: np.ndarray
    dropped_no_follow: int = 0

    @property
    def n(self) -> int:
        return len(self.users)

    @property
    def edge_count(self) -> int:
        return int(self.src.shape[0])


def build_retweet_graph(events: Iterable[Event] | StreamDigest, graph: UserGraph) -> RetweetGraph:
    """Derive the weighted retweet graph from retweet attributions.

    ``events`` is the stream or its digest.  Pairs without a follow edge
    are dropped and counted; a followee with no authored events in the
    window yields no edge.
    """
    digest = StreamDigest.of(events)
    authored = digest.authored
    pairs = sorted(((a, b), cnt) for a, counts in digest.retweets.items()
                   for b, cnt in counts.items())

    # follow edge i -> j as the key i * n + j, increasing (see UserGraph);
    # -1 for a pair with a user off the graph
    n = graph.n
    follow_keys = graph.edges[:, 0] * n
    follow_keys += graph.edges[:, 1]
    ij = [(graph.index(a), graph.index(b)) for (a, b), _ in pairs]
    keys = np.array([-1 if i is None or j is None else i * n + j for i, j in ij], dtype=np.int64)
    pos = np.searchsorted(follow_keys, keys)
    inside = pos < follow_keys.size  # a key past the last edge has none to match
    followed = np.zeros(keys.size, dtype=bool)
    followed[inside] = follow_keys[pos[inside]] == keys[inside]

    incident: set[str] = set()
    kept: list[tuple[str, str, float]] = []
    dropped = 0
    for ((i_user, j_user), cnt), follows in zip(pairs, followed):
        if not follows:
            dropped += 1
            continue
        opportunities = authored.get(j_user, 0)
        if opportunities == 0:
            continue
        weight = min(1.0, cnt / opportunities)
        kept.append((i_user, j_user, weight))
        incident.add(i_user)
        incident.add(j_user)

    users = sorted(incident)
    idx = {u: i for i, u in enumerate(users)}
    src = np.array([idx[a] for a, _, _ in kept], dtype=np.int64)
    dst = np.array([idx[b] for _, b, _ in kept], dtype=np.int64)
    weights = np.array([w for _, _, w in kept], dtype=np.float64)
    return RetweetGraph(users, src, dst, weights, dropped_no_follow=dropped)


def influence_passivity(
    rg: RetweetGraph,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ScoreVector, ScoreVector]:
    """Dual iterative scores over the retweet graph.

    A followee's influence accumulates followers' passivity weighted by
    the per-edge acceptance share; a follower's passivity accumulates
    followees' influence weighted by the rejection share.  Both vectors
    are L1-normalized each round.
    """
    _check_iteration(tol, max_iter)
    if rg.edge_count == 0:
        raise ValueError("retweet graph has no edges; influence/passivity undefined")
    n = rg.n
    acc_total = np.bincount(rg.dst, weights=rg.weights, minlength=n)
    rej_total = np.bincount(rg.dst, weights=1.0 - rg.weights, minlength=n)
    with np.errstate(divide="ignore", invalid="ignore"):
        f_e = np.where(acc_total[rg.dst] > 0, rg.weights / acc_total[rg.dst], 0.0)
        q_e = np.where(rej_total[rg.dst] > 0, (1.0 - rg.weights) / rej_total[rg.dst], 0.0)
    (influence, passivity), history = kernels.fixed_point(
        lambda state: kernels.ip_kernel(state, rg.src, rg.dst, f_e, q_e, n),
        (np.full(n, 1.0 / n), np.full(n, 1.0 / n)), float(tol), int(max_iter),
    )
    return (
        _iterated("ip_influence", rg.users, influence, history, tol),
        _iterated("ip_passivity", rg.users, passivity, history, tol),
    )


def followers_score(graph: UserGraph) -> ScoreVector:
    """Raw follower counts as a zero-iteration popularity score."""
    return ScoreVector("followers", list(graph.users), graph.follower_count.astype(np.float64))


def ratio_score(graph: UserGraph) -> ScoreVector:
    """Followers/followees ratio; a user following nobody keeps a
    denominator of 1 so the score stays finite."""
    out_deg = np.maximum(graph.out_degree, 1)
    values = graph.follower_count.astype(np.float64) / out_deg
    return ScoreVector("ratio", list(graph.users), values)
