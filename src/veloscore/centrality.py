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
from array import array
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import DEFAULT_DAMPING, DEFAULT_MAX_ITER, DEFAULT_RETWEET_PROB, DEFAULT_TOL
from .core import SCORERS, Scorer, ScoreVector  # noqa: F401  (re-exported)
from .ingest import StreamDigest, UserGraph


def _check_iteration(tol: float, max_iter: int) -> None:
    """ValueError unless ``max_iter`` >= 1 and ``tol`` is finite and >= 0: with
    no iteration a scorer would report its start vector as converged."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def _iterated(algorithm: str, users: list[str], values: np.ndarray, history: list,
              tol: float) -> ScoreVector:
    """The ScoreVector of an iterative scorer, from the residual of each
    round that ``kernels.fixed_point`` ran."""
    history = [float(r) for r in history]
    return ScoreVector(
        algorithm, list(users), values.tolist(),
        iterations=len(history), residual=history[-1],
        converged=history[-1] <= tol, residual_history=history,
    )


def _offsets(graph: UserGraph) -> np.ndarray:
    """Where each follower's run of edges starts, then the edge count, so
    ``np.diff`` of it is each user's followee count.  The edge keys are
    sorted, so follower i's edges are the run of keys in [i * n, (i + 1) * n)."""
    keys = np.frombuffer(graph.edge_keys, dtype=np.int64)  # a view, not a copy
    return np.searchsorted(keys, np.arange(graph.n + 1, dtype=np.int64) * graph.n)


def _followees(graph: UserGraph) -> np.ndarray:
    """The followee index of each edge."""
    return np.frombuffer(graph.edge_keys, dtype=np.int64) % max(graph.n, 1)


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
    offsets, dst = _offsets(graph), _followees(graph)
    out_deg = np.diff(offsets)
    dangling = out_deg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_deg[~dangling]
    scores, history = kernels.fixed_point(
        lambda r: kernels.pagerank_kernel(r, offsets, dst, inv_out, dangling, n, damping),
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
    offsets, dst = _offsets(graph), _followees(graph)
    safe_out = np.maximum(np.diff(offsets), 1)
    raw, history = kernels.fixed_point(
        lambda score: kernels.tunkrank_kernel(score, offsets, dst, safe_out, p, n),
        np.zeros(n), float(tol), int(max_iter),
    )
    total = raw.sum()
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


def build_retweet_graph(digest: StreamDigest, graph: UserGraph) -> RetweetGraph:
    """Derive the weighted retweet graph from the stream digest's retweet
    attributions.

    Pairs without a follow edge are dropped and counted; a followee with
    no authored events in the window yields no edge.  Users and edges come
    in name order, as ``graph.users`` does.
    """
    # one pass over the pairs: the follow key i * n + j of each pair on the
    # graph (see UserGraph), its count and the followee's authored events
    n, index, authored = graph.n, graph.index, digest.authored
    keys, counts, opportunities = array("q"), array("q"), array("q")
    dropped = 0
    for a, targets in digest.retweets.items():
        i = index(a)
        if i is None:
            dropped += len(targets)
            continue
        for b, cnt in targets.items():
            j = index(b)
            if j is None:
                dropped += 1
                continue
            keys.append(i * n + j)
            counts.append(cnt)
            opportunities.append(authored.get(b, 0))

    keys = np.frombuffer(keys, dtype=np.int64)
    order = np.argsort(keys)  # the keys are unique: the digest holds each pair once
    keys = keys[order]
    follow_keys = np.frombuffer(graph.edge_keys, dtype=np.int64)
    pos = np.searchsorted(follow_keys, keys)
    followed = pos < follow_keys.size  # a key past the last edge has none to match
    followed[followed] = follow_keys[pos[followed]] == keys[followed]
    dropped += keys.size - int(np.count_nonzero(followed))
    opportunities = np.frombuffer(opportunities, dtype=np.int64)[order]
    kept = followed & (opportunities > 0)
    weights = np.minimum(1.0, np.frombuffer(counts, dtype=np.int64)[order][kept]
                         / opportunities[kept])
    src, dst = np.divmod(keys[kept], max(n, 1))
    incident = np.zeros(n, dtype=bool)
    incident[src] = True
    incident[dst] = True
    ids = np.flatnonzero(incident)  # graph indices follow name order, as users do
    users = [graph.users[k] for k in ids.tolist()]
    return RetweetGraph(users, np.searchsorted(ids, src), np.searchsorted(ids, dst), weights,
                        dropped_no_follow=dropped)


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
    return ScoreVector("followers", list(graph.users), list(map(float, graph.follower_count)))


def ratio_score(graph: UserGraph) -> ScoreVector:
    """Followers/followees ratio; a user following nobody keeps a
    denominator of 1 so the score stays finite."""
    out_deg = np.maximum(np.diff(_offsets(graph)), 1)
    values = np.frombuffer(graph.follower_count, dtype=np.int64) / out_deg
    return ScoreVector("ratio", list(graph.users), values.tolist())
