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


def _out_degree(graph: UserGraph) -> np.ndarray:
    """Each user's followee count.  The edge keys are sorted, so follower i's
    edges are the run of keys in [i * n, (i + 1) * n), and ``np.repeat(x,
    out_degree)`` spreads a value per follower over the follower's edges."""
    keys = np.frombuffer(graph.edge_keys, dtype=np.int64)  # a view, not a copy
    return np.diff(np.searchsorted(keys, np.arange(graph.n + 1, dtype=np.int64) * graph.n))


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
    out_deg, dst = _out_degree(graph), _followees(graph)
    dangling = out_deg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_deg[~dangling]
    scores, history = kernels.fixed_point(
        lambda r: kernels.pagerank_kernel(r, out_deg, dst, inv_out, dangling, n, damping),
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
    out_deg, dst = _out_degree(graph), _followees(graph)
    safe_out = np.maximum(out_deg, 1)
    raw, history = kernels.fixed_point(
        lambda score: kernels.tunkrank_kernel(score, out_deg, dst, safe_out, p, n),
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


def build_retweet_graph(digest: StreamDigest, graph: UserGraph) -> RetweetGraph:
    """Derive the weighted retweet graph from the stream digest's retweet
    attributions.

    Pairs without a follow edge are dropped and counted; a followee with
    no authored events in the window yields no edge.
    """
    authored = digest.authored
    pairs = sorted(((a, b), cnt) for a, counts in digest.retweets.items()
                   for b, cnt in counts.items())

    # follow edge i -> j as the key i * n + j, increasing (see UserGraph);
    # -1 for a pair with a user off the graph
    n = graph.n
    follow_keys = np.frombuffer(graph.edge_keys, dtype=np.int64)
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
    return ScoreVector("followers", list(graph.users), list(map(float, graph.follower_count)))


def ratio_score(graph: UserGraph) -> ScoreVector:
    """Followers/followees ratio; a user following nobody keeps a
    denominator of 1 so the score stays finite."""
    out_deg = np.maximum(_out_degree(graph), 1)
    values = np.frombuffer(graph.follower_count, dtype=np.int64) / out_deg
    return ScoreVector("ratio", list(graph.users), values.tolist())
