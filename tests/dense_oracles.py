"""Independent dense oracles: the velocity law run per user in plain
Python, plain matrix iterations for the centrality scorers over small
adjacency and weight matrices, the retweet graph built one pair at a
time, the graphs the scorers take built from those matrices or from
name pairs, the snapshot file read into per-hour dicts a line at a time,
and trending ranked in full."""

import math
from array import array
from typing import Iterable, Optional

import numpy as np

from veloscore.centrality import RetweetGraph
from veloscore.core import DataFileError, TrendingEntry, VelocityHistory, table_rows
from veloscore.ingest import UserGraph


def velocity_oracle(buckets, cfg, graph):
    """The velocity law ``v = max(0.0, v + force / mass - zeta)``, one user
    at a time in plain Python, every hour from 0.  Force is the
    ``cfg.force_source`` count of each bucket and mass each user's
    ``cfg.mass_for`` mass.  Returns the users who receive force, sorted,
    and one {user: velocity} per hour, in that order."""
    forces = [b.retweet_force if cfg.force_source == "retweets" else b.force for b in buckets]
    users = sorted(set().union(*forces))
    rows = [{} for _ in buckets]
    for u in users:
        mass, v = cfg.mass_for(graph.followers_of(u)), 0.0
        for row, force in zip(rows, forces):
            v = max(0.0, v + force.get(u, 0) / mass - cfg.zeta)
            row[u] = v
    return users, rows


def dense_pagerank(adj, damping, tol, max_iter):
    """adj[i, j] = 1 when i follows j; straight matrix power iteration."""
    n = adj.shape[0]
    out_deg = adj.sum(axis=1)
    m = np.zeros((n, n))
    for i in range(n):
        if out_deg[i] > 0:
            m[:, i] = adj[i] / out_deg[i]
        else:
            m[:, i] = 1.0 / n
    r = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new = (1.0 - damping) / n + damping * (m @ r)
        resid = np.abs(new - r).sum()
        r = new
        if resid <= tol:
            break
    return r


def dense_tunkrank(adj, p, tol, max_iter):
    n = adj.shape[0]
    out_deg = adj.sum(axis=1)
    score = np.zeros(n)
    for _ in range(max_iter):
        new = np.zeros(n)
        for u in range(n):
            for f in range(n):
                if adj[f, u]:
                    new[u] += (1.0 + p * score[f]) / out_deg[f]
        resid = np.abs(new - score).sum()
        score = new
        if resid <= tol:
            break
    total = score.sum()
    return score / total if total > 0 else score


def dense_ip(weight, mask, tol, max_iter):
    """weight[i, j] on follower i -> followee j edges (mask marks edges)."""
    n = mask.shape[0]
    acc_total = (weight * mask).sum(axis=0)
    rej_total = ((1.0 - weight) * mask).sum(axis=0)
    f_mat = np.zeros((n, n))
    q_mat = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if mask[i, j]:
                if acc_total[j] > 0:
                    f_mat[i, j] = weight[i, j] / acc_total[j]
                if rej_total[j] > 0:
                    q_mat[i, j] = (1.0 - weight[i, j]) / rej_total[j]
    influence = np.full(n, 1.0 / n)
    passivity = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        inf_new = f_mat.T @ passivity
        total = inf_new.sum()
        inf_new = inf_new / total if total > 0 else influence.copy()
        pas_new = q_mat @ inf_new
        total = pas_new.sum()
        if total > 0:
            pas_new = pas_new / total
        resid = np.abs(inf_new - influence).sum() + np.abs(pas_new - passivity).sum()
        influence, passivity = inf_new, pas_new
        if resid <= tol:
            break
    return influence, passivity


def graph_from_edges(pairs: Iterable[tuple[str, str]],
                     overrides: Optional[dict[str, int]] = None) -> UserGraph:
    """The follower graph of the (follower, followee) name pairs, as
    ``load_graph`` builds it; ``overrides`` are follower counts."""
    ids: dict[str, int] = {}
    followees: list[array] = []  # by id: each pair's followee id, as load_graph lists them
    for a, b in pairs:
        for name in (a, b):
            if name not in ids:
                ids[name] = len(followees)
                followees.append(array("I"))
        followees[ids[a]].append(ids[b])
    return UserGraph.from_ids(list(ids), followees, overrides)[0]


def graph_from_adj(adj):
    n = adj.shape[0]
    names = [f"u{i}" for i in range(n)]
    pairs = {(names[i], names[j]) for i in range(n) for j in range(n) if adj[i, j]}
    return graph_from_edges(pairs, overrides={u: 0 for u in names})


def rg_from_matrix(weight, mask):
    n = mask.shape[0]
    names = [f"u{i}" for i in range(n)]
    src, dst, w = [], [], []
    for i in range(n):
        for j in range(n):
            if mask[i, j]:
                src.append(i)
                dst.append(j)
                w.append(weight[i, j])
    return RetweetGraph(names, np.array(src, dtype=np.int64),
                        np.array(dst, dtype=np.int64), np.array(w))


def reference_retweet_graph(digest, graph) -> RetweetGraph:
    """The retweet graph of ``digest`` on ``graph``, one sorted name pair at
    a time: a pair is kept when the follow edge exists and the followee
    authored an event, with weight ``min(1.0, count / authored)``; a pair
    without a follow edge is counted as dropped.  Users are the names on a
    kept edge, sorted."""
    pairs = sorted(((a, b), cnt) for a, counts in digest.retweets.items()
                   for b, cnt in counts.items())
    follows = set(graph.edge_keys)  # follow edge i -> j as the key i * n + j
    incident: set[str] = set()
    kept: list[tuple[str, str, float]] = []
    dropped = 0
    for (a, b), cnt in pairs:
        i, j = graph.index(a), graph.index(b)
        if i is None or j is None or i * graph.n + j not in follows:
            dropped += 1
            continue
        opportunities = digest.authored.get(b, 0)
        if opportunities == 0:
            continue
        kept.append((a, b, min(1.0, cnt / opportunities)))
        incident.update((a, b))
    users = sorted(incident)
    idx = {u: k for k, u in enumerate(users)}
    return RetweetGraph(users, np.array([idx[a] for a, _, _ in kept], dtype=np.int64),
                        np.array([idx[b] for _, b, _ in kept], dtype=np.int64),
                        np.array([w for _, _, w in kept], dtype=np.float64),
                        dropped_no_follow=dropped)


def reference_load_snapshots(path) -> VelocityHistory:
    """``load_snapshots`` a line at a time into one {user: velocity} dict
    per hour: the same checks, in file order, and the same DataFileError."""
    def parse(line):
        h_s, user, v_s, a_s = line.split("\t")
        h, v, a = int(h_s), float(v_s), float(a_s)
        if not (math.isfinite(v) and math.isfinite(a)):
            raise ValueError("velocity and acceleration must be finite")
        if h < 0:
            raise ValueError(f"hour {h} is before the epoch")
        if v < 0:
            raise ValueError(f"velocity {v_s} is negative")
        return h, user, v

    rows: dict[int, dict[str, float]] = {}
    for lineno, (h, user, v) in table_rows(path, parse):
        row = rows.setdefault(h, {})
        if user in row:
            raise DataFileError(path, lineno, f"user {user!r} is listed again at hour {h}")
        row[user] = v
    users = sorted(set().union(*rows.values()))
    hours = sorted(rows)
    return VelocityHistory(users, [array("d", [rows[h].get(u, 0.0) for u in users])
                                   for h in hours], hours)


def reference_rank_trending(v_start, v_end, threshold, k, window=""):
    """``rank_trending`` by an entry for every passing user, all of them
    sorted, then the first ``k``."""
    entries = []
    for u in sorted(set(v_start) | set(v_end)):
        v0 = v_start.get(u, 0.0)
        dv = v_end.get(u, 0.0) - v0
        rel = (math.inf if dv > 0.0 else 0.0) if v0 == 0.0 else dv / v0
        if not rel < threshold:
            entries.append(TrendingEntry(u, window, dv, rel))
    entries.sort(key=lambda e: (-e.acceleration, e.user))
    return entries[:max(k, 0)]
