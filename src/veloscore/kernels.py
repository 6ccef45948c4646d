"""Hot numeric inner loops, numpy only.

One implementation each: the velocity law and its replay, and the
PageRank, TunkRank and influence/passivity iterations.  Every kernel is
a sequence of whole-array numpy operations in plain IEEE float64
arithmetic, so a given input always gives the same bits.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# velocity replay: v_t = max(0, v_{t-1} + force/mass - zeta), hour by hour
# ---------------------------------------------------------------------------

def velocity_step(v, force, mass, zeta):
    """One hour of the velocity law; the only implementation of it."""
    return np.maximum(0.0, v + force / mass - zeta)


def velocity_replay(hour_indptr, f_users, f_counts, mass, zeta, n_users, rows=None):
    """Replay hourly velocity updates over one state vector.

    ``hour_indptr``/``f_users``/``f_counts`` are a CSR layout of per-hour
    force entries; each user appears at most once per hour.  Returns the
    velocities at the end of each hour in ``rows`` (increasing; default
    every hour) as a ``(len(rows), n_users)`` array.
    """
    n_hours = hour_indptr.shape[0] - 1
    rows = range(n_hours) if rows is None else rows
    out = np.zeros((len(rows), n_users), dtype=np.float64)
    v = np.zeros(n_users, dtype=np.float64)
    force = np.zeros(n_users, dtype=np.float64)
    k = 0
    for t in range(rows[-1] + 1 if len(rows) else 0):
        lo, hi = hour_indptr[t], hour_indptr[t + 1]
        force[f_users[lo:hi]] = f_counts[lo:hi]
        v = velocity_step(v, force, mass, zeta)
        force[f_users[lo:hi]] = 0.0
        if rows[k] == t:
            out[k] = v
            k += 1
    return out


# ---------------------------------------------------------------------------
# PageRank power iteration over follower -> followee edges
# ---------------------------------------------------------------------------

def pagerank_kernel(src, dst, out_deg, n, damping, tol, max_iter):
    """Returns (scores, iterations, residual_history)."""
    r = np.full(n, 1.0 / n)
    dangling = out_deg == 0
    inv_out = np.zeros(n)
    inv_out[~dangling] = 1.0 / out_deg[~dangling]
    residuals = np.zeros(max_iter)
    iters = 0
    for it in range(max_iter):
        contrib = r * inv_out
        new = np.bincount(dst, weights=contrib[src], minlength=n)
        dmass = r[dangling].sum()
        new = (1.0 - damping) / n + damping * (new + dmass / n)
        resid = np.abs(new - r).sum()
        residuals[it] = resid
        r = new
        iters = it + 1
        if resid <= tol:
            break
    return r, iters, residuals[:iters].copy()


# ---------------------------------------------------------------------------
# TunkRank fixed point: I(u) = sum over followers f of (1 + p*I(f)) / out(f)
# ---------------------------------------------------------------------------

def tunkrank_kernel(src, dst, out_deg, p, n, tol, max_iter):
    """Returns (raw_scores, iterations, residual_history)."""
    score = np.zeros(n)
    safe_out = np.maximum(out_deg, 1)
    residuals = np.zeros(max_iter)
    iters = 0
    for it in range(max_iter):
        contrib = (1.0 + p * score) / safe_out
        new = np.bincount(dst, weights=contrib[src], minlength=n)
        resid = np.abs(new - score).sum()
        residuals[it] = resid
        score = new
        iters = it + 1
        if resid <= tol:
            break
    return score, iters, residuals[:iters].copy()


# ---------------------------------------------------------------------------
# influence/passivity iteration over a weighted retweet graph
# ---------------------------------------------------------------------------

def ip_kernel(src, dst, f_e, q_e, n, tol, max_iter):
    """Returns (influence, passivity, iterations, residual).

    Edge (src=follower, dst=followee) with precomputed acceptance share
    ``f_e`` and rejection share ``q_e``.  Each round: influence of a
    followee accumulates followers' passivity weighted by acceptance, is
    L1-normalized, then passivity accumulates followees' influence
    weighted by rejection and is L1-normalized.  A zero-total influence
    update carries no information and holds the previous vector; a
    zero-total passivity update means nothing was rejected and stays
    zero.
    """
    influence = np.full(n, 1.0 / n)
    passivity = np.full(n, 1.0 / n)
    resid = 0.0
    iters = 0
    for it in range(max_iter):
        inf_new = np.bincount(dst, weights=f_e * passivity[src], minlength=n)
        total = inf_new.sum()
        inf_new = inf_new / total if total > 0.0 else influence.copy()
        pas_new = np.bincount(src, weights=q_e * inf_new[dst], minlength=n)
        total = pas_new.sum()
        if total > 0.0:
            pas_new = pas_new / total
        resid = np.abs(inf_new - influence).sum() + np.abs(pas_new - passivity).sum()
        influence = inf_new
        passivity = pas_new
        iters = it + 1
        if resid <= tol:
            break
    return influence, passivity, iters, resid
