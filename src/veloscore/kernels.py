"""Hot numeric inner loops, numpy only.

One implementation each: the velocity law and its replay, the
fixed-point loop, and the PageRank, TunkRank and influence/passivity
steps it runs.  Every kernel is a sequence of whole-array numpy
operations in plain IEEE float64 arithmetic, so a given input always
gives the same bits.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# velocity replay: v_t = max(0, v_{t-1} + force/mass - zeta), hour by hour
# ---------------------------------------------------------------------------

def velocity_step(v, force, mass, zeta):
    """One hour of the velocity law; the only implementation of it."""
    return np.maximum(0.0, v + force / mass - zeta)


def velocity_replay(hour_indptr, f_users, f_counts, mass, zeta, n_users, rows):
    """Replay hourly velocity updates over one state vector.

    ``hour_indptr``/``f_users``/``f_counts`` are a CSR layout of per-hour
    force entries; each user appears at most once per hour.  Returns the
    velocities at the end of each hour in ``rows`` (increasing) as a
    ``(len(rows), n_users)`` array.
    """
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
# the one fixed-point loop; each scorer below supplies only its step
# ---------------------------------------------------------------------------

def fixed_point(step, state, tol, max_iter):
    """Repeat ``state, residual = step(state)`` until ``residual <= tol`` or
    ``max_iter`` rounds have run.  Returns the last state and the residual
    of every round, as a list that grows one entry per round."""
    history = []
    for _ in range(max_iter):
        state, residual = step(state)
        history.append(residual)
        if residual <= tol:
            break
    return state, history


# ---------------------------------------------------------------------------
# PageRank power iteration over follower -> followee edges
# ---------------------------------------------------------------------------

def pagerank_kernel(r, out_deg, dst, inv_out, dangling, n, damping):
    """One round: (new scores, L1 change).  The edges come in runs by
    follower, ``out_deg[i]`` edges for follower i, and ``dst`` holds each
    edge's followee.  ``inv_out`` is 1/out-degree, 0 for a dangling user,
    whose mass is spread uniformly."""
    contrib = r * inv_out
    new = np.bincount(dst, weights=np.repeat(contrib, out_deg), minlength=n)
    dmass = r[dangling].sum()
    new = (1.0 - damping) / n + damping * (new + dmass / n)
    return new, np.abs(new - r).sum()


# ---------------------------------------------------------------------------
# TunkRank fixed point: I(u) = sum over followers f of (1 + p*I(f)) / out(f)
# ---------------------------------------------------------------------------

def tunkrank_kernel(score, out_deg, dst, safe_out, p, n):
    """One round: (new raw scores, L1 change).  The edges are laid out as
    for ``pagerank_kernel``; ``safe_out`` is the out-degree with 0 raised
    to 1."""
    contrib = (1.0 + p * score) / safe_out
    new = np.bincount(dst, weights=np.repeat(contrib, out_deg), minlength=n)
    return new, np.abs(new - score).sum()


# ---------------------------------------------------------------------------
# influence/passivity iteration over a weighted retweet graph
# ---------------------------------------------------------------------------

def ip_kernel(state, src, dst, f_e, q_e, n):
    """One round: ((influence, passivity), summed L1 change).

    Edge (src=follower, dst=followee) with precomputed acceptance share
    ``f_e`` and rejection share ``q_e``.  Influence of a followee
    accumulates followers' passivity weighted by acceptance, is
    L1-normalized, then passivity accumulates followees' influence
    weighted by rejection and is L1-normalized.  A zero-total influence
    update carries no information and holds the previous vector; a
    zero-total passivity update means nothing was rejected and stays
    zero.
    """
    influence, passivity = state
    inf_new = np.bincount(dst, weights=f_e * passivity[src], minlength=n)
    total = inf_new.sum()
    inf_new = inf_new / total if total > 0.0 else influence.copy()
    pas_new = np.bincount(src, weights=q_e * inf_new[dst], minlength=n)
    total = pas_new.sum()
    if total > 0.0:
        pas_new = pas_new / total
    resid = np.abs(inf_new - influence).sum() + np.abs(pas_new - passivity).sum()
    return (inf_new, pas_new), resid
