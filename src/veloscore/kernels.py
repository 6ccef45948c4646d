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
# follower values summed over follower -> followee edges, for the two below
# ---------------------------------------------------------------------------

# edges per np.add.at call in edge_sum: bounds its per-edge temporaries
_CHUNK = 1 << 16


def edge_sum(values, offsets, dst, n):
    """The sum over the edges into each of ``n`` users of the follower's
    entry in ``values``.  The edges come in runs by follower, follower i's
    in ``offsets[i]:offsets[i + 1]``, and ``dst`` holds each edge's
    followee (intp: ``np.add.at`` is slow with int32 indices).

    Adds one ``_CHUNK`` of edges at a time into one output, in edge order,
    which gives the bits of ``np.bincount(dst, weights=np.repeat(values,
    np.diff(offsets)), minlength=n)`` without an array of every edge."""
    out = np.zeros(n)
    for lo in range(0, dst.size, _CHUNK):
        hi = min(lo + _CHUNK, dst.size)
        # followers first..last - 1 hold edges lo..hi - 1
        first = int(np.searchsorted(offsets, lo, "right")) - 1
        last = int(np.searchsorted(offsets, hi, "left"))
        runs = np.diff(np.clip(offsets[first:last + 1], lo, hi))
        np.add.at(out, dst[lo:hi], np.repeat(values[first:last], runs))
    return out


# ---------------------------------------------------------------------------
# PageRank power iteration over follower -> followee edges
# ---------------------------------------------------------------------------

def pagerank_kernel(r, offsets, dst, inv_out, dangling, n, damping):
    """One round: (new scores, L1 change).  The edges are laid out as for
    ``edge_sum``.  ``inv_out`` is 1/out-degree, 0 for a dangling user,
    whose mass is spread uniformly."""
    new = edge_sum(r * inv_out, offsets, dst, n)
    dmass = r[dangling].sum()
    new = (1.0 - damping) / n + damping * (new + dmass / n)
    return new, np.abs(new - r).sum()


# ---------------------------------------------------------------------------
# TunkRank fixed point: I(u) = sum over followers f of (1 + p*I(f)) / out(f)
# ---------------------------------------------------------------------------

def tunkrank_kernel(score, offsets, dst, safe_out, p, n):
    """One round: (new raw scores, L1 change).  The edges are laid out as
    for ``edge_sum``; ``safe_out`` is the out-degree with 0 raised to 1."""
    new = edge_sum((1.0 + p * score) / safe_out, offsets, dst, n)
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
