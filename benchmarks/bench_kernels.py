#!/usr/bin/env python3
"""Benchmark the numba graph kernels against the pure-numpy fallbacks.

Runs each graph kernel on a synthetic graph and reports best-of-N wall
times for both implementations.  Numba is warmed up first so JIT
compilation is excluded from the timings.

    python3 benchmarks/bench_kernels.py --nodes 50000 --degree 20
"""

import argparse
import time

import numpy as np

from veloscore import kernels


def time_call(fn, args, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def graph_workload(rng, n_nodes, avg_degree):
    n_edges = n_nodes * avg_degree
    src = rng.integers(0, n_nodes, size=n_edges)
    dst = rng.integers(0, n_nodes, size=n_edges)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    order = np.lexsort((dst, src))
    src, dst = src[order].astype(np.int64), dst[order].astype(np.int64)
    out_deg = np.bincount(src, minlength=n_nodes).astype(np.int64)
    return src, dst, out_deg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=50_000)
    parser.add_argument("--degree", type=int, default=20)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    if not kernels.HAVE_NUMBA:
        raise SystemExit("numba is not importable (or disabled); nothing to compare")

    rng = np.random.default_rng(0)
    print("warming up numba kernels...")
    kernels.warm_up()

    rows = []

    src, dst, out_deg = graph_workload(rng, args.nodes, args.degree)
    pr_args = (src, dst, out_deg, args.nodes, 0.85, 1e-10, 200)
    t_np, r_np = time_call(kernels.pagerank_numpy, pr_args, args.repeats)
    t_nb, r_nb = time_call(kernels.pagerank_numba, pr_args, args.repeats)
    assert np.abs(r_np[0] - r_nb[0]).max() < 1e-12
    rows.append((f"pagerank ({args.nodes} nodes, {len(src)} edges)", t_np, t_nb))

    tr_args = (src, dst, out_deg, 0.05, args.nodes, 1e-10, 200)
    t_np, r_np = time_call(kernels.tunkrank_numpy, tr_args, args.repeats)
    t_nb, r_nb = time_call(kernels.tunkrank_numba, tr_args, args.repeats)
    assert np.abs(r_np[0] - r_nb[0]).max() < 1e-12
    rows.append((f"tunkrank ({args.nodes} nodes)", t_np, t_nb))

    w = rng.uniform(0.05, 0.95, size=src.shape[0])
    acc = np.bincount(dst, weights=w, minlength=args.nodes)
    rej = np.bincount(dst, weights=1.0 - w, minlength=args.nodes)
    f_e = np.where(acc[dst] > 0, w / acc[dst], 0.0)
    q_e = np.where(rej[dst] > 0, (1.0 - w) / rej[dst], 0.0)
    ip_args = (src, dst, f_e, q_e, args.nodes, 1e-10, 200)
    t_np, r_np = time_call(kernels.ip_numpy, ip_args, args.repeats)
    t_nb, r_nb = time_call(kernels.ip_numba, ip_args, args.repeats)
    assert np.abs(r_np[0] - r_nb[0]).max() < 1e-12
    rows.append((f"influence_passivity ({args.nodes} nodes)", t_np, t_nb))

    print()
    print(f"{'kernel':<48} {'numpy':>10} {'numba':>10} {'speedup':>9}")
    print("-" * 80)
    for name, t_np, t_nb in rows:
        print(f"{name:<48} {t_np:>9.3f}s {t_nb:>9.3f}s {t_np / t_nb:>8.2f}x")


if __name__ == "__main__":
    main()
