"""Numba and numpy graph-kernel paths must agree; the env flag must be honored."""

import os
import subprocess
import sys

import numpy as np
import pytest

from veloscore import kernels

pytestmark = pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                reason="numba unavailable; single-path build")


def graph_workload(seed, n=60, p=0.1):
    rng = np.random.default_rng(seed)
    src, dst = [], []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                src.append(i)
                dst.append(j)
    src = np.array(src, dtype=np.int64)
    dst = np.array(dst, dtype=np.int64)
    out_deg = np.bincount(src, minlength=n).astype(np.int64)
    return src, dst, out_deg, n


def test_pagerank_paths_agree():
    for seed in range(4):
        src, dst, out_deg, n = graph_workload(seed)
        r1, i1, h1 = kernels.pagerank_numpy(src, dst, out_deg, n, 0.85, 1e-10, 300)
        r2, i2, h2 = kernels.pagerank_numba(src, dst, out_deg, n, 0.85, 1e-10, 300)
        assert i1 == i2
        assert np.abs(r1 - r2).max() < 1e-12


def test_tunkrank_paths_agree():
    for seed in range(4):
        src, dst, out_deg, n = graph_workload(seed + 10)
        r1, i1, _ = kernels.tunkrank_numpy(src, dst, out_deg, 0.05, n, 1e-10, 300)
        r2, i2, _ = kernels.tunkrank_numba(src, dst, out_deg, 0.05, n, 1e-10, 300)
        assert i1 == i2
        assert np.abs(r1 - r2).max() < 1e-12


def test_ip_paths_agree():
    for seed in range(4):
        rng = np.random.default_rng(seed + 20)
        src, dst, out_deg, n = graph_workload(seed + 20, n=40, p=0.15)
        w = rng.uniform(0.05, 0.95, size=src.shape[0])
        acc = np.bincount(dst, weights=w, minlength=n)
        rej = np.bincount(dst, weights=1.0 - w, minlength=n)
        f_e = np.where(acc[dst] > 0, w / acc[dst], 0.0)
        q_e = np.where(rej[dst] > 0, (1.0 - w) / rej[dst], 0.0)
        i1, p1, it1, _ = kernels.ip_numpy(src, dst, f_e, q_e, n, 1e-10, 500)
        i2, p2, it2, _ = kernels.ip_numba(src, dst, f_e, q_e, n, 1e-10, 500)
        assert it1 == it2
        assert np.abs(i1 - i2).max() < 1e-12
        assert np.abs(p1 - p2).max() < 1e-12


def test_env_flag_selects_numpy_path():
    code = (
        "from veloscore import kernels; "
        "print(kernels.USE_NUMBA, kernels.pagerank_numba is None)"
    )
    env = dict(os.environ, VELOSCORE_NO_NUMBA="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_default_path_uses_numba_when_available():
    assert kernels.USE_NUMBA
    assert kernels.pagerank_numba is not None
