"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Fixture seeds are fixed; every run is deterministic.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from dense_oracles import (dense_ip, dense_pagerank, dense_tunkrank, graph_from_adj,
                           graph_from_edges, rg_from_matrix)
from pipeline_helpers import (DETERMINISM_DATA, hash_dir, read_report, run, run_pipeline,
                              scored_history)
from veloscore.centrality import influence_passivity, pagerank, tunkrank
from veloscore.cli import EXIT_OK, TRENDING_FILE
from veloscore.dynamics import ForceTable, KineticsConfig, replay, week_end_hour
from veloscore.evaluation import average_weekly_r, iqr_filter, pearson
from veloscore.ingest import HourBucket
from veloscore.synth import Burst, SynthConfig, generate

SIGNAL_SEEDS = (101, 102, 103, 104, 105)
NULL_SEEDS = (201, 202, 203, 204, 205)
CONFOUND_SEED = 205


def verdict(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def pipeline_cfg(seed, signal):
    return SynthConfig(
        seed=seed, users=900, hours=840,
        celebrity_fraction=0.02, celebrity_follow_boost=40.0,
        celebrity_mention_boost=1.0,
        mention_follower_exponent=1.2, mention_rate_cap=2.0,
        base_mention_rate=0.0012, weekly_rate_sigma=0.8,
        follows_per_user=10, originals_per_week=2,
        retweet_every=4, mutual_retweet_pairs=True,
        url_count=760, min_promoters=3, max_promoters=9, url_week_min=1,
        signal=signal, base_click_prob=2.0, click_noise=0.2,
    )


def full_evaluation_run(seed, signal, base_dir):
    data = base_dir / f"run_{seed}_{signal}"
    generate(pipeline_cfg(seed, signal), data)
    return read_report(run_pipeline(data, data / "out"))


@pytest.fixture(scope="module")
def evaluation_runs(tmp_path_factory):
    """All planted-signal and null pipeline runs, timed end to end."""
    base = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    runs = {}
    for seed in SIGNAL_SEEDS:
        runs[("signal", seed)] = full_evaluation_run(seed, 2.5, base)
    for seed in NULL_SEEDS:
        runs[("null", seed)] = full_evaluation_run(seed, 0.0, base)
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_criterion_1_frictionless_oracle(tmp_path):
    cfg = SynthConfig(
        seed=11, users=300, hours=336, celebrity_fraction=0.0,
        base_mention_rate=0.1, weekly_rate_sigma=0.0,
        follows_per_user=8, originals_per_week=2, retweet_every=5,
    )
    manifest = generate(cfg, tmp_path)
    assert manifest["totals"]["events"] >= 10_000
    t0 = time.perf_counter()
    history = scored_history(tmp_path, tmp_path / "out", "--zeta", "0")
    elapsed = time.perf_counter() - t0
    worst = 0.0
    final = history.row(history.final_hour)
    for user, per_hour in manifest["mention_counts"].items():
        total = sum(per_hour.values())
        mass = manifest["users"][user] if manifest["users"][user] > 0 else 1
        expected = total / mass
        got = final.get(user, 0.0)
        worst = max(worst, abs(got - expected) / expected)
    verdict("C1 frictionless-oracle", worst < 1e-9 and elapsed < 10.0,
            f"(max rel err {worst:.2e}, {manifest['totals']['events']} events "
            f"in {elapsed:.2f}s)")


def test_criterion_2_decay_law():
    zeta = 1.0 / 64.0
    graph = graph_from_edges(set(), overrides={"a": 64})
    buckets = [HourBucket(0, force={"a": 65})] + [HourBucket(h) for h in range(1, 101)]
    hist = replay(ForceTable.of(buckets, "mentions"), KineticsConfig(zeta=zeta), graph, range(101))
    v = [hist.row(k).get("a", 0.0) for k in range(101)]
    ok = v[0] == 1.0
    for k in range(1, 101):
        expected = max(0.0, 1.0 - k * zeta)
        ok = ok and v[k] == expected
        if k <= 64:
            ok = ok and (v[k - 1] - v[k]) == zeta
    verdict("C2 decay-law", ok, "(exact -zeta per quiet hour over 100 hours, clamp at 0)")


def _check_graph(adj, rng, errs):
    n = adj.shape[0]
    graph = graph_from_adj(adj)
    sv = pagerank(graph, damping=0.85, tol=1e-12, max_iter=400)
    expected = dense_pagerank(adj, 0.85, 1e-12, 400)
    got = np.array([sv.get(f"u{i}") for i in range(n)])
    errs["pagerank"] = max(errs["pagerank"], float(np.abs(got - expected).max()))
    errs["pr_norm"] = max(errs["pr_norm"], abs(np.sum(sv.values) - 1.0))

    sv = tunkrank(graph, retweet_prob=0.05, tol=1e-12, max_iter=300)
    expected = dense_tunkrank(adj, 0.05, 1e-12, 300)
    got = np.array([sv.get(f"u{i}") for i in range(n)])
    errs["tunkrank"] = max(errs["tunkrank"], float(np.abs(got - expected).max()))

    if adj.sum() == 0:
        return
    weight = np.where(adj > 0, rng.uniform(0.05, 0.95, size=adj.shape), 0.0)
    inf, pas = influence_passivity(rg_from_matrix(weight, adj), tol=1e-12, max_iter=500)
    e_inf, e_pas = dense_ip(weight, adj, 1e-12, 500)
    got_i = np.array([inf.get(f"u{i}") for i in range(n)])
    got_p = np.array([pas.get(f"u{i}") for i in range(n)])
    errs["ip"] = max(errs["ip"], float(np.abs(got_i - e_inf).max()),
                     float(np.abs(got_p - e_pas).max()))


def test_criterion_3_centrality_oracles():
    rng = np.random.default_rng(33)
    errs = {"pagerank": 0.0, "pr_norm": 0.0, "tunkrank": 0.0, "ip": 0.0}
    graphs = 0
    slots = [(i, j) for i in range(3) for j in range(3) if i != j]
    for bits in itertools.product([0, 1], repeat=6):
        adj = np.zeros((3, 3), dtype=int)
        for (i, j), b in zip(slots, bits):
            adj[i, j] = b
        _check_graph(adj, rng, errs)
        graphs += 1
    for n in (4, 5):
        for _ in range(250):
            adj = (rng.random((n, n)) < 0.5).astype(int)
            np.fill_diagonal(adj, 0)
            _check_graph(adj, rng, errs)
            graphs += 1
    ok = (errs["pagerank"] < 1e-6 and errs["tunkrank"] < 1e-6
          and errs["ip"] < 1e-6 and errs["pr_norm"] < 1e-9)
    verdict("C3 centrality-oracles", ok,
            f"({graphs} graphs; max Linf err: pagerank {errs['pagerank']:.2e}, "
            f"tunkrank {errs['tunkrank']:.2e}, ip {errs['ip']:.2e}; "
            f"norm err {errs['pr_norm']:.2e})")


def test_criterion_4_statistics_oracles():
    rng = random.Random(44)
    worst_r = 0.0
    for _ in range(50):
        n = rng.randint(5, 40)
        xs = [rng.uniform(-100, 100) for _ in range(n)]
        ys = [rng.uniform(-100, 100) for _ in range(n)]
        r, _, _ = pearson(xs, ys)
        mx, my = sum(xs) / n, sum(ys) / n
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
        worst_r = max(worst_r, abs(r - num / den))

    from veloscore.evaluation import UrlRecord
    iqr_ok = True
    for _ in range(100):
        n = rng.randint(4, 60)
        values = [rng.randint(0, 200) for _ in range(n)]
        records = [UrlRecord(str(i), c, ("a", "b", "c"), 10, None)
                   for i, c in enumerate(values)]
        kept = {r.url for r in iqr_filter(records, 1.5)}
        s = sorted(values)
        def q(frac):
            pos = (len(s) - 1) * frac
            lo = int(math.floor(pos))
            hi = min(lo + 1, len(s) - 1)
            return s[lo] + (pos - lo) * (s[hi] - s[lo])
        q1, q3 = q(0.25), q(0.75)
        lo_f, hi_f = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        expected = {str(i) for i, c in enumerate(values) if lo_f <= c <= hi_f}
        iqr_ok = iqr_ok and kept == expected

    fisher_ok = True
    for _ in range(50):
        r = rng.uniform(-0.99, 0.99)
        weeks = [(r, rng.randint(3, 400)) for _ in range(rng.randint(1, 8))]
        mean_r, _, _ = average_weekly_r(weeks)
        fisher_ok = fisher_ok and mean_r == r

    ok = worst_r < 1e-12 and iqr_ok and fisher_ok
    verdict("C4 statistics-oracles", ok,
            f"(pearson max err {worst_r:.2e}; iqr scan {'ok' if iqr_ok else 'MISMATCH'}; "
            f"fisher identity {'exact' if fisher_ok else 'INEXACT'})")


def test_criterion_5_planted_signal(evaluation_runs):
    pos_pass, details = 0, []
    n_min = 10**9
    for seed in SIGNAL_SEEDS:
        row = evaluation_runs[("signal", seed)]["corrected_global"]["velocity"]
        n_min = min(n_min, row.n)
        good = row.pearson_r > 0 and row.p_value < 0.001 and row.n >= 500
        pos_pass += good
        details.append(f"{seed}:r={row.pearson_r:+.3f},p={row.p_value:.1e}")
    null_pass = 0
    for seed in NULL_SEEDS:
        row = evaluation_runs[("null", seed)]["corrected_global"]["velocity"]
        null_pass += row.p_value > 0.01
    elapsed = evaluation_runs["elapsed"]
    ok = pos_pass >= 3 and null_pass >= 3 and elapsed < 60.0
    verdict("C5 planted-signal", ok,
            f"(signal {pos_pass}/5, null {null_pass}/5, n>={n_min}, "
            f"{elapsed:.1f}s for all 10 runs; {' '.join(details)})")


def test_criterion_6_confound_reproduction(evaluation_runs):
    run = evaluation_runs[("null", CONFOUND_SEED)]
    uncorrected = run["uncorrected_global"]
    corrected = run["corrected_global"]
    n_ok = all(r.n >= 500 for r in uncorrected.values())
    un_min = min(r.pearson_r for r in uncorrected.values())
    un_sig = all(r.p_value < 0.001 for r in uncorrected.values())
    co_max = max(abs(r.pearson_r) for r in corrected.values())
    ok = n_ok and un_min > 0.3 and un_sig and co_max < 0.1
    verdict("C6 confound-reproduction", ok,
            f"(uncorrected min r {un_min:+.3f} all p<0.001={un_sig}; "
            f"corrected max |r| {co_max:.3f}; seed {CONFOUND_SEED})")


def test_criterion_7_trending_detection(tmp_path):
    zeta = 0.001
    cfg = SynthConfig(
        seed=7, users=40, hours=672, celebrity_fraction=0.0,
        base_mention_rate=0.002, weekly_rate_sigma=0.0,
        follows_per_user=4, originals_per_week=1, retweet_every=0,
        follower_count_overrides={"u00000": 1000, "u00001": 10},
        bursts=(
            Burst("u00000", 0, 100, 35.0),   # celebrity ramp-up to v=3.4
            Burst("u00000", 100, 672, 1.0),  # force/mass == zeta: flat velocity
            Burst("u00000", 504, 672, 1.0),  # +5% velocity over the burst week
            Burst("u00001", 0, 100, 0.1),    # low baseline
            Burst("u00001", 504, 672, 5.0),  # >10x jump
        ),
    )
    generate(cfg, tmp_path)
    out = tmp_path / "out"
    hist = scored_history(tmp_path, out, "--zeta", str(zeta))
    start, end = week_end_hour(2), week_end_hour(3)
    v_start, v_end = hist.row(start), hist.row(end)
    celeb_rel = v_end.get("u00000", 0.0) / v_start.get("u00000", 0.0) - 1
    burst_ratio = v_end.get("u00001", 0.0) / v_start.get("u00001", 0.0)
    assert run("trend", "--week", 3, "--threshold", 0.10, "--top-k", 5, "--out", out) == EXIT_OK
    users = [row.split("\t")[1] for row in (out / TRENDING_FILE).read_text().splitlines()[1:]]
    ok = (users and users[0] == "u00001" and "u00000" not in users
          and burst_ratio >= 10 and 0.04 <= celeb_rel <= 0.06)
    verdict("C7 trending-detection", ok,
            f"(burst jump {burst_ratio:.0f}x ranked {users.index('u00001') + 1 if 'u00001' in users else '-'}; "
            f"celebrity +{celeb_rel:.1%} excluded)")


def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "data"
    generate(DETERMINISM_DATA, data)
    first = hash_dir(run_pipeline(data, tmp_path / "out"))
    second = hash_dir(run_pipeline(data, tmp_path / "out"))
    ok = first == second and len(first) >= 10
    verdict("C8 determinism", ok,
            f"({len(first)} output files byte-identical across reruns)")


def test_criterion_9_weekly_flavor_ordering(evaluation_runs):
    wins, pairs = 0, []
    for seed in SIGNAL_SEEDS:
        weekly = evaluation_runs[("signal", seed)]["corrected_weekly"]
        on_r = weekly["velocity_on_week"].pearson_r
        prior_r = weekly["velocity_prior_week"].pearson_r
        wins += on_r >= prior_r
        pairs.append(f"{seed}:{on_r:+.3f}/{prior_r:+.3f}")
    ok = wins >= 4
    verdict("C9 weekly-flavor-ordering", ok,
            f"(on-week >= prior-week in {wins}/5 seeds; {' '.join(pairs)})")
