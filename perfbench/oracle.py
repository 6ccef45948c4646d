"""Expected outputs, computed apart from veloscore, and the checks against them.

Everything here is derived from the synth inputs alone: the manifest's
planted per-hour mention counts, `edges.tsv` parsed on its own, and
`clicks.tsv`.  No veloscore code is imported.  Each check returns a list
of failure messages, empty when the output is right; `selftest.py`
corrupts each output in turn and shows that its check fails.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

WEEK_HOURS = 168
REL_TOL = 1e-9          # velocities, zeta and trending figures
THRESHOLD = 0.10        # trend --threshold
TOP_K = 5               # trend --top-k
SOLVER_TOL = 1e-8       # the scorers' default --tol (an L1 step residual)
DAMPING = 0.85          # pagerank default --damping
RETWEET_PROB = 0.05     # tunkrank default --retweet-prob
# Stopped at an L1 step residual of SOLVER_TOL, PageRank is within
# SOLVER_TOL * d / (1 - d) of its fixed point; TunkRank contracts by p = 0.05
# and is far closer.
SCORE_L1_TOL = SOLVER_TOL / (1.0 - DAMPING)
IQR_K = 1.5             # eval --iqr-k, with linear quartiles


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


@dataclass
class Expected:
    hours: int
    zeta: float
    users: list                # every user that ever receives force, sorted
    velocity: dict             # hour -> np.ndarray aligned with users
    trending: dict             # week -> [(user, acceleration, relative_increase)]
    nodes: list                # graph users, sorted
    in_degree: np.ndarray
    out_degree: np.ndarray
    pagerank: np.ndarray
    tunkrank: np.ndarray
    global_n: int              # URLs left by the IQR fences
    corrected_n: int           # ... of which have a non-zero audience

    def checkpoints(self) -> list[int]:
        final = self.hours - 1
        hours = [h for h in range(WEEK_HOURS - 1, final + 1, WEEK_HOURS)]
        return hours if hours and hours[-1] == final else hours + [final]

    def week_end(self, week: int) -> dict:
        h = (week + 1) * WEEK_HOURS - 1
        return dict(zip(self.users, self.velocity[h].tolist()))


def read_edges(path: Path):
    pairs = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            a, b = line.split("\t")
            pairs.add((a, b))
    nodes = sorted({u for p in pairs for u in p})
    index = {u: i for i, u in enumerate(nodes)}
    src = np.array([index[a] for a, _ in pairs], dtype=np.int64)
    dst = np.array([index[b] for _, b in pairs], dtype=np.int64)
    return nodes, src, dst


def _power(step, x0: np.ndarray) -> np.ndarray:
    x = x0
    for _ in range(10_000):
        new = step(x)
        if np.abs(new - x).sum() <= 1e-13 * np.abs(new).sum():
            return new
        x = new
    raise RuntimeError("reference iteration did not converge")


def pagerank(n: int, src, dst, out_degree) -> np.ndarray:
    follow = sparse.csr_matrix((1.0 / out_degree[src], (dst, src)), shape=(n, n))
    dangling = out_degree == 0
    return _power(lambda x: (1.0 - DAMPING) / n
                  + DAMPING * (follow @ x + x[dangling].sum() / n), np.full(n, 1.0 / n))


def tunkrank(n: int, src, dst, out_degree) -> np.ndarray:
    follow = sparse.csr_matrix((1.0 / out_degree[src], (dst, src)), shape=(n, n))
    raw = _power(lambda x: follow @ (1.0 + RETWEET_PROB * x), np.zeros(n))
    return raw / raw.sum()


def top_trending(v_start: dict, v_end: dict) -> list:
    rows = []
    for u in set(v_start) | set(v_end):
        v0, v1 = v_start.get(u, 0.0), v_end.get(u, 0.0)
        dv = v1 - v0
        rel = (math.inf if dv > 0.0 else 0.0) if v0 == 0.0 else dv / v0
        if rel >= THRESHOLD:
            rows.append((u, dv, rel))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows[:TOP_K]


def expected(data_dir: Path, hours: int) -> Expected:
    manifest = json.loads((data_dir / "manifest.json").read_text(encoding="utf-8"))
    nodes, src, dst = read_edges(data_dir / "edges.tsv")
    n = len(nodes)
    in_degree = np.bincount(dst, minlength=n)
    out_degree = np.bincount(src, minlength=n)
    followers = dict(zip(nodes, in_degree.tolist()))

    planted = manifest["mention_counts"]
    users = sorted(u for u, per_hour in planted.items() if any(per_hour.values()))
    total = sum(sum(per_hour.values()) for per_hour in planted.values())
    zeta = (total / (hours * len(users))) / (len(src) / n)

    # v_t = max(0, v_{t-1} + f_t / m - zeta), with m the follower count (1 if none)
    mass = np.array([float(followers.get(u, 0)) or 1.0 for u in users])
    force_at: dict[int, list] = {}
    for i, u in enumerate(users):
        for h, c in planted[u].items():
            if c:
                force_at.setdefault(int(h), []).append((i, c))
    wanted = set()
    final = hours - 1
    for h in list(range(WEEK_HOURS - 1, hours, WEEK_HOURS)) + [final]:
        wanted.update((h, h - 1))
    v = np.zeros(len(users))
    force = np.zeros(len(users))
    velocity = {}
    for h in range(hours):
        hits = force_at.get(h, ())
        for i, c in hits:
            force[i] = c
        v = np.maximum(0.0, v + force / mass - zeta)
        for i, _ in hits:
            force[i] = 0.0
        if h in wanted:
            velocity[h] = v.copy()

    exp = Expected(hours, zeta, users, velocity, {}, nodes, in_degree, out_degree,
                   pagerank(n, src, dst, out_degree), tunkrank(n, src, dst, out_degree), 0, 0)
    for w in range(hours // WEEK_HOURS):
        exp.trending[w] = top_trending(exp.week_end(w - 1) if w else {}, exp.week_end(w))

    clicks = {}
    for line in (data_dir / "clicks.tsv").read_text(encoding="utf-8").splitlines():
        url, c = line.split("\t")
        clicks[url] = int(c)
    records = []
    for url, info in manifest["urls"].items():
        promoters = {p for p in info["promoters"] if p in followers}
        if url in clicks and len(promoters) >= 3:
            records.append((clicks[url], sum(followers[p] for p in promoters)))
    q1, _, q3 = statistics.quantiles([c for c, _ in records], n=4, method="inclusive")
    lo, hi = q1 - IQR_K * (q3 - q1), q3 + IQR_K * (q3 - q1)
    kept = [(c, a) for c, a in records if lo <= c <= hi]
    exp.global_n = len(kept)
    exp.corrected_n = sum(1 for _, a in kept if a > 0)
    return exp


# --------------------------------------------------------------------------
# checks: each takes the output texts and the expected values
# --------------------------------------------------------------------------

def _tsv(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines() if line.strip()]


def check_zeta(run_config_score: str, exp: Expected) -> list[str]:
    m = re.search(r"^resolved_zeta = (.+)$", run_config_score, re.M)
    if not m:
        return ["run_config_score.txt has no resolved_zeta"]
    got = float(m.group(1))
    return [] if close(got, exp.zeta) else [f"zeta {got!r} != expected {exp.zeta!r}"]


def check_snapshots(text: str, exp: Expected) -> list[str]:
    by_hour: dict[int, list] = {}
    for r in _tsv(text):
        by_hour.setdefault(int(r[0]), []).append(r)
    if sorted(by_hour) != exp.checkpoints():
        return [f"snapshot hours {sorted(by_hour)} != expected {exp.checkpoints()}"]
    fails = []
    for h, rows in sorted(by_hour.items()):
        if [r[1] for r in rows] != exp.users:
            fails.append(f"hour {h}: users differ from the {len(exp.users)} forced users")
            continue
        v_now, v_before = exp.velocity[h].tolist(), exp.velocity[h - 1].tolist()
        for r, v1, v0 in zip(rows, v_now, v_before):
            v, a = float(r[2]), float(r[3])
            if not (close(v, v1) and close(a, v1 - v0)):
                fails.append(f"hour {h} user {r[1]}: v={v!r} a={a!r}, "
                             f"expected v={v1!r} a={v1 - v0!r}")
                break
    return fails


def check_velocity_final(text: str, exp: Expected) -> list[str]:
    rows = _tsv(text)
    want = exp.velocity[exp.hours - 1]
    if [r[0] for r in rows] != exp.users:
        return ["velocity_final.tsv users differ from the forced users"]
    bad = [r[0] for r, x in zip(rows, want) if not close(float(r[1]), x)]
    return [f"velocity_final.tsv: {len(bad)} values off, first {bad[0]}"] if bad else []


def _check_trending_rows(label: str, got: list, want: list) -> list[str]:
    if [g[0] for g in got] != [w[0] for w in want]:
        return [f"{label}: users {[g[0] for g in got]} != expected {[w[0] for w in want]}"]
    for g, w in zip(got, want):
        if not (close(g[1], w[1]) and close(g[2], w[2])):
            return [f"{label}: {g} != expected {w}"]
    return []


def check_trending(texts: dict, exp: Expected) -> list[str]:
    """``texts`` maps each week to the trending.tsv its trend call wrote."""
    if sorted(texts) != sorted(exp.trending):
        return [f"trending weeks {sorted(texts)} != {sorted(exp.trending)}"]
    fails = []
    for w, text in sorted(texts.items()):
        rows = _tsv(text)
        if rows[:1] != [["window", "user", "acceleration", "relative_increase"]]:
            fails.append(f"week {w}: bad trending.tsv header")
            continue
        got = [(r[1], float(r[2]), float(r[3])) for r in rows[1:] if r[0] == f"week{w}"]
        if len(got) != len(rows) - 1:
            fails.append(f"week {w}: rows for another window")
        fails += _check_trending_rows(f"trend week {w}", got, exp.trending[w])
    return fails


def check_engine(result: dict, exp: Expected, records: int) -> list[str]:
    fails = []
    if result["records"] != records:
        fails.append(f"stream read {result['records']} records, file holds {records}")
    weeks = sorted(int(w) for w in result["velocity"])
    if weeks != sorted(exp.trending):
        return fails + [f"engine week ends {weeks} != {sorted(exp.trending)}"]
    for w in weeks:
        want = exp.week_end(w)
        got = result["velocity"][str(w)]
        if set(got) - set(want):
            fails.append(f"engine week {w}: users that never received force")
        off = [u for u, x in want.items() if not close(got.get(u, 0.0), x)]
        if off:
            fails.append(f"engine week {w}: {len(off)} velocities off, first {off[0]}")
        fails += _check_trending_rows(f"engine trending week {w}",
                                      [tuple(e) for e in result["trending"][str(w)]],
                                      exp.trending[w])
    return fails


def _scores(text: str, nodes: list, label: str):
    rows = _tsv(text)
    if [r[0] for r in rows] != nodes:
        return None, [f"{label}: users differ from the {len(nodes)} graph users"]
    return np.array([float(r[1]) for r in rows]), []


def check_scorer(text: str, want: np.ndarray, exp: Expected, label: str) -> list[str]:
    got, fails = _scores(text, exp.nodes, label)
    if fails:
        return fails
    l1 = float(np.abs(got - want).sum())
    return [] if l1 <= SCORE_L1_TOL else [f"{label}: L1 distance {l1:.3g} > {SCORE_L1_TOL:.3g}"]


def check_followers(text: str, exp: Expected) -> list[str]:
    got, fails = _scores(text, exp.nodes, "followers")
    if fails:
        return fails
    return [] if np.array_equal(got, exp.in_degree) else ["followers != in-degree"]


def check_ratio(text: str, exp: Expected) -> list[str]:
    got, fails = _scores(text, exp.nodes, "ratio")
    if fails:
        return fails
    want = exp.in_degree / np.maximum(exp.out_degree, 1)
    bad = [u for u, g, x in zip(exp.nodes, got, want) if not close(g, x)]
    return [f"ratio: {len(bad)} values off, first {bad[0]}"] if bad else []


def check_ip(text: str, label: str) -> list[str]:
    """Influence or passivity: finite, non-negative, summing to 1.

    The iteration stops at 200 rounds unconverged on both workloads, so
    nothing here asks for convergence.
    """
    values = np.array([float(r[1]) for r in _tsv(text)])
    if values.size == 0:
        return [f"{label}: empty"]
    if not np.all(np.isfinite(values)) or values.min() < 0.0:
        return [f"{label}: negative or non-finite scores"]
    total = float(values.sum())
    return [] if abs(total - 1.0) <= 1e-9 else [f"{label}: sums to {total!r}"]


def check_report(text: str, exp: Expected) -> list[str]:
    rows = _tsv(text)
    if rows[:1] != [["section", "score", "r", "r_squared", "p_value", "n"]]:
        return ["report.tsv: bad header"]
    fails = []
    seen = False
    for section, score, r_s, r2_s, p_s, n_s in rows[1:]:
        r, r2, p, n = float(r_s), float(r2_s), float(p_s), int(n_s)
        label = f"report {section}/{score}"
        if not -1.0 <= r <= 1.0:
            fails.append(f"{label}: r={r} outside [-1, 1]")
        if abs(r2 - r * r) > 1e-11:
            fails.append(f"{label}: r^2={r2} but r*r={r * r}")
        if not 0.0 <= p <= 1.0:
            fails.append(f"{label}: p={p} outside [0, 1]")
        if section in ("uncorrected_global", "audience_confound") and n != exp.global_n:
            fails.append(f"{label}: n={n}, expected {exp.global_n} URLs inside the fences")
        if section == "corrected_global" and n != exp.corrected_n:
            fails.append(f"{label}: n={n}, expected {exp.corrected_n}")
        if (section, score) == ("corrected_global", "velocity"):
            seen = True
            if not (r > 0.0 and p < 0.01):
                fails.append(f"{label}: planted signal not found (r={r}, p={p})")
    if not seen:
        fails.append("report.tsv has no corrected_global/velocity row")
    return fails


def check_skips(score_stdout: str, valid: int, injected: int) -> list[str]:
    m = re.search(r"skipped (\d+)/(\d+) records", score_stdout)
    if not m:
        return ["score did not report its skipped records"]
    skipped, records = int(m.group(1)), int(m.group(2))
    if (skipped, records) != (injected, valid + injected):
        return [f"score skipped {skipped}/{records}, expected {injected}/{valid + injected}"]
    return []


def check_all(out: dict, exp: Expected, valid: int, injected: int) -> dict:
    """Run every check over one pass's outputs; returns name -> failures.

    ``out`` holds the text of each file under the run directory by name,
    ``trending`` (week -> trending.tsv text), ``stream`` (the stream
    pass's result) and ``score_stdout``.
    """
    return {
        "zeta": check_zeta(out["run_config_score.txt"], exp),
        "snapshots": check_snapshots(out["snapshots.tsv"], exp),
        "velocity_final": check_velocity_final(out["velocity_final.tsv"], exp),
        "trending": check_trending(out["trending"], exp),
        "engine": check_engine(out["stream"], exp, valid + injected),
        "pagerank": check_scorer(out["pagerank.tsv"], exp.pagerank, exp, "pagerank"),
        "tunkrank": check_scorer(out["tunkrank.tsv"], exp.tunkrank, exp, "tunkrank"),
        "followers": check_followers(out["followers.tsv"], exp),
        "ratio": check_ratio(out["ratio.tsv"], exp),
        "ip_influence": check_ip(out["ip_influence.tsv"], "ip_influence"),
        "ip_passivity": check_ip(out["ip_passivity.tsv"], "ip_passivity"),
        "report": check_report(out["report.tsv"], exp),
        "skips": check_skips(out["score_stdout"], valid, injected),
    }
