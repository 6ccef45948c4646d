"""Show that every output check catches a corrupted output.

    python3 perfbench/selftest.py

Makes a small workload with malformed records, runs one untraced round of
the benchmark over it, and requires every check in `oracle.py` to pass.
Then it corrupts one output at a time and requires the check that guards
that output to fail.  Exits 1 if a check fails on the real outputs or
misses a corruption.  Takes about half a minute; writes under
`perfbench/out/selftest/`.
"""

from __future__ import annotations

import copy
import re
import shutil
import sys

import oracle
from run import OUT, Runner, differences, run_round
from workloads import Workload, inject_malformed

SMALL = Workload("selftest", users=300, hours=504, urls=150, signal=1.5, malformed_rate=0.002)
SEED = 3


def _edit(text: str, row: int, col: int, fn) -> str:
    """Apply ``fn`` to one tab-separated field of one non-header line."""
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split("\t")
    cells[col] = fn(cells[col])
    lines[row] = "\t".join(cells) + "\n"
    return "".join(lines)


def _scale(factor: float):
    return lambda cell: repr(float(cell) * factor)


def _swap_rows(text: str, i: int, j: int) -> str:
    lines = text.splitlines(keepends=True)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def _file(name: str, fn):
    """A corruption that rewrites one output text."""
    return lambda out: out.__setitem__(name, fn(out[name]))


def _cell(name: str, row: int, col: int, fn):
    return _file(name, lambda text: _edit(text, row, col, fn))


def _plus(delta: float):
    return lambda cell: repr(float(cell) + delta)


def _trending(fn):
    """Rewrite the trending.tsv of a week with at least two trending rows."""
    def corrupt(out):
        week = next(w for w, t in sorted(out["trending"].items()) if len(t.splitlines()) >= 3)
        out["trending"][week] = fn(out["trending"][week])
    return corrupt


def _engine_velocity(out):
    week = max(out["stream"]["velocity"])
    velocities = out["stream"]["velocity"][week]
    user = next(u for u, v in sorted(velocities.items()) if v > 0)
    velocities[user] += 1e-3


def _engine_trending(out):
    out["stream"]["trending"][max(out["stream"]["trending"])].pop()


def _engine_records(out):
    out["stream"]["records"] -= 1


def _lost_signal(out):
    row = next(i for i, line in enumerate(out["report.tsv"].splitlines())
               if line.startswith("corrected_global\tvelocity\t"))
    out["report.tsv"] = _edit(out["report.tsv"], row, 4, lambda cell: "0.5")


def _scaled_zeta(text: str) -> str:
    return re.sub(r"resolved_zeta = (.+)",
                  lambda m: f"resolved_zeta = {float(m.group(1)) * (1 + 1e-6)!r}", text)


# corruption -> (the check that must fail, the corruption, made in place)
CORRUPTIONS = {
    "zeta off by 1e-6": ("zeta", _file("run_config_score.txt", _scaled_zeta)),
    "snapshot velocity": ("snapshots", _cell("snapshots.tsv", -1, 2, _plus(1e-6))),
    "snapshot acceleration": ("snapshots", _cell("snapshots.tsv", 5, 3, _plus(1e-3))),
    "snapshot hour dropped": ("snapshots", _file("snapshots.tsv", lambda t: "".join(
        line for line in t.splitlines(keepends=True) if not line.startswith("167\t")))),
    "final velocity": ("velocity_final", _cell("velocity_final.tsv", 0, 1, _plus(1e-3))),
    "trending order": ("trending", _trending(lambda t: _swap_rows(t, 1, 2))),
    "trending acceleration": ("trending", _trending(lambda t: _edit(t, 1, 2, _scale(1.001)))),
    "engine velocity": ("engine", _engine_velocity),
    "engine trending dropped": ("engine", _engine_trending),
    "engine records": ("engine", _engine_records),
    "pagerank": ("pagerank", _cell("pagerank.tsv", 0, 1, _plus(1e-6))),
    "tunkrank": ("tunkrank", _cell("tunkrank.tsv", 0, 1, _plus(1e-6))),
    "followers": ("followers", _cell("followers.tsv", 0, 1, _plus(1))),
    "ratio": ("ratio", _cell("ratio.tsv", 0, 1, _plus(0.01))),
    "influence negative": ("ip_influence", _cell("ip_influence.tsv", 0, 1,
                                                 lambda c: repr(-float(c) - 1e-3))),
    "passivity sum": ("ip_passivity", _cell("ip_passivity.tsv", 0, 1, _plus(1e-6))),
    "report r out of range": ("report", _cell("report.tsv", 1, 2, lambda c: "1.5")),
    "report r squared": ("report", _cell("report.tsv", 1, 3, _scale(1.001))),
    "report p out of range": ("report", _cell("report.tsv", 2, 4, lambda c: "1.01")),
    "report global n": ("report", _cell("report.tsv", 1, 5, lambda c: str(int(c) - 1))),
    "report signal lost": ("report", _lost_signal),
    "skip count": ("skips", _file("score_stdout", lambda t: t.replace("skipped ", "skipped 1"))),
}


def main() -> int:
    work = OUT / SMALL.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner()
    runner.run(["-m", "veloscore.cli", "synth", *SMALL.synth_args(SEED), "--out", "data"],
               work, "synth")
    valid, injected = inject_malformed(work / "data" / "events.ndjson", SMALL.malformed_rate, SEED)
    outputs = run_round(runner, work / "plain", SMALL.weeks, traced=False).outputs()
    exp = oracle.expected(work / "data", SMALL.hours)

    bad = 0
    for name, msgs in oracle.check_all(outputs, exp, valid, injected).items():
        for msg in msgs:
            print(f"FAIL on real outputs: {name}: {msg}")
            bad += 1
    for label, (check, corrupt) in CORRUPTIONS.items():
        broken = copy.deepcopy(outputs)
        corrupt(broken)
        msgs = oracle.check_all(broken, exp, valid, injected)[check]
        print(f"{'caught' if msgs else 'MISSED'}  {label:24s} {check:15s} "
              f"{msgs[0][:70] if msgs else ''}")
        bad += not msgs
    broken = copy.deepcopy(outputs)
    broken["pagerank.tsv"] += "\n"
    caught = bool(differences(outputs, broken))
    print(f"{'caught' if caught else 'MISSED'}  {'traced output differs':24s} traced_identical")
    bad += not caught
    print(f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
