"""Pipeline benchmark for veloscore.

    python3 perfbench/run.py --workload demo --seed 7 --seconds 10 --trace 0

Runs from the root of a source checkout and uses the program in `src/`.
One run:

1. set-up: `veloscore synth` makes the workload's inputs from --seed (timed
   as `setup_s`); the `wide` workload then gets seeded malformed records;
2. rounds, until --seconds have been measured (at least one): the README
   pipeline through the CLI, each command its own child process, one at a
   time: `score`, `centrality`, `trend` for every week the stream covers,
   `eval`; and four passes of the streaming API spread between them, timed
   in one `stream_pass.py` child that waits idle between passes;
3. with --trace 1, the round once more (with one streaming pass, at the
   end) under the tracer, whose outputs must be byte-identical to the untraced round's,
   and whose spans give the per-layer metrics (written to
   `perfbench/out/<workload>/trace.json`);
4. the checks in `oracle.py`, against values computed apart from the program.

No check or tracing runs inside a timed section.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

import oracle
from workloads import WORKLOADS, inject_malformed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EVENTS = "../data/events.ndjson"
EDGES = "../data/edges.tsv"
CLICKS = "../data/clicks.tsv"
PIPELINE = ("score", "centrality", "eval")

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "trend_s": "s",
    "score_peak_mb": "MB", "centrality_peak_mb": "MB", "trend_peak_mb": "MB",
    "eval_peak_mb": "MB", "stream_events_per_s": "1/s", "stream_peak_mb": "MB",
}

# per-layer metric -> the spans whose self time it sums
SELF_TIME = {
    "ingest.parse_s": ["ingest.read_events_file"],
    "ingest.bucketize_s": ["ingest.bucketize"],
    "ingest.load_graph_s": ["ingest.load_graph"],
    "dynamics.estimate_zeta_s": ["dynamics.estimate_zeta"],
    "dynamics.replay_s": ["dynamics.replay"],
    "dynamics.write_snapshots_s": ["dynamics.write_snapshots"],
    "dynamics.load_snapshots_s": ["dynamics.load_snapshots"],
    "dynamics.rank_trending_s": ["dynamics.rank_trending"],
    "dynamics.engine_step_s": ["dynamics.KineticsEngine.step_hour"],
    "dynamics.engine_trending_s": ["dynamics.KineticsEngine.trending"],
    "kernels.velocity_replay_s": ["kernels.velocity_replay"],
    "kernels.pagerank_s": ["kernels.pagerank_kernel"],
    "kernels.tunkrank_s": ["kernels.tunkrank_kernel"],
    "kernels.ip_s": ["kernels.ip_kernel"],
    "centrality.build_retweet_graph_s": ["centrality.build_retweet_graph"],
    "centrality.pagerank_s": ["centrality.pagerank"],
    "centrality.tunkrank_s": ["centrality.tunkrank"],
    "centrality.influence_passivity_s": ["centrality.influence_passivity"],
    "centrality.write_s": ["centrality.ScoreVector.write_tsv"],
    "centrality.read_tsv_s": ["centrality.ScoreVector.read_tsv"],
    "evaluation.build_url_datasets_s": ["evaluation.build_url_datasets"],
    "evaluation.run_full_evaluation_s": ["evaluation.run_full_evaluation"],
    "evaluation.write_reports_s": ["evaluation.write_report_tsv", "evaluation.write_report_text",
                                   "evaluation.write_weekly_detail_tsv"],
}
# per-layer count -> (span, counted in) where None counts the span's own
# iteration count and a tuple of commands counts the spans in them
COUNTS = {
    "ingest.parse_passes": ("ingest.read_events_file", PIPELINE),
    "ingest.graph_loads": ("ingest.load_graph", PIPELINE),
    "centrality.pagerank_iterations": ("centrality.pagerank", None),
    "centrality.tunkrank_iterations": ("centrality.tunkrank", None),
    "centrality.ip_iterations": ("centrality.influence_passivity", None),
}
PEAKS = {
    "dynamics.replay_peak_mb": ("score", "dynamics.replay"),
    "dynamics.engine_peak_mb": ("stream", "dynamics.KineticsEngine"),
}


class RunFailed(Exception):
    """A child process exited with a non-zero code."""


@dataclass
class Child:
    wall: float
    peak_mb: float
    stdout: str


@dataclass
class Round:
    """One pass of the pipeline and the streaming API over the workload."""

    cwd: Path
    commands: dict = field(default_factory=dict)  # score/centrality/eval -> Child
    trends: list = field(default_factory=list)
    trending: dict = field(default_factory=dict)  # week -> trending.tsv text
    stream: Child | None = None                        # the streaming-pass process
    stream_passes: list = field(default_factory=list)  # records and seconds of each pass
    stream_result: dict = field(default_factory=dict)  # the last pass's engine state

    @property
    def pipeline_s(self) -> float:
        return sum(self.commands[c].wall for c in PIPELINE)

    def outputs(self) -> dict:
        run = self.cwd / "run"
        out = {p.name: p.read_text(encoding="utf-8") for p in sorted(run.iterdir())}
        out.update(trending=self.trending, stream=self.stream_result,
                   score_stdout=self.commands["score"].stdout)
        return out


class Runner:
    """Starts the child processes one at a time, and times each."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.attempted = 0

    def run(self, argv: list[str], cwd: Path, log: str) -> Child:
        """Run ``python3 *argv`` in ``cwd`` through spawn.py; stdout and
        stderr go to ``<log>.out`` and ``<log>.err``."""
        self.attempted += 1
        out_path = cwd / f"{log}.out"
        with open(out_path, "wb") as out, open(cwd / f"{log}.err", "wb") as err:
            subprocess.run(self.spawn_argv(argv, cwd, log), cwd=cwd, env=self.env,
                           stdout=out, stderr=err, check=True)
        return self.finished(argv, cwd, log, out_path.read_text(encoding="utf-8"))

    def spawn_argv(self, argv: list[str], cwd: Path, log: str) -> list[str]:
        return [sys.executable, str(HERE / "spawn.py"), str(cwd / f"{log}.usage.json"),
                sys.executable, *argv]

    @staticmethod
    def finished(argv: list[str], cwd: Path, log: str, stdout: str) -> Child:
        usage = json.loads((cwd / f"{log}.usage.json").read_text(encoding="utf-8"))
        if usage["exit"] != 0:
            raise RunFailed(f"{' '.join(argv)} exited {usage['exit']}:\n"
                            f"{(cwd / f'{log}.err').read_text(encoding='utf-8')[-2000:]}")
        return Child(usage["wall"], usage["peak_mb"], stdout)


class StreamProcess:
    """The streaming-pass child (``stream_pass.py``), asked for one timed pass
    at a time; it sits idle while the benchmark runs other commands."""

    def __init__(self, runner: Runner, argv: list[str], cwd: Path, log: str = "stream"):
        self.runner, self.argv, self.cwd, self.log = runner, argv, cwd, log
        self.passes: list[dict] = []  # {"records", "seconds"} of each pass
        with open(cwd / f"{log}.err", "wb") as err:
            self.proc = subprocess.Popen(runner.spawn_argv(argv, cwd, log), cwd=cwd,
                                         env=runner.env, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err, text=True)

    def run_pass(self) -> None:
        self.runner.attempted += 1
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RunFailed(f"{' '.join(self.argv)} stopped before a pass ended")
        self.passes.append(json.loads(line))

    def close(self) -> Child:
        """End the input, wait for the process, and return its wall time and peak."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.wait()
        self.proc.stdout.close()
        return Runner.finished(self.argv, self.cwd, self.log, "")


def run_round(runner: Runner, cwd: Path, weeks: int, traced: bool) -> Round:
    """The pipeline once, with four streaming passes spread through it (one,
    at the end, if traced).

    On a shared two-CPU machine the speed changes in spells of a few
    seconds, so the trend calls and the streaming passes are interleaved
    with the pipeline commands instead of running back to back: each median
    then draws on several spells.
    """
    if cwd.exists():
        shutil.rmtree(cwd)
    cwd.mkdir(parents=True)
    rnd = Round(cwd)

    def cli(label: str, *args: str) -> Child:
        prefix = [str(HERE / "traced_cli.py"), f"spans_{label}.json"] if traced \
            else ["-m", "veloscore.cli"]
        return runner.run([*prefix, *args], cwd, label)

    def centrality():
        rnd.commands["centrality"] = cli("centrality", "centrality", "--edges", EDGES,
                                         "--events", EVENTS, "--out", "run")

    def evaluate():
        rnd.commands["eval"] = cli("eval", "eval", "--events", EVENTS, "--edges", EDGES,
                                   "--clicks", CLICKS, "--out", "run")

    def trend(w: int):
        rnd.trends.append(cli(f"trend{w}", "trend", "--out", "run", "--week", str(w),
                              "--threshold", str(oracle.THRESHOLD), "--top-k", str(oracle.TOP_K)))
        rnd.trending[w] = (cwd / "run" / "trending.tsv").read_text(encoding="utf-8")

    rnd.commands["score"] = cli("score", "score", "--events", EVENTS, "--edges", EDGES,
                                "--out", "run")
    config = (cwd / "run" / "run_config_score.txt").read_text(encoding="utf-8")
    zeta = re.search(r"^resolved_zeta = (.+)$", config, re.M).group(1)
    half = weeks // 2
    steps = [centrality, *(partial(trend, w) for w in range(half)), evaluate,
             *(partial(trend, w) for w in range(half, weeks))]
    if traced:
        for step in steps:
            step()
    stream = StreamProcess(runner, [str(HERE / "stream_pass.py"), EVENTS, EDGES, zeta,
                                    "stream.json", *(["spans_stream.json"] if traced else [])],
                           cwd)
    try:
        if not traced:
            stream.run_pass()
            for i, step in enumerate(steps):
                step()
                if i % 3 == 2:
                    stream.run_pass()
        stream.run_pass()
    finally:
        rnd.stream = stream.close()
    rnd.stream_passes = stream.passes
    rnd.stream_result = json.loads((cwd / "stream.json").read_text(encoding="utf-8"))
    return rnd


def end_to_end(setup_s: float, rounds: list[Round]) -> dict:
    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    return {
        "setup_s": setup_s,
        "pipeline_s": med(lambda r: r.pipeline_s),
        "trend_s": statistics.median(t.wall for r in rounds for t in r.trends),
        "score_peak_mb": med(lambda r: r.commands["score"].peak_mb),
        "centrality_peak_mb": med(lambda r: r.commands["centrality"].peak_mb),
        "trend_peak_mb": med(lambda r: max(t.peak_mb for t in r.trends)),
        "eval_peak_mb": med(lambda r: r.commands["eval"].peak_mb),
        "stream_events_per_s": statistics.median(
            p["records"] / p["seconds"] for r in rounds for p in r.stream_passes),
        "stream_peak_mb": med(lambda r: r.stream.peak_mb),
    }


def per_layer(rounds: list[Round], traced: Round, work: Path) -> dict:
    labels = ["score", "centrality", *(f"trend{w}" for w in traced.trending), "eval", "stream"]
    procs = {label: json.loads((traced.cwd / f"spans_{label}.json").read_text(encoding="utf-8"))
             for label in labels}
    (work / "trace.json").write_text(json.dumps(procs), encoding="utf-8")

    metrics = {
        "cli.import_s": (statistics.median(p["import_s"] for p in procs.values()
                                           if "import_s" in p), "s"),
    }
    for c in PIPELINE:
        metrics[f"cli.{c}_s"] = (statistics.median(r.commands[c].wall for r in rounds), "s")
    spans = [(label, s) for label, p in procs.items() for s in p["spans"]]
    for metric, names in SELF_TIME.items():
        chosen = [s["self"] for _, s in spans if s["name"] in names]
        if chosen:
            metrics[metric] = (sum(chosen), "s")
    for metric, (name, within) in COUNTS.items():
        chosen = [(label, s) for label, s in spans if s["name"] == name]
        if chosen:
            metrics[metric] = (sum(1 for label, _ in chosen if label in within) if within
                               else sum(s["count"] for _, s in chosen), "count")
    for metric, (label, key) in PEAKS.items():
        if key in procs[label]["peaks_mb"]:
            metrics[metric] = (procs[label]["peaks_mb"][key], "MB")
    untraced = statistics.median(r.pipeline_s for r in rounds)
    metrics["trace.overhead_s"] = (traced.pipeline_s - untraced, "s")
    return metrics


def differences(plain: dict, traced: dict) -> list[str]:
    """Where the traced round's outputs differ from the untraced round's."""
    a, b = ({k: v for k, v in out.items() if k != "score_stdout"} for out in (plain, traced))
    return [f"traced output differs: {k}" for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "veloscore" / "cli.py").is_file():
        print(f"perfbench: no veloscore sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = OUT / wl.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner()
    failed = 0
    fails: dict[str, list[str]] = {}
    try:
        setup = runner.run(["-m", "veloscore.cli", "synth", *wl.synth_args(args.seed),
                            "--out", "data"], work, "synth")
        valid, injected = inject_malformed(work / "data" / "events.ndjson",
                                           wl.malformed_rate, args.seed)
        rounds = []
        t0 = perf_counter()
        while not rounds or perf_counter() - t0 < args.seconds:
            rounds.append(run_round(runner, work / "plain", wl.weeks, traced=False))
        traced = run_round(runner, work / "traced", wl.weeks, traced=True) if args.trace \
            else None
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        failed = 1
    if failed:
        result = {"correct": False, "attempted": runner.attempted, "failed": failed,
                  "metrics": {}}
    else:
        exp = oracle.expected(work / "data", wl.hours)
        outputs = rounds[-1].outputs()
        fails = oracle.check_all(outputs, exp, valid, injected)
        fails["stream_passes"] = [
            f"a streaming pass read {p['records']} records, not {valid + injected}"
            for r in rounds for p in r.stream_passes if p["records"] != valid + injected]
        if traced is not None:
            fails["traced_identical"] = differences(outputs, traced.outputs())
            metrics = per_layer(rounds, traced, work)
        else:
            values = end_to_end(setup.wall, rounds)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        result = {"correct": not any(fails.values()), "attempted": runner.attempted,
                  "failed": 0,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    for name, msgs in fails.items():
        for msg in msgs:
            print(f"perfbench: check {name} failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
