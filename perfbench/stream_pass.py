"""Feed an event stream hour by hour through the streaming API, on request.

    python3 perfbench/stream_pass.py EVENTS EDGES ZETA RESULT.json [SPANS.json]

Loads the follower graph, then waits on standard input.  For each line
``pass`` it times one pass with a fresh engine: ``read_events_file`` ->
``bucketize`` -> ``KineticsEngine.step_hour``, asking
``KineticsEngine.trending`` at every week end, and answers with one JSON
line holding the records read and the seconds taken.  The benchmark asks
for passes between its other commands, so that they fall in different
stretches of the run while this process sits idle in between.  At the end
of input it writes the last engine's velocities and trending lists at
every week end to RESULT.json.

With SPANS.json the passes run under the tracer, and the engine is then
stepped once more over the same buckets, untimed and under tracemalloc,
for its memory peak.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, peak_mb

WEEK_HOURS = 168
THRESHOLD = 0.10  # the --threshold and --top-k the benchmark gives `veloscore trend`
TOP_K = 5         # (oracle.THRESHOLD, oracle.TOP_K)


def feed(engine, buckets, kept=None) -> dict:
    """Step the engine over the buckets; returns the trending list of each week."""
    trending = {}
    for bucket in buckets:
        engine.step_hour(bucket)
        if kept is not None:
            kept.append(bucket)
        h = bucket.hour_index
        if (h + 1) % WEEK_HOURS == 0:
            w = h // WEEK_HOURS
            trending[w] = engine.trending(h - WEEK_HOURS, h, THRESHOLD, TOP_K, f"week{w}")
    return trending


def main(argv: list[str]) -> int:
    events, edges, zeta, result_path = argv[0], argv[1], float(argv[2]), Path(argv[3])
    spans_path = Path(argv[4]) if len(argv) > 4 else None
    from veloscore import dynamics, ingest

    tracer = Tracer()
    if spans_path:
        tracer.install()
    engine = None
    with tracer.span("stream"):
        graph = ingest.load_graph(edges)
        while sys.stdin.readline().strip() == "pass":
            engine = None  # free the previous pass's engine before timing the next
            kept = [] if spans_path else None
            t0 = perf_counter()
            stats = ingest.IngestStats()
            engine = dynamics.KineticsEngine(dynamics.KineticsConfig(zeta=zeta), graph)
            trending = feed(engine, ingest.bucketize(ingest.read_events_file(events, stats),
                                                     None, stats), kept)
            seconds = perf_counter() - t0
            print(json.dumps({"records": stats.records, "seconds": seconds}), flush=True)
    tracer.uninstall()
    if engine is None:
        return 1

    week_ends = sorted(trending)
    result = {
        "records": stats.records,
        "parse_errors": stats.parse_errors,
        "velocity": {str(w): {u: engine.velocity_at(u, (w + 1) * WEEK_HOURS - 1)
                              for u in engine.tracked_users} for w in week_ends},
        "trending": {str(w): [[e.user, e.acceleration, e.relative_increase]
                              for e in trending[w]] for w in week_ends},
    }
    result_path.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    if spans_path:
        fresh = dynamics.KineticsEngine(dynamics.KineticsConfig(zeta=zeta), graph)
        peaks = {"dynamics.KineticsEngine": peak_mb(feed, fresh, kept)}
        spans_path.write_text(json.dumps({"peaks_mb": peaks, "spans": tracer.as_dicts()}),
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
