"""Command-line pipeline: synth, score, trend, centrality, eval.

Every command is deterministic given identical inputs and flags; outputs
land under --out with fixed filenames, alongside the resolved run
configuration.  Exit codes: 0 success, 1 usage/config error, 2 data
error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

# only the standard library at import: each command imports the numpy
# modules it runs, so `trend` and `eval` load none of them
from .core import (DEFAULT_DAMPING, DEFAULT_ERROR_CEILING, DEFAULT_MAX_ITER,
                   DEFAULT_RETWEET_PROB, DEFAULT_TOL, FORCE_SOURCES, MASS_MODES, SCORERS,
                   WEEK_HOURS, DataFileError, KineticsConfig, ScoreVector, load_snapshots,
                   rank_trending, table_rows, week_end_hour, write_snapshots)

if TYPE_CHECKING:
    from .ingest import IngestStats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

SNAPSHOT_FILE = "snapshots.tsv"
FINAL_VELOCITY_FILE = "velocity_final.tsv"
TRENDING_FILE = "trending.tsv"
REPORT_TSV = "report.tsv"
REPORT_TXT = "report.txt"
REPORT_WEEKLY = "report_weekly.tsv"
STREAM_DIGEST_FILE = "stream_digest.ndjson"
GRAPH_CACHE_FILE = "graph_cache.ndjson"
RUN_CONFIG_TEMPLATE = "run_config_{}.txt"
SCORE_FILE_TEMPLATE = "{}.tsv"


class CliError(Exception):
    """Usage or configuration problem (exit 1)."""


class DataError(Exception):
    """Bad or insufficient data (exit 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} not readable: {p}")
    return p


def _require_artifact(out_dir: Path, filename: str, producer: str) -> Path:
    p = out_dir / filename
    if not p.is_file():
        raise CliError(f"missing {p}; run `veloscore {producer}` first")
    return p


def _out_dir(path: str) -> Path:
    """The directory ``path``, made if it is absent; exit 1 if it cannot be one."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"--out {out_dir} cannot be a directory: {exc.strerror}") from exc
    return out_dir


def _config_lines(path) -> Iterator[tuple[int, str, str]]:
    """Each ``key = value`` line of a flat config file: its number, key and
    value.  A line that is not ``key = value``, or repeats a key, is a usage error."""
    keys = set()
    for lineno, (k, eq, v) in table_rows(path, lambda line: line.partition("="), comments=True):
        if not eq:
            raise CliError(f"{path}:{lineno}: not key = value: {k!r}")
        k = k.strip().replace("-", "_")
        if k in keys:
            raise CliError(f"{path}:{lineno}: key {k!r} is listed again")
        keys.add(k)
        yield lineno, k, v.strip()


def _write_run_config(out_dir: Path, args: argparse.Namespace, extra: dict) -> None:
    skip = {"func", "config"}
    resolved = {k: v for k, v in vars(args).items() if k not in skip}
    resolved.update(extra)
    with open(out_dir / RUN_CONFIG_TEMPLATE.format(args.command), "w",
              encoding="utf-8") as fh:
        for k in sorted(resolved):
            fh.write(f"{k} = {resolved[k]}\n")


def _parse_epoch(value):
    from . import ingest

    if not value:
        return None
    try:
        return ingest.parse_timestamp(value)
    except Exception as exc:
        raise CliError(f"bad --epoch value: {exc}") from exc


def _keyed(*paths: Path | None):
    """The key of the files ``paths``, and a check that none has changed since.

    The key lists each file's byte size and BLAKE2b hash, or None and None
    for an absent one.  The check tells whether each file still has the
    size and modification time it had before the key was taken.
    """
    from . import ingest

    def stamps():
        return [(st.st_size, st.st_mtime_ns) for st in (p.stat() for p in paths if p)]

    before = stamps()
    key = [x for p in paths for x in (ingest.file_fingerprint(p) if p else (None, None))]
    return key, lambda: stamps() == before


def _score_stream(events_path: Path, epoch, out_dir: Path, cfg: KineticsConfig,
                  stats: IngestStats, ceiling: float):
    """The stream's force table and its resolved epoch.

    Feeds each sealed hour into the table as it is bucketized, so no hour
    is kept as a bucket.  Writes the stream's digest under ``out_dir``,
    unless the ceiling on skipped records fails or the file changed while
    it was read.
    """
    from . import dynamics, ingest

    key, unchanged = _keyed(events_path)
    digest = ingest.StreamDigest()
    table = dynamics.ForceTable.of(
        ingest.bucketize(digest.tap(ingest.read_events_file(events_path, stats)), epoch, stats),
        cfg.force_source)
    _check_ceiling(stats, ceiling)
    if unchanged():
        digest.write(out_dir / STREAM_DIGEST_FILE, key)
    if epoch is None and digest.first_ts is not None:
        epoch = ingest.floor_to_hour(digest.first_ts)
    return table, epoch


def _graph(edges_path: Path, counts_path: Path | None, out_dir: Path,
           stats: IngestStats, rows: tuple[str, ...] | None = None):
    """The follower graph of ``edges_path`` and ``counts_path``.

    Read from the cache under ``out_dir``, with only its ``rows`` kinds
    kept (all by default), if it was made from the current content of
    both files (an absent ``counts_path`` included), else parsed anew and
    cached, unless a file changed while it was read.  Either way the
    load's graph counts are added to ``stats``.
    """
    from . import ingest

    key, unchanged = _keyed(edges_path, counts_path)
    cache = out_dir / GRAPH_CACHE_FILE
    cached = ingest.read_graph_cache(cache, key, rows or ingest.GRAPH_ROWS)
    if cached is not None:
        graph, load_stats = cached
    else:
        load_stats = ingest.IngestStats()
        graph = ingest.load_graph(edges_path, counts_path, load_stats)
        if unchanged():
            ingest.write_graph_cache(cache, graph, load_stats, key)
    stats.add(load_stats)
    return graph


def _stream_events(events_path: Path, out_dir: Path, rows: tuple[str, ...]):
    """The digest `score` wrote under ``out_dir``, with only its ``rows``
    kinds read, if it matches the events file's current content; else the
    digest of the file, parsed anew: held to `score`'s default ceiling on
    skipped records, and their count printed if there are any."""
    from . import ingest

    path = out_dir / STREAM_DIGEST_FILE
    digest = ingest.StreamDigest.load(path, _keyed(events_path)[0], rows) \
        if path.is_file() else None
    if digest is None:
        stats = ingest.IngestStats()
        digest = ingest.StreamDigest.of(ingest.read_events_file(events_path, stats))
        _check_ceiling(stats, DEFAULT_ERROR_CEILING)
        if stats.skipped:
            print(f"skipped {stats.skipped}/{stats.records} records")
    return digest


def _clear_outputs(out_dir: Path, command: str, *names: str) -> None:
    """Delete the files this run of ``command`` writes in ``out_dir``, ``names``
    and its run record: a failed run must not leave an earlier run's results
    for a later command to read."""
    for name in (*names, RUN_CONFIG_TEMPLATE.format(command)):
        (out_dir / name).unlink(missing_ok=True)


def _scored_epoch(out_dir: Path):
    """The epoch the `score` run under ``out_dir`` resolved, or None if it
    recorded none; a damaged record is a data error."""
    from . import ingest

    path = out_dir / RUN_CONFIG_TEMPLATE.format("score")
    if not path.is_file():
        return None
    epoch = None
    try:
        for lineno, k, v in _config_lines(path):
            if k == "resolved_epoch":
                epoch = ingest.parse_timestamp(v)
    except CliError as exc:  # a line that is not key = value, or a repeated key
        raise DataError(str(exc)) from exc
    except ingest.ParseError as exc:
        raise DataFileError(path, lineno, f"resolved_epoch: {exc}") from exc
    return epoch


def _print_graph_skips(stats: IngestStats) -> None:
    """Print what the graph load skipped, if it skipped anything."""
    if stats.bad_graph_lines or stats.self_loops_dropped or stats.duplicate_edges:
        print(f"graph: skipped {stats.bad_graph_lines} bad lines, "
              f"{stats.self_loops_dropped} self-loops, {stats.duplicate_edges} duplicate edges")


def _check_flag(flag: str, value, ok: bool, want: str) -> None:
    if not ok:
        raise CliError(f"{flag} must be {want}, got {value}")


def _check_ceiling(stats: IngestStats, ceiling: float) -> None:
    if stats.records and stats.skip_rate > ceiling:
        raise DataError(
            f"skipped {stats.skipped}/{stats.records} records "
            f"({stats.skip_rate:.2%}) exceeds ceiling {ceiling:.2%}"
        )


def cmd_synth(args) -> int:
    from . import synth

    bursts = []
    for raw in args.burst or []:
        try:
            user, start, end, rate = raw.split(":")
            bursts.append(synth.Burst(user, int(start), int(end), float(rate)))
        except ValueError as exc:
            raise CliError(f"bad --burst {raw!r} (want user:start:end:rate): {exc}") from exc
    try:
        cfg = synth.SynthConfig(
            seed=args.seed, users=args.users, hours=args.hours,
            celebrity_fraction=args.celebrity_fraction,
            base_mention_rate=args.base_mention_rate,
            bursts=tuple(bursts), graph_model=args.graph_model,
            follows_per_user=args.follows_per_user,
            spam_cluster_size=args.spam_cluster_size,
            url_count=args.urls, signal=args.signal,
            base_click_prob=args.base_click_prob,
            click_noise=args.click_noise, mode=args.mode,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    out_dir = _out_dir(args.out)
    manifest = synth.generate(cfg, out_dir)
    _write_run_config(out_dir, args, {})
    print(f"generated {manifest['totals']['events']} events, "
          f"{len(manifest['users'])} users, {len(manifest['urls'])} urls -> {out_dir}")
    return EXIT_OK


def _kinetics(args, zeta: float) -> KineticsConfig:
    try:
        return KineticsConfig(zeta=zeta, mass_mode=args.mass_mode,
                              default_mass=args.default_mass,
                              force_source=args.force_source)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_score(args) -> int:
    from . import dynamics, ingest

    # every flag and input file is checked before the stream is parsed
    _check_flag("--error-ceiling", args.error_ceiling, 0.0 <= args.error_ceiling <= 1.0,
                "in [0, 1]")
    try:
        zeta = None if args.zeta == "auto" else float(args.zeta)
    except ValueError as exc:
        raise CliError(f"bad --zeta value {args.zeta!r}") from exc
    cfg = _kinetics(args, 0.0 if zeta is None else zeta)
    edges_path = _require_file(args.edges, "edge list")
    counts_path = _require_file(args.counts, "follower-count file") if args.counts else None
    events_path = _require_file(args.events, "event stream")
    epoch = _parse_epoch(args.epoch)
    out_dir = _out_dir(args.out)
    _clear_outputs(out_dir, args.command, SNAPSHOT_FILE, FINAL_VELOCITY_FILE)
    stats = ingest.IngestStats()
    table, epoch = _score_stream(events_path, epoch, out_dir, cfg, stats, args.error_ceiling)
    graph = _graph(edges_path, counts_path, out_dir, stats)

    if zeta is None:
        try:
            zeta = dynamics.estimate_zeta(table, graph) if table.hours else 0.0
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        cfg = _kinetics(args, zeta)

    # the week ends and the final hour, each with the hour before it for acceleration
    final = table.hours - 1
    snap_hours = sorted({min(week_end_hour(w), final)
                         for w in range(final // WEEK_HOURS + 1)})
    history = dynamics.replay(table, cfg, graph,
                              checkpoints={h - d for h in snap_hours for d in (0, 1) if h >= d})
    write_snapshots(out_dir / SNAPSHOT_FILE, history, snap_hours)
    with open(out_dir / FINAL_VELOCITY_FILE, "w", encoding="utf-8") as fh:
        for u, v in history.row(final).items():
            fh.write(f"{u}\t{v:.12g}\n")
    resolved = {"resolved_zeta": repr(zeta)}
    if epoch is not None:
        resolved["resolved_epoch"] = epoch.isoformat()
    _write_run_config(out_dir, args, resolved)
    print(f"tracked {len(history.users)} users over {final + 1} hours; "
          f"skipped {stats.skipped}/{stats.records} records; zeta={zeta:g}")
    _print_graph_skips(stats)
    return EXIT_OK


def cmd_trend(args) -> int:
    _check_flag("--week", args.week, args.week >= 0, ">= 0")
    _check_flag("--threshold", args.threshold, not math.isnan(args.threshold), "a number")
    _check_flag("--top-k", args.top_k, args.top_k >= 1, ">= 1")
    out_dir = Path(args.out)
    snap_path = _require_artifact(out_dir, SNAPSHOT_FILE, "score")
    _clear_outputs(out_dir, args.command, TRENDING_FILE)
    history = load_snapshots(snap_path)
    try:
        entries = rank_trending(
            history.row(week_end_hour(args.week - 1)), history.row(week_end_hour(args.week)),
            args.threshold, args.top_k, window=f"week{args.week}")
    except ValueError as exc:
        raise CliError(f"{exc}; run `veloscore score` over a stream covering week {args.week}") \
            from exc
    with open(out_dir / TRENDING_FILE, "w", encoding="utf-8") as fh:
        fh.write("window\tuser\tacceleration\trelative_increase\n")
        for e in entries:
            fh.write(f"{e.window}\t{e.user}\t{e.acceleration:.12g}\t{e.relative_increase:.12g}\n")
    _write_run_config(out_dir, args, {})
    for e in entries:
        print(f"{e.window}\t{e.user}\t{e.acceleration:.6g}\t{e.relative_increase:.6g}")
    print(f"{len(entries)} trending users for week {args.week}")
    return EXIT_OK


def cmd_centrality(args) -> int:
    from . import centrality, ingest

    _check_flag("--damping", args.damping, 0.0 < args.damping < 1.0, "in (0, 1)")
    _check_flag("--retweet-prob", args.retweet_prob, 0.0 <= args.retweet_prob <= 1.0,
                "in [0, 1]")
    _check_flag("--tol", args.tol, 0.0 <= args.tol < math.inf, "finite and >= 0")
    _check_flag("--max-iter", args.max_iter, args.max_iter >= 1, ">= 1")
    chosen = SCORERS if args.algorithm == "all" else {args.algorithm: SCORERS[args.algorithm]}
    streamed = [name for name, scorer in chosen.items() if scorer.needs_stream]
    # every flag and input file is checked before a file is read or --out is made
    edges_path = _require_file(args.edges, "edge list")
    counts_path = _require_file(args.counts, "follower-count file") if args.counts else None
    if streamed:
        if not args.events:
            raise CliError(f"--events is required for the {', '.join(streamed)} algorithm")
        events_path = _require_file(args.events, "event stream")
    out_dir = _out_dir(args.out)
    _clear_outputs(out_dir, args.command, *(SCORE_FILE_TEMPLATE.format(name)
                                            for scorer in chosen.values()
                                            for name in scorer.outputs))
    graph_stats = ingest.IngestStats()
    graph = _graph(edges_path, counts_path, out_dir, graph_stats)
    if graph.n == 0:
        raise DataError("graph is empty")

    rg = centrality.build_retweet_graph(
        _stream_events(events_path, out_dir, ("author", "retweet")), graph) if streamed else None
    try:
        vectors = [sv for scorer in chosen.values()
                   for sv in scorer.run(centrality, graph, rg, args)]
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    for sv in vectors:
        sv.write_tsv(out_dir / SCORE_FILE_TEMPLATE.format(sv.algorithm))
        note = "" if sv.converged else " (NOT converged)"
        print(f"{sv.algorithm}: {len(sv.users)} users, {sv.iterations} iterations, "
              f"residual {sv.residual:.3g}{note}")
    _print_graph_skips(graph_stats)
    _write_run_config(out_dir, args, {})
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evaluation, ingest

    _check_flag("--iqr-k", args.iqr_k, 0.0 <= args.iqr_k < math.inf, "finite and >= 0")
    out_dir = Path(args.out)
    snap_path = _require_artifact(out_dir, SNAPSHOT_FILE, "score")
    reported = sorted(name for scorer in SCORERS.values() for name in scorer.reported)
    static_paths = {name: _require_artifact(out_dir, SCORE_FILE_TEMPLATE.format(name),
                                            "centrality") for name in reported}
    events_path = _require_file(args.events, "event stream")
    clicks_path = _require_file(args.clicks, "clicks table")
    edges_path = _require_file(args.edges, "edge list")
    counts_path = _require_file(args.counts, "follower-count file") if args.counts else None
    # every flag and input file is checked before one is read
    _clear_outputs(out_dir, args.command, REPORT_TSV, REPORT_TXT, REPORT_WEEKLY)
    static_sources = {name: ScoreVector.read_tsv(path, name)
                      for name, path in static_paths.items()}
    epoch = _scored_epoch(out_dir)
    graph_stats = ingest.IngestStats()
    # a URL's audience needs each user's follower count, not the edges
    followers = _graph(edges_path, counts_path, out_dir, graph_stats,
                       ("users", "followers")).follower_map()
    clicks_table = evaluation.read_clicks(clicks_path)

    ds_stats: dict = {}
    global_records, weekly_records = evaluation.build_url_datasets(
        _stream_events(events_path, out_dir, ("first", "url")), clicks_table, followers, epoch,
        stats=ds_stats)
    if len(global_records) < 3:
        raise DataError(f"only {len(global_records)} qualified URLs; need at least 3")
    velocity_source = load_snapshots(snap_path)
    try:
        sections = evaluation.run_full_evaluation(
            global_records, weekly_records, static_sources, velocity_source,
            iqr_k=args.iqr_k, quartile_rule=args.quartile_rule, stats=ds_stats)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    evaluation.write_report_tsv(out_dir / REPORT_TSV, sections)
    evaluation.write_report_text(out_dir / REPORT_TXT, sections)
    evaluation.write_weekly_detail_tsv(out_dir / REPORT_WEEKLY, sections)
    _write_run_config(out_dir, args, {})
    print(f"urls: {len(global_records)} global, {len(weekly_records)} weekly "
          f"({ds_stats.get('multi_week', 0)} multi-week, "
          f"{ds_stats.get('too_few_promoters', 0)} under-promoted, "
          f"{ds_stats.get('no_click_entry', 0)} without clicks)")
    for sec in sections:
        for row in sec.rows:
            print(f"{sec.section}\t{row.score}\tr={row.pearson_r:.5f}\t"
                  f"p={row.p_value:.3g}\tn={row.n}")
    _print_graph_skips(graph_stats)
    return EXIT_OK


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="veloscore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file; flags win")
        p.add_argument("--out", default="out", help="output directory")

    p_synth = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    add_common(p_synth)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--users", type=int, default=200)
    p_synth.add_argument("--hours", type=int, default=336)
    p_synth.add_argument("--urls", type=int, default=0)
    p_synth.add_argument("--signal", type=float, default=0.0)
    p_synth.add_argument("--celebrity-fraction", type=float, default=0.02)
    p_synth.add_argument("--base-mention-rate", type=float, default=0.05)
    p_synth.add_argument("--base-click-prob", type=float, default=0.05)
    p_synth.add_argument("--click-noise", type=float, default=0.2)
    p_synth.add_argument("--graph-model", choices=["preferential", "uniform"],
                         default="preferential")
    p_synth.add_argument("--follows-per-user", type=int, default=10)
    p_synth.add_argument("--spam-cluster-size", type=int, default=0)
    p_synth.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p_synth.add_argument("--burst", action="append",
                         help="user:start_hour:end_hour:rate (repeatable)")
    p_synth.set_defaults(func=cmd_synth)

    p_score = sub.add_parser("score", help="run the velocity pipeline over a stream")
    add_common(p_score)
    p_score.add_argument("--events", required=True)
    p_score.add_argument("--edges", required=True)
    p_score.add_argument("--counts", help="optional follower-count override file")
    p_score.add_argument("--zeta", default="auto",
                         help="damping constant, or 'auto' to estimate from the stream")
    p_score.add_argument("--mass-mode", choices=list(MASS_MODES),
                         default="raw_followers")
    p_score.add_argument("--default-mass", type=float, default=1.0)
    p_score.add_argument("--force-source", choices=list(FORCE_SOURCES),
                         default="mentions")
    p_score.add_argument("--epoch", help="ISO-8601 stream epoch / week anchor "
                                         "(default: first event, floored to the hour)")
    p_score.add_argument("--error-ceiling", type=float, default=DEFAULT_ERROR_CEILING,
                         help="max tolerated record skip rate")
    p_score.set_defaults(func=cmd_score)

    p_trend = sub.add_parser("trend", help="rank trending users for one week")
    add_common(p_trend)
    p_trend.add_argument("--week", type=int, required=True)
    p_trend.add_argument("--threshold", type=float, default=0.10,
                         help="minimum relative velocity increase")
    p_trend.add_argument("--top-k", type=int, default=5)
    p_trend.set_defaults(func=cmd_trend)

    p_cent = sub.add_parser("centrality", help="baseline graph scorers")
    add_common(p_cent)
    p_cent.add_argument("--edges", required=True)
    p_cent.add_argument("--counts")
    p_cent.add_argument("--events", help="event stream (needed for the retweet graph)")
    p_cent.add_argument("--algorithm", default="all", choices=["all", *SCORERS])
    p_cent.add_argument("--damping", type=float, default=DEFAULT_DAMPING)
    p_cent.add_argument("--retweet-prob", type=float,
                        default=DEFAULT_RETWEET_PROB)
    p_cent.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_cent.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p_cent.set_defaults(func=cmd_centrality)

    p_eval = sub.add_parser("eval", help="click-correlation reports")
    add_common(p_eval)
    p_eval.add_argument("--events", required=True)
    p_eval.add_argument("--edges", required=True)
    p_eval.add_argument("--counts")
    p_eval.add_argument("--clicks", required=True)
    p_eval.add_argument("--iqr-k", type=float, default=1.5)
    p_eval.add_argument("--quartile-rule", choices=["linear", "tukey"], default="linear")
    p_eval.set_defaults(func=cmd_eval)

    commands.update(synth=p_synth, score=p_score, trend=p_trend,
                    centrality=p_cent, eval=p_eval)
    return parser, commands


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config is not None:
                # flat key = value defaults; command-line flags win over these
                defaults = {k: v for _, k, v in
                            _config_lines(_require_file(args.config, "config file"))}
                # a key of any command is fine: one file can configure a pipeline
                known = {cmd: {a.dest: a for a in p._actions if a.dest != "help"}  # noqa: SLF001
                         for cmd, p in commands.items()}
                unknown = sorted(defaults.keys() - set().union(*known.values()))
                if unknown:
                    raise CliError(f"{args.config}: no command has an option "
                                   f"{', '.join(unknown)}")
                actions = known[args.command]
                # the key of a repeatable flag is one value, and its flags add to it
                commands[args.command].set_defaults(**{
                    k: [v] if isinstance(actions[k], argparse._AppendAction) else v  # noqa: SLF001
                    for k, v in defaults.items() if k in actions})
                args = parser.parse_args(argv)
                # argparse checks the choices of a flag, not of a default
                for a in actions.values():
                    value = getattr(args, a.dest, None)
                    if a.choices is not None and value not in a.choices:
                        raise CliError(f"{args.config}: {a.dest} = {value} is not one of "
                                       f"{', '.join(a.choices)}")
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.func(args)
    except CliError as exc:
        print(f"veloscore: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, DataFileError) as exc:
        print(f"veloscore: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
