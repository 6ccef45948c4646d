"""Shared in-process pipeline driver for synth-backed tests."""

from dataclasses import dataclass
from pathlib import Path

from veloscore.centrality import SCORERS
from veloscore.cli import SCORE_FILE_TEMPLATE
from veloscore.dynamics import KineticsConfig, VelocityHistory, estimate_zeta, replay
from veloscore.evaluation import build_url_datasets, read_clicks
from veloscore.ingest import IngestStats, UserGraph, bucketize, load_graph, parse_timestamp, read_events_file

# every file `centrality --algorithm all` writes, in the order it writes them
SCORE_FILES = tuple(SCORE_FILE_TEMPLATE.format(name)
                    for scorer in SCORERS.values() for name in scorer.outputs)


@dataclass
class PipelineResult:
    events: list
    buckets: list
    graph: UserGraph
    history: VelocityHistory
    zeta: float
    stats: IngestStats
    epoch: object


def score_dataset(data_dir, zeta="auto", mass_mode="raw_followers",
                  force_source="mentions") -> PipelineResult:
    data_dir = Path(data_dir)
    stats = IngestStats()
    events = list(read_events_file(data_dir / "events.ndjson", stats))
    epoch = None
    manifest_path = data_dir / "manifest.json"
    if manifest_path.is_file():
        import json
        epoch = parse_timestamp(json.loads(manifest_path.read_text())["epoch"])
    buckets = list(bucketize(iter(events), epoch, stats))
    counts = data_dir / "follower_counts.tsv"
    graph = load_graph(data_dir / "edges.tsv",
                       counts if counts.is_file() else None, stats)
    if zeta == "auto":
        zeta = estimate_zeta(buckets, graph) if buckets else 0.0
    cfg = KineticsConfig(zeta=zeta, mass_mode=mass_mode, force_source=force_source)
    history = replay(buckets, cfg, graph)
    return PipelineResult(events, buckets, graph, history, zeta, stats, epoch)


def url_datasets(result: PipelineResult, data_dir):
    clicks = read_clicks(Path(data_dir) / "clicks.tsv")
    return build_url_datasets(result.events, clicks, result.graph, result.epoch)
