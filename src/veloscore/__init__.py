"""Mention-velocity influence scoring for microblog event streams.

Models per-user influence as the velocity of a damped body: mentions are
applied force, follower count is mass, and a constant damping term decays
velocity in quiet hours.  Ships with baseline centrality scorers
(PageRank, TunkRank, influence/passivity), a click-correlation evaluation
pipeline, and a deterministic synthetic data generator.
"""

__version__ = "0.1.0"

import importlib

# every exported name and the module it is defined in; a name is imported
# when first asked for (PEP 562), so `import veloscore` loads no numpy
_EXPORTS = {
    "Event": "ingest",
    "HourBucket": "ingest",
    "IngestStats": "ingest",
    "UserGraph": "ingest",
    "bucketize": "ingest",
    "load_graph": "ingest",
    "KineticsConfig": "core",
    "KineticsEngine": "dynamics",
    "TrendingEntry": "core",
    "VelocityHistory": "core",
    "estimate_zeta": "core",
    "rank_trending": "core",
    "replay": "core",
    "RetweetGraph": "centrality",
    "ScoreVector": "core",
    "build_retweet_graph": "centrality",
    "followers_score": "centrality",
    "influence_passivity": "centrality",
    "pagerank": "centrality",
    "ratio_score": "centrality",
    "tunkrank": "centrality",
    "CorrelationReport": "evaluation",
    "UrlRecord": "evaluation",
    "accumulate_scores": "evaluation",
    "audience_correct": "evaluation",
    "audience_confound_report": "evaluation",
    "average_weekly_r": "evaluation",
    "build_url_datasets": "evaluation",
    "iqr_filter": "evaluation",
    "pearson": "evaluation",
    "Burst": "synth",
    "SynthConfig": "synth",
    "generate": "synth",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
