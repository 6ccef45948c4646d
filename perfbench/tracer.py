"""Spans around the calls the benchmark's child processes make into veloscore.

The tracer replaces a function with a timing wrapper under every name a
veloscore module binds it to (``from .ingest import load_graph`` makes a
second binding in ``cli``), and restores the originals on ``uninstall``.
A generator function is timed across its whole iteration: only the time
spent inside its ``next`` calls counts, not the consumer's time between
them.  Spans stay in memory; the caller writes them out at the end.

A span's self time is the time it was busy minus the time spent in spans
that ran inside it, so nested wrapped calls are not counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import tracemalloc
from time import perf_counter

# span name -> (module, attribute path); a missing target is skipped, so the
# metrics of a module that was folded away disappear with it.
TARGETS = {
    "ingest.read_events_file": ("veloscore.ingest", "read_events_file"),
    "ingest.bucketize": ("veloscore.ingest", "bucketize"),
    "ingest.load_graph": ("veloscore.ingest", "load_graph"),
    "dynamics.estimate_zeta": ("veloscore.dynamics", "estimate_zeta"),
    "dynamics.replay": ("veloscore.dynamics", "replay"),
    "dynamics.write_snapshots": ("veloscore.dynamics", "write_snapshots"),
    "dynamics.load_snapshots": ("veloscore.dynamics", "load_snapshots"),
    "dynamics.rank_trending": ("veloscore.dynamics", "rank_trending"),
    "dynamics.KineticsEngine.step_hour": ("veloscore.dynamics", "KineticsEngine.step_hour"),
    "dynamics.KineticsEngine.trending": ("veloscore.dynamics", "KineticsEngine.trending"),
    "kernels.velocity_replay": ("veloscore.kernels", "velocity_replay"),
    "kernels.pagerank_kernel": ("veloscore.kernels", "pagerank_kernel"),
    "kernels.tunkrank_kernel": ("veloscore.kernels", "tunkrank_kernel"),
    "kernels.ip_kernel": ("veloscore.kernels", "ip_kernel"),
    "centrality.build_retweet_graph": ("veloscore.centrality", "build_retweet_graph"),
    "centrality.pagerank": ("veloscore.centrality", "pagerank"),
    "centrality.tunkrank": ("veloscore.centrality", "tunkrank"),
    "centrality.influence_passivity": ("veloscore.centrality", "influence_passivity"),
    "centrality.ScoreVector.write_tsv": ("veloscore.centrality", "ScoreVector.write_tsv"),
    "centrality.ScoreVector.read_tsv": ("veloscore.centrality", "ScoreVector.read_tsv"),
    "evaluation.build_url_datasets": ("veloscore.evaluation", "build_url_datasets"),
    "evaluation.run_full_evaluation": ("veloscore.evaluation", "run_full_evaluation"),
    "evaluation.write_report_tsv": ("veloscore.evaluation", "write_report_tsv"),
    "evaluation.write_report_text": ("veloscore.evaluation", "write_report_text"),
    "evaluation.write_weekly_detail_tsv": ("veloscore.evaluation", "write_weekly_detail_tsv"),
}


def _iterations(result) -> int:
    """Iteration count of a scorer's result (a ScoreVector or a pair of them)."""
    first = result[0] if isinstance(result, tuple) else result
    return int(first.iterations)


# span name -> function of the call's result giving the span's count
RESULT_COUNTS = {
    "centrality.pagerank": _iterations,
    "centrality.tunkrank": _iterations,
    "centrality.influence_passivity": _iterations,
}


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "busy", "inner", "count")

    def __init__(self, sid: int, name: str, parent, start: float):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.busy = 0.0
        self.inner = 0.0
        self.count = None

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "busy": self.busy,
                "self": self.busy - self.inner, "count": self.count}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, tuple] = {}  # span name -> (args, kwargs) of its last call

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(span)
        return span

    def _enter(self, span: Span) -> float:
        self._stack.append(span)
        return perf_counter()

    def _leave(self, span: Span, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        span.busy += t1 - t0
        span.end = t1
        if self._stack:
            self._stack[-1].inner += t1 - t0

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span around code the benchmark runs."""
        span = self._open(name)
        t0 = self._enter(span)
        try:
            yield span
        finally:
            self._leave(span, t0)

    def _wrap_call(self, name: str, fn, keep_args: bool):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keep_args:
                self.calls[name] = (args, kwargs)
            span = self._open(name)
            t0 = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(span, t0)
            if count is not None:
                span.count = count(result)
            return result

        return wrapper

    def _wrap_iter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            return self._timed_iteration(span, fn(*args, **kwargs))

        return wrapper

    def _timed_iteration(self, span: Span, it):
        while True:
            t0 = self._enter(span)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._leave(span, t0)
            yield item

    def install(self, keep_args=()) -> None:
        """Wrap every target that exists; keep the arguments of ``keep_args``."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "veloscore" or n.startswith("veloscore.")]
        for name, (module_name, path) in TARGETS.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_iter(name, fn)
            else:
                wrapped = self._wrap_call(name, fn, name in keep_args)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            if owner_path:  # a method: the class is its only binding
                self._patch(owner, attr, raw, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, raw, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def as_dicts(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]


def peak_mb(fn, *args, **kwargs) -> float:
    """Peak traced Python allocation, in MB, of one call made under tracemalloc.

    Called after the traced command, with the tracer uninstalled, so that
    tracemalloc does not slow any timed span.
    """
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
