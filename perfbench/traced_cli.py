"""Run one veloscore command under the tracer and write its spans as JSON.

    python3 perfbench/traced_cli.py SPANS.json COMMAND [ARGS...]

The import of ``veloscore.cli`` is timed before any wrapper is installed.
After the command, ``replay`` is called once more, untimed and under
tracemalloc, with the arguments the command gave it, for its memory peak.
Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, peak_mb


def main(argv: list[str]) -> int:
    spans_path, command = Path(argv[0]), argv[1:]
    t0 = perf_counter()
    from veloscore import cli, dynamics
    import_s = perf_counter() - t0

    tracer = Tracer()
    tracer.install(keep_args=("dynamics.replay",))
    with tracer.span(f"cli.{command[0]}"):
        rc = cli.main(command)
    tracer.uninstall()

    peaks = {}
    if "dynamics.replay" in tracer.calls:
        args, kwargs = tracer.calls.pop("dynamics.replay")
        peaks["dynamics.replay"] = peak_mb(dynamics.replay, *args, **kwargs)
    spans_path.write_text(json.dumps({"import_s": import_s, "peaks_mb": peaks,
                                      "spans": tracer.as_dicts()}), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
