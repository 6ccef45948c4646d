"""The benchmark's workloads and the malformed records injected into them.

Each workload is a set of `veloscore synth` flags; the synth seed is the
benchmark's `--seed`, so the same seed gives the same inputs.  Hours are a
whole number of weeks, so that `trend` can be asked about every week the
stream covers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WEEK_HOURS = 168


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    hours: int
    urls: int
    signal: float
    extra: tuple[str, ...] = ()
    # share of stream lines after which one malformed record is inserted
    malformed_rate: float = 0.0

    @property
    def weeks(self) -> int:
        return self.hours // WEEK_HOURS

    def synth_args(self, seed: int) -> list[str]:
        return ["--seed", str(seed), "--users", str(self.users), "--hours", str(self.hours),
                "--urls", str(self.urls), "--signal", str(self.signal), *self.extra]


WORKLOADS = {
    # The ROADMAP baseline stream (its figures are for --seed 7): dense
    # mentions on a small graph, so event parsing and imports dominate.
    "demo": Workload("demo", users=2000, hours=840, urls=600, signal=1.5),
    # 2.5 times the users and twelve times the follow edges of demo, with
    # sparse mentions: graph loading and the retweet graph weigh more, and
    # 0.2 % of the stream is malformed records the parser skips.  Sized so
    # that a run stays under a minute.
    "wide": Workload("wide", users=5000, hours=840, urls=2000, signal=1.5,
                     extra=("--base-mention-rate", "0.005", "--follows-per-user", "50"),
                     malformed_rate=0.002),
}


def _malformed_lines(author: str, mentioned: str) -> list[str]:
    """One record of each kind the parser counts and skips."""
    ok = {"id": "bad", "ts": "2025-01-06T00:30:00Z", "author": author,
          "text": f"@{mentioned} never counted"}
    return [
        json.dumps(ok)[:-12],                                # not JSON (cut short)
        json.dumps([author, mentioned]),                     # not an object
        json.dumps({**ok, "author": ""}),                    # empty author
        json.dumps({**ok, "author": "not a handle!"}),       # bad handle
        json.dumps({**ok, "ts": "the day after tomorrow"}),  # bad timestamp
    ]


def inject_malformed(events_path: Path, rate: float, seed: int) -> tuple[int, int]:
    """Insert malformed records after a seeded sample of lines, in place.

    Returns (valid lines, injected lines).  The record kinds cycle, so each
    kind makes up a fifth of the injected lines.
    """
    lines = events_path.read_text(encoding="utf-8").splitlines(keepends=True)
    rng = random.Random(seed)
    count = round(rate * len(lines))
    after = set(rng.sample(range(len(lines)), count))
    out = []
    k = 0
    for i, line in enumerate(lines):
        out.append(line)
        if i in after:
            kinds = _malformed_lines(f"u{rng.randrange(100):05d}", f"u{rng.randrange(100):05d}")
            out.append(kinds[k % len(kinds)] + "\n")
            k += 1
    events_path.write_text("".join(out), encoding="utf-8")
    return len(lines), count
