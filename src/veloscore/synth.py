"""Deterministic synthetic stream/graph/clicks generator.

Desk-scale fixtures with known ground truth: per-user per-hour mention
counts are planted exactly (Bresenham accumulation, not sampled) in the
default "exact" mode, and URL clicks are derived from audience and the
promoters' frictionless velocity with a configurable signal strength, so
the planted correlation sign is known.  Byte-deterministic for a fixed
seed.

Each user follows ``min(follows_per_user, users - 1)`` others, drawn by
successive sampling on follow weights (1, or ``celebrity_follow_boost``
for celebrities under the preferential model): each next followee is
picked with probability proportional to its weight among the users not
yet followed.  This is the law of ``Generator.choice(replace=False,
p=...)``, which drew the graph one user at a time until ``_follow_draws``
drew it for all users at once.  The law stayed; the bytes changed that
once, and are byte-for-byte stable across versions since.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from .core import WEEK_HOURS

_BLOCK_USERS = 1024  # users per block of exact counts
_WRITE_CHUNK = 1 << 14  # event lines joined per write
_KEY_BLOCK = 1 << 19  # keys per block of rows finished by exponential races

_PHRASES = (
    "great show tonight",
    "this made my day",
    "cannot stop listening",
    "what a finish",
    "new post is up",
    "thanks for the support",
    "see you at the meetup",
    "back in the studio",
)


@dataclass(frozen=True)
class Burst:
    """Extra mention rate planted for one user over [start_hour, end_hour)."""

    user: str
    start_hour: int
    end_hour: int
    rate: float


@dataclass
class SynthConfig:
    seed: int = 0
    users: int = 200
    hours: int = 2 * WEEK_HOURS
    celebrity_fraction: float = 0.02
    celebrity_follow_boost: float = 40.0
    celebrity_mention_boost: float = 40.0
    celebrity_mutual_follows: bool = True
    base_mention_rate: float = 0.05
    mention_follower_exponent: float = 0.0
    mention_rate_cap: float = 0.0
    weekly_rate_sigma: float = 0.6
    bursts: tuple = ()
    graph_model: str = "preferential"
    follows_per_user: int = 10
    spam_cluster_size: int = 0
    originals_per_week: int = 2
    retweet_every: int = 5
    retweet_targets: str = "all"
    mutual_retweet_pairs: bool = False
    cc_every: int = 0
    url_count: int = 0
    min_promoters: int = 3
    max_promoters: int = 8
    url_week_min: int = 0
    cross_week_url_fraction: float = 0.0
    signal: float = 0.0
    base_click_prob: float = 0.05
    click_noise: float = 0.2
    mode: str = "exact"
    epoch: str = "2025-01-06T00:00:00+00:00"
    follower_count_overrides: Optional[dict[str, int]] = None

    def __post_init__(self):
        if self.users <= 0:
            raise ValueError("users must be positive")
        if self.hours <= 0:
            raise ValueError("hours must be positive")
        if not 0.0 <= self.celebrity_fraction <= 1.0:
            raise ValueError("celebrity_fraction must be in [0, 1]")
        if not 0.0 <= self.cross_week_url_fraction <= 1.0:
            raise ValueError("cross_week_url_fraction must be in [0, 1]")
        for name in ("base_mention_rate", "celebrity_follow_boost",
                     "celebrity_mention_boost", "mention_follower_exponent",
                     "mention_rate_cap", "weekly_rate_sigma",
                     "base_click_prob", "click_noise"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.signal):
            raise ValueError("signal must be finite")
        for name in ("url_week_min", "follows_per_user", "spam_cluster_size", "url_count",
                     "min_promoters", "originals_per_week", "retweet_every", "cc_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.min_promoters > self.max_promoters:
            raise ValueError("min_promoters must be <= max_promoters")
        if self.graph_model not in ("preferential", "uniform"):
            raise ValueError("graph_model must be preferential or uniform")
        if self.retweet_targets not in ("all", "celebrities"):
            raise ValueError("retweet_targets must be all or celebrities")
        if self.mode not in ("exact", "sampled"):
            raise ValueError("mode must be exact or sampled")
        handles = set(self.handles) if self.bursts else set()
        for b in self.bursts:
            if not 0 <= b.rate < math.inf or b.start_hour < 0 or b.end_hour > self.hours \
                    or b.start_hour >= b.end_hour:
                raise ValueError(f"invalid burst {b}")
            if b.user not in handles:
                raise ValueError(f"burst user {b.user!r} is not a generated user")
        # a celebrity at boost 0 is never followed; each user follows at
        # most every other user of positive weight
        unfollowed = self.celebrities if self.celebrity_follow_boost == 0 \
            and self.graph_model == "preferential" else 0
        candidates = max(self.users - unfollowed - 1, 0)
        if min(self.follows_per_user, self.users - 1) > candidates:
            raise ValueError(f"follows_per_user must be <= {candidates}, the users "
                             f"of positive follow weight besides the follower")

    @property
    def handles(self) -> list[str]:
        """The generated users' handles, user 0 first."""
        return [f"u{i:05d}" for i in range(self.users)]

    @property
    def celebrities(self) -> int:
        """The number of celebrities: users 0 to ``celebrities - 1``."""
        return math.ceil(self.celebrity_fraction * self.users) if self.celebrity_fraction > 0 else 0


def bresenham_block(rates, span: int) -> np.ndarray:
    """Integer per-hour counts, one row per rate, whose running totals track
    rate*h exactly: ``floor((h+1)*r) - floor(h*r)`` for h < span."""
    acc = np.floor(np.multiply.outer(np.asarray(rates, dtype=np.float64),
                                     np.arange(span + 1, dtype=np.float64)))
    return (acc[:, 1:] - acc[:, :-1]).astype(np.int64)


def _nonzero_cells(block: np.ndarray, user0: int, hour0: int):
    """(user, hour, count) arrays of a block's nonzeros: row r is user0 + r, column c hour0 + c."""
    rows, cols = np.nonzero(block)
    return rows + user0, cols + hour0, block[rows, cols]


def _merge_cells(cells: list, rank: np.ndarray, hours: int):
    """(user, hour, count) arrays summed per user-hour, in (user rank, hour) order."""
    users, hrs, counts = (np.concatenate(col) for col in zip(*cells))
    keys, inverse = np.unique(rank[users] * hours + hrs, return_inverse=True)
    sums = np.bincount(inverse, counts, len(keys)).astype(np.int64)  # exact below 2**53
    return np.argsort(rank)[keys // hours], keys % hours, sums


def _follow_draws(rng: np.random.Generator, weights: np.ndarray, k: int) -> np.ndarray:
    """(n, k) followees: row i holds k distinct users other than i, in the
    order they were picked.

    Each row is a successive sample, the law of ``Generator.choice(n, k,
    replace=False, p=...)``: every next pick is drawn with probability
    proportional to its weight among the users that are neither i nor
    picked yet.  All rows draw at once, with replacement, from one
    cumulative-weight table; a row rejects itself and its repeats, keeps
    first occurrences in draw order and draws again while short of k.  A
    row that would reject too much -- half the total weight is itself and
    its picks, or it needs more than half the candidates it has left --
    finishes with Efraimidis-Spirakis keys instead (exponential races over
    its candidates), which continue the same law.  So a row costs O(k)
    draws, or O(n) keys where k is close to n.
    """
    n = len(weights)
    out = np.empty((n, k), dtype=np.int64)
    positive = weights > 0
    n_pos = int(positive.sum())
    if k > n_pos - positive.any():  # the fewest candidates any row has
        raise ValueError(f"{k} follows per user need {k} positive-weight users "
                         f"besides the follower; there are {n_pos - positive.any()}")
    if k == 0:
        return out
    cum = np.cumsum(weights)
    total = cum[-1]
    filled = np.zeros(n, dtype=np.int64)  # picks so far
    excluded = weights.astype(np.float64)  # weight a row may not draw
    rows = np.arange(n)  # rows still drawing by rejection
    finish = []  # rows handed to the keys
    while rows.size:
        need = k - filled[rows]
        left = n_pos - positive[rows] - filled[rows]  # candidates not picked yet
        slow = (2 * excluded[rows] >= total) | (2 * need > left)
        finish.append(rows[slow])
        rows, need = rows[~slow], need[~slow]
        if not rows.size:
            break
        # enough draws that a row with the expected acceptance fills up
        m = np.ceil(need * total / (total - excluded[rows])).astype(np.int64) + 1
        seg = np.repeat(np.arange(rows.size), m)  # each draw's row, in draw order
        who = rows[seg]
        cand = np.searchsorted(cum, rng.random(seg.size) * total, side="right")
        keys = who * n + cand
        by_key = np.argsort(keys, kind="stable")
        first = np.empty(keys.size, dtype=bool)  # the first draw of its key in its row
        first[by_key] = np.append(True, keys[by_key][1:] != keys[by_key][:-1])
        picked = (rows[:, None] * n + out[rows])[np.arange(k) < filled[rows, None]]
        picked.sort()
        at = np.minimum(np.searchsorted(picked, keys), max(picked.size - 1, 0))
        ok = first & (cand != who)
        if picked.size:
            ok &= picked[at] != keys
        taken = np.cumsum(ok)
        before = np.append(0, taken)[np.cumsum(m) - m]  # accepted in earlier rows
        rank = taken - np.repeat(before, m)  # 1-based place among the row's accepted
        keep = ok & (rank <= need[seg])
        out[who[keep], filled[who[keep]] + rank[keep] - 1] = cand[keep]
        filled[rows] += np.bincount(seg[keep], minlength=rows.size)
        excluded[rows] += np.bincount(seg[keep], weights[cand[keep]], minlength=rows.size)
        rows = rows[filled[rows] < k]
    rows = np.concatenate(finish)
    per_block = max(1, _KEY_BLOCK // n)
    for lo in range(0, rows.size, per_block):
        r = rows[lo:lo + per_block]
        with np.errstate(divide="ignore"):
            race = rng.standard_exponential((r.size, n)) / weights  # zero weight: never
        line, col = np.nonzero(np.arange(k) < filled[r, None])
        race[line, out[r[line], col]] = np.inf
        race[np.arange(r.size), r] = np.inf
        need = k - filled[r]
        most = int(need.max())
        part = np.argpartition(race, most - 1, axis=1)[:, :most]
        part = np.take_along_axis(part, np.argsort(
            np.take_along_axis(race, part, axis=1), axis=1), axis=1)
        line, col = np.nonzero(np.arange(most) < need[:, None])
        out[r[line], filled[r[line]] + col] = part[line, col]
    return out


def _clique(ids: np.ndarray):
    """(follower, followee) arrays of every ordered pair of distinct ids."""
    a, b = np.repeat(ids, len(ids)), np.tile(ids, len(ids))
    return a[a != b], b[a != b]


def _unique_edges(src: np.ndarray, dst: np.ndarray, rank: np.ndarray):
    """The distinct (src, dst) pairs in (rank[src], rank[dst]) order.

    Sorts the keys ``rank[src] * n + rank[dst]`` and drops repeats by hand,
    as ``ingest.UserGraph.from_ids`` does: np.unique takes a slower hash
    path on integers.
    """
    n = len(rank)
    keys = rank[src] * n + rank[dst]
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    by_rank = np.argsort(rank)
    return by_rank[keys // n], by_rank[keys % n]


@lru_cache(maxsize=None)
def _flat_encoder(depth: int):
    """``encode`` for a container at ``depth`` that holds no container."""
    pad = "\n" + "  " * (depth + 1)
    return json.JSONEncoder(sort_keys=True, separators=("," + pad, ": ")).encode


def _indented_json(obj, depth: int = 0, out: Optional[list] = None) -> list:
    """The chunks of ``json.dumps(obj, indent=2, sort_keys=True)``.

    json runs its C encoder only without ``indent``, so a container that
    holds no container is one C-encoder call whose item separator carries
    the newline and indent; only the outer levels run in Python.
    """
    out = [] if out is None else out
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj if isinstance(obj, (list, tuple)) else ()
    pad = "\n" + "  " * (depth + 1)
    if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
        text = _flat_encoder(depth)(obj)
        if values:  # a non-empty container opens and closes on its own lines
            text = text[0] + pad + text[1:-1] + pad[:-2] + text[-1]
        out.append(text)
        return out
    out.append("{" if is_dict else "[")
    for i, item in enumerate(sorted(obj.items()) if is_dict else obj):
        out.append("," + pad if i else pad)
        if is_dict:
            out.append(encode_basestring_ascii(item[0]) + ": ")
            item = item[1]
        _indented_json(item, depth + 1, out)
    out.append(pad[:-2] + ("}" if is_dict else "]"))
    return out


def _table(handles: list, users, hours, counts) -> dict[str, dict[str, int]]:
    table: dict[str, dict[str, int]] = {}
    for i, h, c in zip(users.tolist(), hours.tolist(), counts.tolist()):
        table.setdefault(handles[i], {})[str(h)] = c
    return table


def generate(cfg: SynthConfig, out_dir) -> dict:
    """Write events.ndjson, edges.tsv, clicks.tsv, optional
    follower_counts.tsv, and manifest.json into ``out_dir``; returns the
    manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    epoch = datetime.fromisoformat(cfg.epoch.replace("Z", "+00:00"))
    if epoch.tzinfo is None:
        epoch = epoch.replace(tzinfo=timezone.utc)

    n = cfg.users
    handles = cfg.handles
    idx = {h: i for i, h in enumerate(handles)}
    n_celebs = cfg.celebrities
    n_weeks = max(1, cfg.hours // WEEK_HOURS)
    # [lo, hi) hours of each week; the last week runs to the stream's end
    weeks = [(w * WEEK_HOURS, (w + 1) * WEEK_HOURS if w < n_weeks - 1 else cfg.hours)
             for w in range(n_weeks)]
    rank = np.argsort(np.argsort(handles))  # a user's place in handle order

    # --- follower graph ------------------------------------------------
    # edges are (follower, followee) index arrays into handles + spam_handles
    weights = np.ones(n)
    if cfg.graph_model == "preferential" and n_celebs:
        weights[:n_celebs] = cfg.celebrity_follow_boost
    k_follow = min(cfg.follows_per_user, n - 1)
    drawn = _follow_draws(rng, weights, k_follow)
    spam_handles = [f"spam{i:03d}" for i in range(cfg.spam_cluster_size)]
    all_handles = handles + spam_handles
    n_all = len(all_handles)
    pairs = [(np.repeat(np.arange(n), drawn.shape[1]), drawn.ravel()),
             _clique(np.arange(n, n_all))]
    if cfg.celebrity_mutual_follows:
        pairs.append(_clique(np.arange(n_celebs)))
    if cfg.mutual_retweet_pairs:
        # buddy pairs (0,1), (2,3), ... follow each other; each user's
        # retweets come from the buddy, keeping every user inside a
        # reciprocal interaction loop
        buddy = np.arange(0, n - 1, 2)
        pairs.append((np.concatenate((buddy, buddy + 1)), np.concatenate((buddy + 1, buddy))))
    src, dst = _unique_edges(*(np.concatenate(col) for col in zip(*pairs)),
                             np.argsort(np.argsort(all_handles)))
    followers = dict(zip(all_handles, np.bincount(dst, minlength=n_all).tolist()))
    if cfg.follower_count_overrides:
        for u in sorted(cfg.follower_count_overrides):
            if u not in followers:
                all_handles.append(u)
            followers[u] = cfg.follower_count_overrides[u]

    # --- planted mention schedule --------------------------------------
    week_mult = np.exp(rng.normal(0.0, cfg.weekly_rate_sigma, size=(n, n_weeks))) \
        if cfg.weekly_rate_sigma > 0 else np.ones((n, n_weeks))
    rates = np.empty(n)
    for i, u in enumerate(handles):
        rate = cfg.base_mention_rate * (cfg.celebrity_mention_boost if i < n_celebs else 1.0)
        if cfg.mention_follower_exponent > 0:
            rate *= max(followers[u], 1) ** cfg.mention_follower_exponent
        rates[i] = min(rate, cfg.mention_rate_cap) if cfg.mention_rate_cap > 0 else rate
    exact = cfg.mode == "exact"
    cells = []  # (user, hour, count) arrays of the nonzero user-hours
    if exact:  # a block of users' week at a time
        for w, (lo, hi) in enumerate(weeks):
            for r0 in range(0, n, _BLOCK_USERS):
                r1 = r0 + _BLOCK_USERS
                cells.append(_nonzero_cells(
                    bresenham_block(rates[r0:r1] * week_mult[r0:r1, w], hi - lo), r0, lo))
    else:  # the generator's call order: user-major, week-minor, bursts last
        for i in range(n):
            for w, (lo, hi) in enumerate(weeks):
                cells.append(_nonzero_cells(
                    rng.poisson(rates[i] * week_mult[i, w], size=(1, hi - lo)), i, lo))
    for b in cfg.bursts:
        span = b.end_hour - b.start_hour
        counts = bresenham_block([b.rate], span) if exact else rng.poisson(b.rate, size=(1, span))
        cells.append(_nonzero_cells(counts, idx[b.user], b.start_hour))
    schedule = _merge_cells(cells, rank, cfg.hours)

    # --- mention/retweet events ----------------------------------------
    # events are columns of (seconds after the epoch, author, text), the
    # author an index into handles and the text an index into texts
    # (followee, follower) rows in (followee, follower handle) order
    to_user = dst < n
    fol = np.stack((dst[to_user], src[to_user]), axis=1)
    fol = fol[np.argsort(fol[:, 0], kind="stable")]
    secs, authors, text_ids, texts, retweets, ccs = _mention_events(
        cfg, handles, n_celebs, fol, *schedule)

    # original (mention-free) posts keep authored-event denominators sane
    users, j = np.arange(n), np.arange(cfg.originals_per_week)[:, None]
    for lo, hi in weeks:
        hour = np.minimum(lo + j * (hi - lo) // max(cfg.originals_per_week, 1) + users % 7, hi - 1)
        secs.append((hour * 3600 + (users * 3 + j) % 60 * 60 + users % 60).ravel())
        authors.append(np.broadcast_to(users, hour.shape).ravel())
        text_ids.append((len(texts) + (users + j) % len(_PHRASES)).ravel())
    texts.extend(_PHRASES)

    # --- URLs -------------------------------------------------------------
    candidates = [h for h in handles if followers[h] >= 1]
    urls: dict[str, dict] = {}
    n_cross = math.ceil(cfg.cross_week_url_fraction * cfg.url_count)
    week_lo = min(cfg.url_week_min, n_weeks - 1)
    url_events = []
    for u_i in range(cfg.url_count):
        url = f"http://sho.rt/{u_i:05x}"
        week = week_lo + u_i % (n_weeks - week_lo)
        size = min(int(rng.integers(cfg.min_promoters, cfg.max_promoters + 1)), len(candidates))
        promoters = sorted(candidates[int(c)] for c in
                           rng.choice(len(candidates), size=size, replace=False))
        url_weeks = [week, (week + 1) % n_weeks] if u_i < n_cross and n_weeks >= 2 else [week]
        for p_i, promoter in enumerate(promoters):
            lo, hi = weeks[url_weeks[p_i % len(url_weeks)]]
            hour = int(rng.integers(lo, hi))
            minute = int(rng.integers(0, 60))
            url_events.append((hour * 3600 + minute * 60 + p_i % 60, idx[promoter], len(texts)))
        texts.append(f"worth a look {url}")
        urls[url] = {"promoters": promoters, "weeks": sorted(set(url_weeks)),
                     "audience": sum(followers[p] for p in promoters)}
    for col, values in zip((secs, authors, text_ids), zip(*url_events)):
        col.append(values)
    n_events = _write_events(out / "events.ndjson", epoch, rank, handles, texts,
                             *(np.concatenate(col) for col in (secs, authors, text_ids)))
    del secs, authors, text_ids, texts, url_events  # freed before the manifest is built

    # --- clicks from planted ground truth ----------------------------------
    totals = _merge_cells([schedule, ccs], rank, cfg.hours)
    retweets = _merge_cells([retweets], rank, cfg.hours)
    # each user's mentions up to the end of every week, over the user's mass
    mentioned, row = np.unique(totals[0], return_inverse=True)
    per_week = np.zeros((len(mentioned), n_weeks), dtype=np.int64)
    np.add.at(per_week, (row, np.minimum(totals[1] // WEEK_HOURS, n_weeks - 1)), totals[2])
    mass = np.array([float(followers[h]) if followers[h] > 0 else 1.0 for h in handles])
    cum_vel = {handles[u]: cumulative / mass[u]
               for u, cumulative in zip(mentioned.tolist(), per_week.cumsum(axis=1))}

    vhat: dict[str, float] = {}
    for url in sorted(urls):
        info = urls[url]
        w_end = max(info["weeks"])
        acc = sum(cum_vel[p][w_end] if p in cum_vel else 0.0 for p in info["promoters"])
        vhat[url] = acc / info["audience"] if info["audience"] > 0 else 0.0
    vmean = (sum(vhat.values()) / len(vhat)) if vhat else 0.0

    for url in sorted(urls):
        info = urls[url]
        # normalized to the mean so typical urls see the full signal swing;
        # clipped so the outlier fences do not eat the signal carriers
        vnorm = min(vhat[url] / vmean, 3.0) if vmean > 0 else 0.0
        eta = float(rng.uniform(-1.0, 1.0))
        raw = info["audience"] * cfg.base_click_prob \
            * (1.0 + cfg.signal * vnorm) * (1.0 + cfg.click_noise * eta)
        info["clicks"] = max(0, round(raw))

    # --- write files --------------------------------------------------------
    with open(out / "edges.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{all_handles[a]}\t{all_handles[b]}\n"
                      for a, b in zip(src.tolist(), dst.tolist()))
    with open(out / "clicks.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{url}\t{urls[url]['clicks']}\n" for url in sorted(urls))
    if cfg.follower_count_overrides:
        with open(out / "follower_counts.tsv", "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{c}\n" for u, c in sorted(cfg.follower_count_overrides.items()))

    manifest = {
        "epoch": cfg.epoch,
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in asdict(cfg).items()},
        "users": {h: followers[h] for h in sorted(all_handles)},
        "mention_counts": _table(handles, *totals),
        "retweet_counts": _table(handles, *retweets),
        "urls": {url: urls[url] for url in sorted(urls)},
        "totals": {"events": n_events, "mentions": int(totals[2].sum()),
                   "retweets": int(retweets[2].sum())},
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        fh.writelines(_indented_json(manifest))
        fh.write("\n")
    return manifest


def _mention_events(cfg: SynthConfig, handles: list, n_celebs: int, fol, users, hours, counts):
    """One event per planted mention, numbered by ``seq`` in (user, hour) order."""
    n = len(handles)
    seq = np.arange(int(counts.sum()))
    k = seq - np.repeat(np.cumsum(counts) - counts, counts)  # the event's place in its hour
    user, hour, count = (np.repeat(col, counts) for col in (users, hours, counts))
    # authors cycle through the user's followers, in handle order
    deg = np.bincount(fol[:, 0], minlength=n)[user]
    by_follower = np.append(fol[:, 1], -1)[np.searchsorted(fol[:, 0], user)
                                           + (hour + k) % np.maximum(deg, 1)]
    fallback = (user + 1 + k + ((user + 1 + k) % n == user)) % n  # skips the user itself
    rt_turn = seq % cfg.retweet_every == 0 if cfg.retweet_every > 0 else seq < 0
    # buddy pairs (0,1), (2,3), ...: each user's retweets come from the buddy
    by_buddy = rt_turn & ((user ^ 1) < n) & cfg.mutual_retweet_pairs
    author = np.where(by_buddy, user ^ 1, np.where(deg > 0, by_follower, fallback))
    retweetable = (user < n_celebs) | (cfg.retweet_targets == "all")
    is_rt = by_buddy | (rt_turn & (deg > 0) & retweetable & (not cfg.mutual_retweet_pairs))
    # cc tokens add force beyond the schedule; tracked separately so the
    # manifest matches what the stream actually carries.
    cc = (user + hour) % n
    has_cc = (seq % cfg.cc_every == 0 if cfg.cc_every > 0 else seq < 0) \
        & (cc != author) & (cc != user)
    # a text is coded by (user, retweet or not, phrase, cc user + 1 or 0)
    n_ph = len(_PHRASES)
    code = ((user * 2 + is_rt) * n_ph + (hour + k) % n_ph) * (n + 1) + np.where(has_cc, cc + 1, 0)
    codes, text_id = np.unique(code, return_inverse=True)
    texts = []
    for c in codes.tolist():
        (user_rt, phrase), cc_i = divmod(c // (n + 1), n_ph), c % (n + 1)
        u, text = handles[user_rt // 2], _PHRASES[phrase]
        text = f"RT @{u}: {text}" if user_rt % 2 else f"@{u} {text}"
        texts.append(f"{text} (cc @{handles[cc_i - 1]})" if cc_i else text)
    secs = hour * 3600 + (k * 60) // count % 60 * 60 + k % 60
    ones = np.ones(len(seq), dtype=np.int64)
    return [secs], [author], [text_id.reshape(-1)], texts, \
        (user[is_rt], hour[is_rt], ones[is_rt]), (cc[has_cc], hour[has_cc], ones[has_cc])


def _write_events(path: Path, epoch: datetime, rank: np.ndarray, handles: list, texts: list,
                  secs: np.ndarray, authors: np.ndarray, text_ids: np.ndarray) -> int:
    """Write the events in (instant, author, text) order, each line what
    ``json.dumps(record, sort_keys=True)`` prints; returns their number."""
    order = np.lexsort((np.argsort(np.argsort(texts))[text_ids], rank[authors], secs))
    handles = [encode_basestring_ascii(h) for h in handles]
    texts = [encode_basestring_ascii(t) for t in texts]
    # a stamp as datetime.isoformat() prints epoch + s: its hour's prefix,
    # minutes and seconds, then the epoch's fraction of a second and zone
    base = epoch.replace(minute=0, second=0, microsecond=0)
    secs = secs + (epoch.minute * 60 + epoch.second)
    hours = [(base + timedelta(hours=h)).isoformat()[:14]
             for h in range(int(secs.max(initial=0)) // 3600 + 1)]
    clock = [f"{m:02d}:{s:02d}" for m in range(60) for s in range(60)]
    tail = epoch.isoformat()[19:].replace("+00:00", "Z")
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(order), _WRITE_CHUNK):
            part = order[lo:lo + _WRITE_CHUNK]
            fh.write("".join([
                f'{{"author": {handles[a]}, "id": "e{e_i:08d}", "text": {texts[t]}, '
                f'"ts": "{hours[s // 3600]}{clock[s % 3600]}{tail}"}}\n'
                for e_i, s, a, t in zip(range(lo, lo + len(part)), secs[part].tolist(),
                                        authors[part].tolist(), text_ids[part].tolist())]))
    return len(order)
