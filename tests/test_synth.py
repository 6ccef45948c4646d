"""Generator determinism and planted ground truth."""

import collections
import filecmp
import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from pipeline_helpers import read_report, run_pipeline
from veloscore.evaluation import build_url_datasets, read_clicks
from veloscore.ingest import (IngestStats, StreamDigest, bucketize, load_graph, parse_timestamp,
                              read_events_file)
from veloscore import synth
from veloscore.synth import (Burst, SynthConfig, _follow_draws, _indented_json, bresenham_block,
                             generate, sort_unique)

SMALL = dict(users=60, hours=336, follows_per_user=6, url_count=40,
             base_mention_rate=0.08)


def manifest_buckets(data_dir, manifest, stats=None):
    """The hour buckets of the dataset's stream, hours counted from the manifest's epoch."""
    events = read_events_file(data_dir / "events.ndjson", stats)
    return list(bucketize(events, parse_timestamp(manifest["epoch"]), stats))


def force_by_user_hour(buckets):
    out = {}
    for b in buckets:
        for u, c in b.force.items():
            out.setdefault(u, {})[b.hour_index] = c
    return out


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(seed=5, **SMALL)
        m1 = generate(cfg, tmp_path / "a")
        m2 = generate(cfg, tmp_path / "b")
        assert m1 == m2
        for name in ("events.ndjson", "edges.tsv", "clicks.tsv", "manifest.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_different_seeds_differ(self, tmp_path):
        m1 = generate(SynthConfig(seed=1, **SMALL), tmp_path / "a")
        m2 = generate(SynthConfig(seed=2, **SMALL), tmp_path / "b")
        assert m1 != m2


# The generator's outputs are a byte-for-byte contract: each file's BLAKE2b
# digest (16 bytes) as the generator has written it since the follower
# graph is drawn by _follow_draws (only "tiny", which has no follows, kept
# its earlier digests).  A change to any byte, the order of random draws
# included, fails here.
GOLDEN = {
    "small": (dict(seed=5, **SMALL), {
        "clicks.tsv": "22773fa300358032c7dac1667775498a",
        "edges.tsv": "8e0f027e587199d5249fbd01d34e8225",
        "events.ndjson": "61c11adecbe81d944ffd5d76a5659e11",
        "manifest.json": "67fd34605e79b74742c4465ea6a129fd",
    }),
    "sampled_burst": (dict(seed=13, mode="sampled", bursts=(Burst("u00003", 30, 200, 1.7),),
                           **SMALL), {
        "clicks.tsv": "102e80915c15f5a9e280f5558b75d44e",
        "edges.tsv": "bbc194041e0c484f03731cdaff720730",
        "events.ndjson": "fbfbd47f98aad94b4bdc716a7705a29c",
        "manifest.json": "afd4b6e5b6713ecda634aa4db96cbfab",
    }),
    "options": (dict(seed=17, users=50, hours=400, follows_per_user=5, url_count=30,
                     base_mention_rate=0.1, cc_every=7, mutual_retweet_pairs=True,
                     spam_cluster_size=4, mention_follower_exponent=0.5, mention_rate_cap=1.5,
                     cross_week_url_fraction=0.3,
                     follower_count_overrides={"u00002": 500, "zed": 9, "u00011": 0},
                     epoch="2024-03-05T10:17:23.5+02:00"), {
        "clicks.tsv": "405e6c7597fa992b703bdb34639dedf9",
        "edges.tsv": "d649aa7a691ffe86d82c08a609c45a59",
        "events.ndjson": "3ca7d9595959087ae8ca631a306fd490",
        "follower_counts.tsv": "9b1ad1f5618837d600baa9e70e1c6c3a",
        "manifest.json": "16fbe9315098ccd61e9ebb4782d1c13a",
    }),
    # 3 users, 10 hours and no follows: every author is the next user
    "tiny": (dict(seed=2, users=3, hours=10, follows_per_user=0, url_count=0,
                  base_mention_rate=0.4), {
        "clicks.tsv": "cae66941d9efbd404e4d88758ea67670",
        "edges.tsv": "cae66941d9efbd404e4d88758ea67670",
        "events.ndjson": "3ef22c9078afb54fe832dc0054222b43",
        "manifest.json": "2b0fd751061454e3129cc55e5dd7f821",
    }),
    # a uniform graph, celebrity-only retweets, flat weekly rates, a 500-hour
    # stream with a short last week, overlapping bursts and an epoch one
    # second before midnight at -05:30
    "uniform_celebs": (dict(seed=21, users=40, hours=500, graph_model="uniform",
                            retweet_targets="celebrities", celebrity_fraction=0.1,
                            weekly_rate_sigma=0.0, url_count=20, url_week_min=1,
                            bursts=(Burst("u00007", 0, 500, 3), Burst("u00007", 100, 130, 0.37)),
                            epoch="2025-02-28T23:59:59-05:30"), {
        "clicks.tsv": "6381e7d6dae8be82b6a423a454008925",
        "edges.tsv": "52f74040f008ab16a6750f743fa92507",
        "events.ndjson": "24c26bdc9443b1085ff2ce57026383f2",
        "manifest.json": "8aa90db24f974c23faafc854d1e305c6",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(tmp_path, name):
    kwargs, digests = GOLDEN[name]
    generate(SynthConfig(**kwargs), tmp_path)
    got = {p.name: hashlib.blake2b(p.read_bytes(), digest_size=16).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == digests


# rates of every scale the schedule meets: none, whole, tiny, up to 1e6
rates = st.sampled_from([0.0, 5e-324, 1e-300, 1e-9, 0.1, 0.5, 1 / 3, 2.0, 1e6]) \
    | st.integers(0, 10**6).map(float) \
    | st.floats(0.0, 1e-6) \
    | st.floats(0.0, 1e6)


@given(block_rates=st.lists(rates, min_size=1, max_size=6), span=st.integers(1, 500))
@settings(max_examples=300, deadline=None)
def test_bresenham_block_matches_floor_reference(block_rates, span):
    block = bresenham_block(np.array(block_rates), span)
    assert block.shape == (len(block_rates), span)
    for r, row in zip(block_rates, block.tolist()):
        assert row == [math.floor((h + 1) * r) - math.floor(h * r) for h in range(span)]
        assert sum(row) == math.floor(span * r)



@given(keys=st.lists(st.integers(0, 6), max_size=40), chunk=st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_sort_unique_matches_set_across_chunks(keys, chunk):
    """With chunks of a few keys, runs of repeats straddle chunk boundaries;
    each value is still kept once, in order, at the front of the array."""
    arr = np.array(keys, dtype=np.int64)
    with mock.patch.object(synth, "_CHUNK", chunk):
        m = sort_unique(arr)
    assert arr[:m].tolist() == sorted(set(keys))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25)


@given(obj=json_values)
@settings(max_examples=400, deadline=None)
def test_indented_json_matches_json_dumps(obj):
    assert "".join(_indented_json(obj)) == json.dumps(obj, indent=2, sort_keys=True)


class TestManifestMatchesPipeline:
    def test_mention_counts_reproduced_exactly(self, tmp_path):
        cfg = SynthConfig(seed=3, cc_every=11, **SMALL)
        manifest = generate(cfg, tmp_path)
        got = force_by_user_hour(manifest_buckets(tmp_path, manifest))
        expected = {u: {int(h): c for h, c in per.items()}
                    for u, per in manifest["mention_counts"].items()}
        assert got == expected

    def test_retweet_counts_reproduced_exactly(self, tmp_path):
        manifest = generate(SynthConfig(seed=4, **SMALL), tmp_path)
        got = {}
        for b in manifest_buckets(tmp_path, manifest):
            for u, c in b.retweet_force.items():
                got.setdefault(u, {})[str(b.hour_index)] = c
        assert got == manifest["retweet_counts"]

    def test_no_records_skipped(self, tmp_path):
        manifest = generate(SynthConfig(seed=6, **SMALL), tmp_path)
        stats = IngestStats()
        manifest_buckets(tmp_path, manifest, stats)
        assert stats.records and stats.skipped == 0

    def test_follower_counts_match_graph(self, tmp_path):
        manifest = generate(SynthConfig(seed=7, **SMALL), tmp_path)
        graph = load_graph(tmp_path / "edges.tsv")
        for u, c in manifest["users"].items():
            assert graph.followers_of(u) == c


class TestBursts:
    def test_burst_counts_are_exact(self, tmp_path):
        burst = Burst("u00001", 10, 50, 2.5)
        cfg = SynthConfig(seed=8, users=20, hours=72, base_mention_rate=0.0,
                          url_count=0, bursts=(burst,))
        manifest = generate(cfg, tmp_path)
        planted = sum(manifest["mention_counts"].get("u00001", {}).values())
        assert planted == int(2.5 * 40)  # count-exact, not rate-sampled

    def test_unknown_burst_user_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="burst user 'nobody'"):
            SynthConfig(seed=8, users=5, hours=24, bursts=(Burst("nobody", 0, 5, 1.0),))

    def test_invalid_burst_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(users=5, hours=24, bursts=(Burst("u00001", 5, 5, 1.0),))


class TestConfigValidation:
    def test_zero_users_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(users=0)

    def test_zero_hours_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(hours=0)

    @pytest.mark.parametrize("name", ["users", "hours"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_size_named(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            SynthConfig(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("cross_week_url_fraction", -0.5, "cross_week_url_fraction must be in"),
        ("graph_model", "random", "graph_model must be preferential or uniform"),
    ])
    def test_bad_choice_named(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(**{name: value})

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(celebrity_fraction=1.5)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(mode="approximate")

    @pytest.mark.parametrize("name", ["follows_per_user", "url_count", "spam_cluster_size",
                                      "min_promoters"])
    def test_negative_count_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            SynthConfig(**{name: -1})

    def test_promoter_range_rejected(self):
        with pytest.raises(ValueError, match="min_promoters must be <= max_promoters"):
            SynthConfig(min_promoters=5, max_promoters=4)

    def test_follows_beyond_positive_weights_rejected(self):
        # 40 users, 4 celebrities never followed at boost 0: 35 candidates
        SynthConfig(users=40, celebrity_fraction=0.1, celebrity_follow_boost=0.0,
                    follows_per_user=35)
        with pytest.raises(ValueError, match="follows_per_user must be <= 35"):
            SynthConfig(users=40, celebrity_fraction=0.1, celebrity_follow_boost=0.0,
                         follows_per_user=36)
        # the uniform model ignores the boost; more follows than users clamp
        SynthConfig(users=40, celebrity_fraction=0.1, celebrity_follow_boost=0.0,
                    follows_per_user=39, graph_model="uniform")
        SynthConfig(users=5, follows_per_user=10)

    def test_zero_boost_celebrities_unfollowed(self, tmp_path):
        cfg = SynthConfig(seed=4, users=40, hours=24, celebrity_fraction=0.1,
                          celebrity_follow_boost=0.0, celebrity_mutual_follows=False,
                          follows_per_user=35)
        manifest = generate(cfg, tmp_path)
        assert [manifest["users"][f"u{i:05d}"] for i in range(4)] == [0, 0, 0, 0]


class TestUrls:
    def test_all_urls_have_clicks_and_promoters(self, tmp_path):
        manifest = generate(SynthConfig(seed=9, **SMALL), tmp_path)
        assert len(manifest["urls"]) == SMALL["url_count"]
        for info in manifest["urls"].values():
            assert len(info["promoters"]) >= 3
            assert info["clicks"] >= 0
            assert info["audience"] > 0

    def test_cross_week_urls_excluded_from_weekly(self, tmp_path):
        cfg = SynthConfig(seed=10, cross_week_url_fraction=0.25, **SMALL)
        manifest = generate(cfg, tmp_path)
        global_recs, weekly_recs = build_url_datasets(
            StreamDigest.of(read_events_file(tmp_path / "events.ndjson")),
            read_clicks(tmp_path / "clicks.tsv"), load_graph(tmp_path / "edges.tsv").follower_map(),
            parse_timestamp(manifest["epoch"]))
        n_cross = sum(1 for info in manifest["urls"].values() if len(info["weeks"]) > 1)
        assert n_cross > 0
        assert len(global_recs) == len(manifest["urls"])
        assert len(weekly_recs) == len(manifest["urls"]) - n_cross

    def test_url_week_min_shifts_weeks(self, tmp_path):
        cfg = SynthConfig(seed=11, url_week_min=1, **SMALL)
        manifest = generate(cfg, tmp_path)
        for info in manifest["urls"].values():
            assert min(info["weeks"]) >= 1


def corrected_velocity_r(tmp_path, seed, signal):
    cfg = SynthConfig(seed=seed, users=80, hours=336, follows_per_user=8,
                      url_count=120, signal=signal, base_mention_rate=0.1,
                      base_click_prob=2.0, click_noise=0.2)
    generate(cfg, tmp_path)
    report = read_report(run_pipeline(tmp_path, tmp_path / "out"))
    return report["corrected_global"]["velocity"].pearson_r


def test_planted_signal_monotonicity(tmp_path):
    signals = [0.0, 0.5, 1.0, 2.0]
    for seed in range(5):
        rs = [corrected_velocity_r(tmp_path / f"s{seed}_{i}", seed, s)
              for i, s in enumerate(signals)]
        rho, _ = scipy_stats.spearmanr(signals, rs)
        assert rho > 0, f"seed {seed}: correlations not increasing: {rs}"


def test_spam_cluster_present_in_graph(tmp_path):
    cfg = SynthConfig(seed=12, users=30, hours=24, spam_cluster_size=4,
                      follows_per_user=3)
    manifest = generate(cfg, tmp_path)
    spam = [u for u in manifest["users"] if u.startswith("spam")]
    assert len(spam) == 4
    for s in spam:
        assert manifest["users"][s] == 3  # followed by the other spam nodes


def successive_sampling_law(weights, i, k):
    """Exact probability of each ordered k-tuple of picks of row i: every
    next pick proportional to weight among the users not yet picked."""
    law = {}
    for picks in itertools.permutations([j for j in range(len(weights)) if j != i], k):
        p, rest = 1.0, sum(weights) - weights[i]
        for j in picks:
            p *= weights[j] / rest
            rest -= weights[j]
        law[picks] = p
    return law


@pytest.mark.parametrize("weights,k,seed", [
    ([4, 1, 1, 1, 1], 2, 31),  # row 0 draws by keys, the others by rejection
    ([10, 10, 1, 1, 1, 1], 3, 32),  # light rows switch to keys once both heavy ones are picked
    ([3, 2, 1, 1], 2, 33),  # every row needs 2 of 3 candidates: all by keys
])
def test_follow_draws_follow_successive_sampling(weights, k, seed):
    rng = np.random.default_rng(seed)
    runs = 6000
    counts = [collections.Counter() for _ in weights]
    for _ in range(runs):
        for i, row in enumerate(_follow_draws(rng, np.array(weights, float), k).tolist()):
            counts[i][tuple(row)] += 1
    for i in range(len(weights)):
        law = successive_sampling_law(weights, i, k)
        assert set(counts[i]) <= set(law)
        cells = sorted(law, key=law.get, reverse=True)
        expected = np.array([law[c] * runs for c in cells])
        observed = np.array([counts[i][c] for c in cells])
        rare = expected < 5  # pooled into one cell
        if rare.any():
            expected = np.append(expected[~rare], expected[rare].sum())
            observed = np.append(observed[~rare], observed[rare].sum())
        p = scipy_stats.chisquare(observed, expected * runs / expected.sum()).pvalue
        assert p > 1e-3, (i, p)


def assert_valid_draws(out, weights, k):
    n = len(weights)
    assert out.shape == (n, k)
    assert (out != np.arange(n)[:, None]).all()  # never the follower itself
    assert all(len(set(row)) == k for row in out.tolist())  # k distinct followees
    assert (weights[out] > 0).all()


@given(n=st.integers(1, 60), boost=st.sampled_from([0.0, 0.5, 1.0, 40.0, 1e6]),
       heavy=st.integers(0, 60), k_share=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_follow_draws_give_k_distinct_followees(n, boost, heavy, k_share, seed):
    weights = np.ones(n)
    weights[:heavy] = boost
    candidates = int((weights > 0).sum()) - bool((weights > 0).any())
    k = round(k_share * candidates)
    assert_valid_draws(_follow_draws(np.random.default_rng(seed), weights, k), weights, k)


def test_follow_draws_complete_digraph():
    weights = np.ones(1000)
    weights[:20] = 40.0
    out = _follow_draws(np.random.default_rng(1), weights, 999)
    assert_valid_draws(out, weights, 999)


def test_follow_draws_reject_too_few_positive_weights():
    weights = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    assert_valid_draws(_follow_draws(np.random.default_rng(0), weights, 2), weights, 2)
    with pytest.raises(ValueError, match="positive-weight"):
        _follow_draws(np.random.default_rng(0), weights, 3)
    assert _follow_draws(np.random.default_rng(0), np.zeros(3), 0).shape == (3, 0)


def out_degrees(path):
    degree = collections.Counter()
    for line in path.read_text(encoding="utf-8").splitlines():
        degree[line.split("\t")[0]] += 1
    return degree


@pytest.mark.parametrize("kwargs", [
    dict(users=50, follows_per_user=49),  # the complete digraph, one celebrity at boost 40
    dict(users=40, follows_per_user=7, graph_model="uniform"),
    dict(users=30, follows_per_user=4, spam_cluster_size=5),
    dict(users=1, follows_per_user=3),
    dict(users=20, follows_per_user=0),
])
def test_every_user_follows_k_others(tmp_path, kwargs):
    cfg = SynthConfig(seed=3, hours=24, celebrity_mutual_follows=False, **kwargs)
    manifest = generate(cfg, tmp_path)
    degree = out_degrees(tmp_path / "edges.tsv")
    k = min(cfg.follows_per_user, cfg.users - 1)
    for u in manifest["users"]:
        if u.startswith("spam"):
            assert degree[u] == cfg.spam_cluster_size - 1
        else:
            assert degree[u] == k
