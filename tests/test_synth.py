"""Generator determinism and planted ground truth."""

import filecmp
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from pipeline_helpers import score_dataset, url_datasets
from veloscore.evaluation import accumulate_scores, iqr_filter, pearson
from veloscore.synth import Burst, SynthConfig, bresenham_block, generate

SMALL = dict(users=60, hours=336, follows_per_user=6, url_count=40,
             base_mention_rate=0.08)


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
# digest (16 bytes) as the generator first wrote it.  A change to any byte,
# the order of random draws included, fails here.
GOLDEN = {
    "small": (dict(seed=5, **SMALL), {
        "clicks.tsv": "9db75cc8ffd45042b9782710ef4f9754",
        "edges.tsv": "4baf2c7b06ddde749a743d5415b24525",
        "events.ndjson": "85cadfe85d8cd66efb8385914bb8538e",
        "manifest.json": "e75197dd3595ac2548901f508c57fea3",
    }),
    "sampled_burst": (dict(seed=13, mode="sampled", bursts=(Burst("u00003", 30, 200, 1.7),),
                           **SMALL), {
        "clicks.tsv": "b7c941e8845f1a4cc9f2291eae521aa8",
        "edges.tsv": "c4816784ed2735e4fe5b9666188634f6",
        "events.ndjson": "36b7f943ca5ad65c93260b18965ae320",
        "manifest.json": "3d0d304a680f53a9ea60d8a1d87056ff",
    }),
    "options": (dict(seed=17, users=50, hours=400, follows_per_user=5, url_count=30,
                     base_mention_rate=0.1, cc_every=7, mutual_retweet_pairs=True,
                     spam_cluster_size=4, mention_follower_exponent=0.5, mention_rate_cap=1.5,
                     cross_week_url_fraction=0.3,
                     follower_count_overrides={"u00002": 500, "zed": 9, "u00011": 0},
                     epoch="2024-03-05T10:17:23.5+02:00"), {
        "clicks.tsv": "8d2ce168973b6ba6440e7bda6b726aa3",
        "edges.tsv": "c771a20618503327f55b0466476a2a70",
        "events.ndjson": "28eae3538e438d2d7860eb37601bd264",
        "follower_counts.tsv": "9b1ad1f5618837d600baa9e70e1c6c3a",
        "manifest.json": "385462db4b6e1df21cd45679709cf0d9",
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
        "clicks.tsv": "63f872a040ad82281f8811d9cb1a9721",
        "edges.tsv": "14ca58e1fde0abdcbc396ab2f8a0bd27",
        "events.ndjson": "2874ed347a511a2ad10510a43b1ed732",
        "manifest.json": "ce7f102566e9a2f6a3d7c104a2986f15",
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


class TestManifestMatchesPipeline:
    def test_mention_counts_reproduced_exactly(self, tmp_path):
        cfg = SynthConfig(seed=3, cc_every=11, **SMALL)
        manifest = generate(cfg, tmp_path)
        result = score_dataset(tmp_path)
        got = force_by_user_hour(result.buckets)
        expected = {u: {int(h): c for h, c in per.items()}
                    for u, per in manifest["mention_counts"].items()}
        assert got == expected

    def test_retweet_counts_reproduced_exactly(self, tmp_path):
        manifest = generate(SynthConfig(seed=4, **SMALL), tmp_path)
        result = score_dataset(tmp_path)
        got = {}
        for b in result.buckets:
            for u, c in b.retweet_force.items():
                got.setdefault(u, {})[str(b.hour_index)] = c
        assert got == manifest["retweet_counts"]

    def test_no_records_skipped(self, tmp_path):
        generate(SynthConfig(seed=6, **SMALL), tmp_path)
        result = score_dataset(tmp_path)
        assert result.stats.skipped == 0

    def test_follower_counts_match_graph(self, tmp_path):
        manifest = generate(SynthConfig(seed=7, **SMALL), tmp_path)
        result = score_dataset(tmp_path)
        for u, c in manifest["users"].items():
            assert result.graph.followers_of(u) == c


class TestBursts:
    def test_burst_counts_are_exact(self, tmp_path):
        burst = Burst("u00001", 10, 50, 2.5)
        cfg = SynthConfig(seed=8, users=20, hours=72, base_mention_rate=0.0,
                          url_count=0, bursts=(burst,))
        manifest = generate(cfg, tmp_path)
        planted = sum(manifest["mention_counts"].get("u00001", {}).values())
        assert planted == int(2.5 * 40)  # count-exact, not rate-sampled

    def test_unknown_burst_user_rejected(self, tmp_path):
        cfg = SynthConfig(seed=8, users=5, hours=24,
                          bursts=(Burst("nobody", 0, 5, 1.0),))
        with pytest.raises(ValueError):
            generate(cfg, tmp_path)

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

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(celebrity_fraction=1.5)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(mode="approximate")


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
        result = score_dataset(tmp_path)
        global_recs, weekly_recs = url_datasets(result, tmp_path)
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
    result = score_dataset(tmp_path)
    global_recs, _ = url_datasets(result, tmp_path)
    kept = [r for r in iqr_filter(global_recs, 1.5) if r.audience > 0]
    xs = [accumulate_scores(r, result.history) / r.audience for r in kept]
    ys = [r.clicks / r.audience for r in kept]
    return pearson(xs, ys)[0]


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
