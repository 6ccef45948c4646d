"""Velocity dynamics: hourly updates, damping, trending, snapshots."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veloscore import kernels
from veloscore.dynamics import (
    FORCE_SOURCES,
    MASS_MODES,
    WEEK_HOURS,
    ForceTable,
    KineticsConfig,
    KineticsEngine,
    VelocityHistory,
    estimate_zeta,
    load_snapshots,
    rank_trending,
    replay,
    week_end_hour,
    write_snapshots,
)
from veloscore.ingest import HourBucket, UserGraph


def graph_with_counts(counts):
    return UserGraph.from_edges(set(), overrides=counts)


def buckets_from_forces(forces):
    """forces: list per hour of {user: count}."""
    return [HourBucket(h, force=dict(f)) for h, f in enumerate(forces)]


def random_fixture(seed, users=6, hours=50, p=0.4, max_force=5):
    rng = random.Random(seed)
    names = [f"u{i}" for i in range(users)]
    counts = {u: rng.randint(1, 200) for u in names}
    forces = []
    for _ in range(hours):
        f = {u: rng.randint(1, max_force) for u in names if rng.random() < p}
        forces.append(f)
    return graph_with_counts(counts), buckets_from_forces(forces)


class TestStepHour:
    def test_direct_substitution(self):
        g = graph_with_counts({"a": 100})
        eng = KineticsEngine(KineticsConfig(zeta=0.01), g)
        eng.step_hour(HourBucket(0, force={"a": 51}))  # 51/100 - 0.01 = 0.5
        eng.step_hour(HourBucket(1, force={"a": 10}))
        # 0.5 + 10/100 - 0.01
        assert eng.velocity_at("a", eng.hour) == pytest.approx(0.59, abs=1e-12)

    def test_clamped_at_zero(self):
        g = graph_with_counts({"a": 1000})
        eng = KineticsEngine(KineticsConfig(zeta=0.01), g)
        eng.step_hour(HourBucket(0, force={"a": 15}))  # 0.015 - 0.01 = 0.005
        assert eng.velocity_at("a", eng.hour) == pytest.approx(0.005)
        eng.step_hour(HourBucket(1))
        assert eng.velocity_at("a", eng.hour) == 0.0

    def test_frictionless_accumulates_mentions_over_mass(self):
        g, buckets = random_fixture(11)
        eng = KineticsEngine(KineticsConfig(zeta=0.0), g).run(buckets)
        totals = {}
        for b in buckets:
            for u, c in b.force.items():
                totals[u] = totals.get(u, 0) + c
        for u, total in totals.items():
            expected = total / g.followers_of(u)
            assert eng.velocity_at(u, eng.hour) == pytest.approx(expected, rel=1e-9)

    def test_non_contiguous_bucket_rejected(self):
        eng = KineticsEngine(KineticsConfig(), graph_with_counts({"a": 1}))
        with pytest.raises(ValueError):
            eng.step_hour(HourBucket(3))

    def test_untracked_users_stay_absent(self):
        g, buckets = random_fixture(3)
        eng = KineticsEngine(KineticsConfig(zeta=0.1), g).run(buckets)
        assert "ghost" not in eng.tracked_users
        assert eng.velocity_at("ghost", eng.hour) == 0.0

    def test_retweet_force_source(self):
        g = graph_with_counts({"a": 10})
        eng = KineticsEngine(KineticsConfig(force_source="retweets"), g)
        eng.step_hour(HourBucket(0, force={"a": 50}, retweet_force={"a": 5}))
        assert eng.velocity_at("a", eng.hour) == pytest.approx(0.5)


class TestMass:
    def test_raw_mode(self):
        cfg = KineticsConfig(mass_mode="raw_followers", default_mass=1.0)
        assert cfg.mass_for(100) == 100.0
        assert cfg.mass_for(0) == 1.0

    def test_ln_mode_floored(self):
        cfg = KineticsConfig(mass_mode="ln_followers")
        assert cfg.mass_for(1) == 1.0
        assert cfg.mass_for(100) == pytest.approx(math.log(100) + 1)
        assert cfg.mass_for(0) == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KineticsConfig(zeta=-0.1)
        with pytest.raises(ValueError):
            KineticsConfig(default_mass=0.5)
        with pytest.raises(ValueError):
            KineticsConfig(mass_mode="cubic")
        with pytest.raises(ValueError):
            KineticsConfig(force_source="vibes")

    @pytest.mark.parametrize("field", ["zeta", "default_mass"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            KineticsConfig(**{field: value})


class TestEstimateZeta:
    def test_direct_substitution(self):
        # 100 mentions over 10 hours across 10 users, mean followers 50
        users = [f"u{i}" for i in range(10)]
        forces = [{u: 1 for u in users} for _ in range(10)]
        g = graph_with_counts({u: 50 for u in users})
        assert estimate_zeta(buckets_from_forces(forces), g) == pytest.approx(0.02)

    def test_zero_mentions(self):
        g = graph_with_counts({"a": 50})
        assert estimate_zeta([HourBucket(0), HourBucket(1)], g) == 0.0

    def test_errors(self):
        empty = UserGraph.from_edges(set())
        with pytest.raises(ValueError):
            estimate_zeta([HourBucket(0)], empty)
        with pytest.raises(ValueError):
            estimate_zeta([], graph_with_counts({"a": 1}))

    def test_week_fixture_against_recount(self):
        g, buckets = random_fixture(42, users=9, hours=168)
        total = sum(sum(b.force.values()) for b in buckets)
        active = set()
        for b in buckets:
            active.update(b.force)
        mean_followers = sum(g.followers_of(u) for u in g.users) / g.n
        expected = (total / (len(buckets) * len(active))) / mean_followers
        assert estimate_zeta(buckets, g) == pytest.approx(expected, rel=1e-12)


class TestInvariants:
    def test_non_negative_everywhere(self):
        g, buckets = random_fixture(1, hours=80)
        hist = replay(buckets, KineticsConfig(zeta=0.3), g)
        assert (hist.matrix >= 0).all()

    def test_linear_decay_until_clamp(self):
        zeta = 1.0 / 64.0
        g = graph_with_counts({"a": 64})
        forces = [{"a": 65}] + [{}] * 100  # 65/64 - 1/64 = exactly 1.0
        hist = replay(buckets_from_forces(forces), KineticsConfig(zeta=zeta), g)
        assert hist.row(0).get("a", 0.0) == 1.0
        for k in range(1, 101):
            expected = 1.0 - k * zeta if k <= 64 else 0.0
            assert hist.row(k).get("a", 0.0) == expected  # exact: dyadic values

    def test_monotone_in_force(self):
        g, buckets = random_fixture(17, hours=40)
        cfg = KineticsConfig(zeta=0.12)
        base = replay(buckets, cfg, g)
        bumped_buckets = [HourBucket(b.hour_index, dict(b.force)) for b in buckets]
        t = 13
        bumped_buckets[t].force["u0"] = bumped_buckets[t].force.get("u0", 0) + 1
        bumped = replay(bumped_buckets, cfg, g)
        for h in range(len(buckets)):
            got, want = bumped.row(h).get("u0", 0.0), base.row(h).get("u0", 0.0)
            if h < t:
                assert got == want
            else:
                assert got >= want

    def test_uniform_mass_ranking_matches_damped_accumulation(self):
        rng = random.Random(9)
        names = [f"u{i}" for i in range(8)]
        g = graph_with_counts({u: 40 for u in names})
        forces = [{u: rng.randint(0, 6) for u in names} for _ in range(60)]
        zeta = 0.02
        hist = replay(buckets_from_forces(forces), KineticsConfig(zeta=zeta), g)
        acc = {u: 0.0 for u in names}
        for f in forces:
            for u in names:
                acc[u] = max(0.0, acc[u] + f.get(u, 0) - 40 * zeta)
        # pairwise order agrees wherever the accumulations are not a
        # rounding-level tie (the two recurrences round differently)
        last = hist.row(59)
        for u in names:
            for w in names:
                if abs(acc[u] - acc[w]) > 1e-9:
                    dv = last.get(u, 0.0) - last.get(w, 0.0)
                    assert (dv > 0) == (acc[u] > acc[w])


class TestReplayParity:
    def test_empty_stream(self):
        hist = replay([], KineticsConfig(), graph_with_counts({"a": 1}))
        assert hist.users == []
        assert hist.final_hour == -1


class TestVelocityAt:
    def test_untracked_is_zero(self):
        g, buckets = random_fixture(2)
        hist = replay(buckets, KineticsConfig(zeta=0.05), g)
        assert "nobody" not in hist.row(10)

    def test_current_boundary_equals_live_state(self):
        g, buckets = random_fixture(4)
        eng = KineticsEngine(KineticsConfig(zeta=0.05), g).run(buckets)
        live = replay(buckets, KineticsConfig(zeta=0.05), g).row(eng.hour)
        assert {u: eng.velocity_at(u, eng.hour) for u in eng.tracked_users} == live

    def test_matches_truncated_replay(self):
        g, buckets = random_fixture(31, hours=60)
        cfg = KineticsConfig(zeta=0.04)
        hist = replay(buckets, cfg, g)
        for h in (0, 7, 23, 59):
            trunc = replay(buckets[: h + 1], cfg, g)
            row, trunc_row = hist.row(h), trunc.row(h)
            for u in hist.users:
                assert row[u] == trunc_row.get(u, 0.0)

    def test_pre_epoch_is_zero(self):
        g, buckets = random_fixture(6)
        hist = replay(buckets, KineticsConfig(), g)
        assert hist.row(-1) == dict.fromkeys(hist.users, 0.0)

    def test_future_boundary_rejected(self):
        g, buckets = random_fixture(8, hours=5)
        hist = replay(buckets, KineticsConfig(), g)
        with pytest.raises(ValueError):
            hist.row(99)


class TestTrending:
    def test_relative_filter(self):
        v0 = {"u1": 1.0, "u2": 10.0}
        v1 = {"u1": 1.5, "u2": 10.5}
        entries = rank_trending(v0, v1, threshold=0.10, k=5)
        assert [e.user for e in entries] == ["u1"]
        assert entries[0].acceleration == pytest.approx(0.5)
        assert entries[0].relative_increase == pytest.approx(0.5)

    def test_all_decelerating_empty(self):
        v0 = {"u1": 2.0, "u2": 3.0}
        v1 = {"u1": 1.0, "u2": 2.5}
        assert rank_trending(v0, v1, 0.10, 5) == []

    def test_new_user_counts_as_infinite_increase(self):
        entries = rank_trending({}, {"new": 0.2}, threshold=0.10, k=5)
        assert entries[0].user == "new"
        assert math.isinf(entries[0].relative_increase)

    def test_k_zero_empty(self):
        assert rank_trending({"a": 0.0}, {"a": 5.0}, 0.1, 0) == []

    def test_ties_broken_by_user_id(self):
        v0 = {"b": 1.0, "a": 1.0}
        v1 = {"b": 2.0, "a": 2.0}
        assert [e.user for e in rank_trending(v0, v1, 0.1, 5)] == ["a", "b"]

    def test_matches_bruteforce_on_random_week(self):
        rng = random.Random(77)
        names = [f"u{i:02d}" for i in range(20)]
        v0 = {u: rng.uniform(0, 5) for u in names}
        v1 = {u: max(0.0, v0[u] + rng.uniform(-1, 2)) for u in names}
        threshold, k = 0.10, 5
        rows = []
        for u in names:
            dv = v1[u] - v0[u]
            rel = math.inf if v0[u] == 0 and dv > 0 else (dv / v0[u] if v0[u] else 0.0)
            if rel >= threshold:
                rows.append((u, dv))
        rows.sort(key=lambda t: (-t[1], t[0]))
        expected = [u for u, _ in rows[:k]]
        got = [e.user for e in rank_trending(v0, v1, threshold, k)]
        assert got == expected

    def test_engine_window(self):
        # b is held at force/mass == zeta (flat velocity); a accelerates in week 1
        g = graph_with_counts({"a": 1, "b": 10})
        forces = [{"a": 1, "b": 30}] * 4 + [{"a": 1, "b": 5}] * (WEEK_HOURS - 4) \
            + [{"a": 2, "b": 5}] * WEEK_HOURS + [{"a": 1, "b": 5}] * WEEK_HOURS
        eng = KineticsEngine(KineticsConfig(zeta=0.5), g).run(buckets_from_forces(forces))
        assert eng.hour == 3 * WEEK_HOURS - 1
        entries = eng.trending(167, 335, threshold=0.10, k=5)
        assert [e.user for e in entries] == ["a"]
        assert entries[0].acceleration == 1.5 * WEEK_HOURS


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        g, buckets = random_fixture(51, hours=200)
        hist = replay(buckets, KineticsConfig(zeta=0.03), g)
        hours = [week_end_hour(0), 199]
        path = tmp_path / "snapshots.tsv"
        write_snapshots(path, hist, hours)
        table = load_snapshots(path)
        assert isinstance(table, VelocityHistory)
        assert table.users == sorted(hist.users)
        assert table.hours == hours
        assert table.final_hour == 199
        for h in hours:
            assert table.row(h) == hist.row(h)

    def test_missing_boundary_named(self, tmp_path):
        g, buckets = random_fixture(52, hours=10)
        hist = replay(buckets, KineticsConfig(), g)
        path = tmp_path / "snap.tsv"
        write_snapshots(path, hist, [9])
        table = load_snapshots(path)
        with pytest.raises(ValueError, match="5"):
            table.row(5)
        assert table.row(-3) == dict.fromkeys(table.users, 0.0)

    def test_user_missing_from_an_hour_reads_zero(self, tmp_path):
        g, buckets = random_fixture(54, hours=20)
        hist = replay(buckets, KineticsConfig(zeta=0.01), g)
        path = tmp_path / "snapshots.tsv"
        write_snapshots(path, hist, [9, 19])
        dropped = next(u for u, v in hist.row(19).items() if v > 0.0)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith(f"19\t{dropped}\t")]
        path.write_text("\n".join(lines) + "\n")
        table = load_snapshots(path)
        assert table.hours == [9, 19]
        assert table.row(9)[dropped] == hist.row(9)[dropped]
        assert table.row(19) == {**hist.row(19), dropped: 0.0}

    def test_acceleration_is_the_change_from_the_hour_before(self, tmp_path):
        g, buckets = random_fixture(55, hours=30)
        hist = replay(buckets, KineticsConfig(zeta=0.01), g)
        path = tmp_path / "snapshots.tsv"
        write_snapshots(path, hist, [0, 10, 29])
        lines = [line.split("\t") for line in path.read_text().splitlines()]
        assert [(int(h), u) for h, u, _, _ in lines] == \
            [(h, u) for h in (0, 10, 29) for u in hist.users]
        for h, u, v, a in lines:
            now, before = hist.row(int(h)), hist.row(int(h) - 1)
            assert float(v) == now[u]
            assert float(a) == now[u] - before[u]
        assert any(float(a) not in (0.0, float(v)) for _, _, v, a in lines)

    def test_deterministic_bytes(self, tmp_path):
        g, buckets = random_fixture(53, hours=30)
        hist = replay(buckets, KineticsConfig(zeta=0.01), g)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_snapshots(p1, hist, [10, 29])
        write_snapshots(p2, hist, [10, 29])
        assert p1.read_bytes() == p2.read_bytes()


def test_velocity_replay_clamps():
    indptr = np.array([0, 1, 1, 1], dtype=np.int64)
    users = np.array([0], dtype=np.int64)
    counts = np.array([2.0])
    mass = np.array([1.0])
    hist = kernels.velocity_replay(indptr, users, counts, mass, 1.5, 1)
    assert hist[:, 0].tolist() == [0.5, 0.0, 0.0]
    rows = kernels.velocity_replay(indptr, users, counts, mass, 1.5, 1, [0, 2])
    assert rows[:, 0].tolist() == [0.5, 0.0]


@st.composite
def streams(draw):
    """Random buckets with empty hours and late users, a graph, a config and
    a checkpoint set."""
    hours = draw(st.integers(1, 40))
    names = [f"u{i}" for i in range(draw(st.integers(1, 7)))]
    first = {u: draw(st.integers(0, hours)) for u in names}  # first hour u may appear

    def forces(h):
        live = [u for u in names if first[u] <= h]
        if not live or draw(st.booleans()):
            return {}
        return draw(st.dictionaries(st.sampled_from(live), st.integers(0, 6), max_size=4))

    buckets = [HourBucket(h, forces(h), forces(h)) for h in range(hours)]
    counts = {u: draw(st.integers(0, 300)) for u in names if draw(st.booleans())}
    graph = graph_with_counts(counts or {"bystander": 50})
    cfg = KineticsConfig(zeta=draw(st.sampled_from([0.0, 1 / 64, 0.05, 0.4])),
                         mass_mode=draw(st.sampled_from(MASS_MODES)),
                         default_mass=draw(st.sampled_from([1.0, 2.5])),
                         force_source=draw(st.sampled_from(FORCE_SOURCES)))
    checkpoints = draw(st.sets(st.integers(0, hours - 1), max_size=8))
    return buckets, graph, cfg, checkpoints


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


class TestCheckpointReplay:
    @settings(max_examples=100, deadline=None)
    @given(streams())
    def test_checkpoints_equal_dense_rows_bitwise(self, case):
        buckets, graph, cfg, checkpoints = case
        table = ForceTable.of(buckets, cfg.force_source)
        before = (bytes(table.indptr), bytes(table.f_users), bytes(table.f_counts))
        dense = replay(buckets, cfg, graph)
        kept = replay(table, cfg, graph, checkpoints=checkpoints)
        assert (bytes(table.indptr), bytes(table.f_users), bytes(table.f_counts)) == before
        assert kept.users == dense.users
        assert kept.hours == sorted(checkpoints)
        for k, h in enumerate(kept.hours):
            assert kept.matrix[k].tobytes() == dense.matrix[h].tobytes()
        engine = KineticsEngine(cfg, graph).run(buckets)
        for h in checkpoints:
            if h == engine.hour or (h + 1) % WEEK_HOURS == 0:
                row = kept.row(h)
                for u in dense.users:
                    assert row[u] == engine.velocity_at(u, h)
        for h in set(range(len(buckets))) - set(checkpoints):
            with pytest.raises(ValueError, match=rf"\b{h}\b"):
                kept.row(h)

    @settings(max_examples=100, deadline=None)
    @given(streams())
    def test_row_is_every_users_velocity_at(self, case):
        buckets, graph, cfg, checkpoints = case
        kept = replay(buckets, cfg, graph, checkpoints=checkpoints)
        dense = replay(buckets, cfg, graph)
        for h in kept.hours + [-1]:
            row = kept.row(h)
            assert list(row) == kept.users
            assert row == dense.row(h)
        for h in set(range(len(buckets) + 1)) - set(checkpoints):
            with pytest.raises(ValueError, match=rf"\b{h}\b"):
                kept.row(h)

    @settings(max_examples=50, deadline=None)
    @given(streams())
    def test_table_built_hour_by_hour_estimates_same_zeta(self, case):
        buckets, graph, cfg, _ = case
        table = ForceTable(cfg.force_source)
        for b in buckets:
            table.add(b)
        got = outcome(estimate_zeta, table, graph)
        assert got == outcome(estimate_zeta, buckets, graph)
        total = sum(sum(b.force.values()) for b in buckets)
        active = set().union(*(b.force.keys() | b.retweet_force.keys() for b in buckets))
        if total and graph.mean_followers() > 0:
            assert got == (total / (len(buckets) * len(active))) / graph.mean_followers()

    def test_checkpoint_outside_stream_named(self):
        g, buckets = random_fixture(5, hours=10)
        with pytest.raises(ValueError, match="10"):
            replay(buckets, KineticsConfig(), g, checkpoints=[3, 10])
        with pytest.raises(ValueError, match="-1"):
            replay(buckets, KineticsConfig(), g, checkpoints=[-1, 3])

    def test_table_force_source_must_match(self):
        g, buckets = random_fixture(6, hours=5)
        with pytest.raises(ValueError, match="retweets"):
            replay(ForceTable.of(buckets), KineticsConfig(force_source="retweets"), g)

    def test_non_contiguous_bucket_rejected(self):
        with pytest.raises(ValueError, match="2"):
            ForceTable.of([HourBucket(0), HourBucket(2)])

    def test_total_force_is_the_buckets(self):
        """The table sums each hour's ``HourBucket.total_force``; it does
        not count the mentions again."""
        class Tallied(HourBucket):
            @property
            def total_force(self):
                return 99

        table = ForceTable("retweets")
        table.add(HourBucket(0, {"a": 2}, {"b": 5}))
        table.add(Tallied(1, {"a": 1}))
        assert table.total_force == 2 + 99

    def test_memory_grows_with_checkpoints_not_hours(self):
        # a dense (hours, users) float64 history would take 24 MB
        hours, users = 3000, 1000
        rng = np.random.default_rng(0)
        names = [f"u{i:04d}" for i in range(users)]
        table = ForceTable()
        for h in range(hours):
            hot = rng.choice(users, size=20, replace=False)
            table.add(HourBucket(h, {names[i]: int(c) for i, c in
                                     zip(hot, rng.integers(1, 9, size=20))}))
        graph = graph_with_counts({u: 100 for u in names})
        checkpoints = [167, 168, 1175, 1176, 2183, 2184, 2998, 2999]
        tracemalloc.start()
        try:
            hist = replay(table, KineticsConfig(zeta=0.01), graph, checkpoints=checkpoints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.matrix.shape == (8, users)
        assert peak < hours * users * 8 / 4, f"replay peaked at {peak / 1e6:.1f} MB"


@st.composite
def week_streams(draw):
    """0-3 weeks of buckets, some users first seen after a week end, a
    graph and a config."""
    hours = draw(st.one_of(st.integers(0, 3 * WEEK_HOURS),
                           st.sampled_from([167, 168, 169, 335, 336, 503, 504])))
    names = [f"u{i}" for i in range(draw(st.integers(1, 6)))]
    first = {u: draw(st.one_of(st.integers(0, 3 * WEEK_HOURS),
                               st.sampled_from([168, 169, 336, 337])))
             for u in names}
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.sampled_from([0.05, 0.3, 0.9]))

    def forces(h):
        return {u: rng.randint(0, 6) for u in names if first[u] <= h and rng.random() < p}

    buckets = [HourBucket(h, forces(h), forces(h)) for h in range(hours)]
    graph = graph_with_counts({u: draw(st.integers(0, 300)) for u in names})
    cfg = KineticsConfig(zeta=draw(st.sampled_from([0.0, 1 / 64, 0.05, 0.4])),
                         mass_mode=draw(st.sampled_from(MASS_MODES)),
                         force_source=draw(st.sampled_from(FORCE_SOURCES)))
    return buckets, graph, cfg


class TestEngineCheckpoints:
    @settings(max_examples=60, deadline=None)
    @given(week_streams())
    def test_answers_week_ends_and_current_hour_only(self, case):
        buckets, graph, cfg = case
        engine = KineticsEngine(cfg, graph).run(buckets)
        dense = replay(buckets, cfg, graph)
        current = len(buckets) - 1
        assert engine.hour == current
        assert engine.tracked_users == dense.users
        week_ends = [h for h in range(current) if (h + 1) % WEEK_HOURS == 0]
        probe = dense.users + ["ghost"]
        for h in week_ends + [current] if current >= 0 else []:
            got = np.array([engine.velocity_at(u, h) for u in probe])
            row = dense.row(h)
            want = np.array([row.get(u, 0.0) for u in probe])
            assert got.tobytes() == want.tobytes()
        for h in set(range(current)) - set(week_ends):
            with pytest.raises(ValueError, match=rf"\b{h}\b"):
                engine.velocity_at(probe[0], h)
        with pytest.raises(ValueError, match=rf"\b{current + 1}\b"):
            engine.velocity_at(probe[0], current + 1)
        for u in probe:
            assert engine.velocity_at(u, -1) == engine.velocity_at(u, -WEEK_HOURS) == 0.0
        kept = replay(buckets, cfg, graph, checkpoints=week_ends)
        for start, end in zip([-1] + week_ends, week_ends):
            assert engine.trending(start, end, 0.1, 3, "w") == \
                rank_trending(kept.row(start), kept.row(end), 0.1, 3, "w")

    @settings(max_examples=60, deadline=None)
    @given(week_streams())
    def test_row_is_every_tracked_users_velocity_at(self, case):
        """Users first seen after a week end are in its row, at 0."""
        buckets, graph, cfg = case
        engine = KineticsEngine(cfg, graph).run(buckets)
        current = engine.hour
        week_ends = [h for h in range(current) if (h + 1) % WEEK_HOURS == 0]
        for h in week_ends + [current, -1]:
            row = engine.row(h)
            assert list(row) == engine.users
            assert row == {u: engine.velocity_at(u, h) for u in engine.users}
        for h in set(range(current + 2)) - set(week_ends) - {current}:
            with pytest.raises(ValueError, match=rf"\b{h}\b"):
                engine.row(h)

    def test_memory_grows_with_weeks_not_hours(self):
        # a per-hour copy of the state would take 3,000 x 1,000 float64 = 24 MB
        hours, users = 3000, 1000
        rng = np.random.default_rng(1)
        names = [f"u{i:04d}" for i in range(users)]
        buckets = [HourBucket(0, {u: 1 for u in names})]
        for h in range(1, hours):
            hot = rng.choice(users, size=20, replace=False)
            buckets.append(HourBucket(h, {names[i]: int(c) for i, c in
                                          zip(hot, rng.integers(1, 9, size=20))}))
        graph = graph_with_counts({u: 100 for u in names})
        engine = KineticsEngine(KineticsConfig(zeta=0.01), graph)
        tracemalloc.start()
        try:
            engine.run(buckets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine.hour == hours - 1 and len(engine.tracked_users) == users
        assert peak < hours * users * 8 / 4, f"engine peaked at {peak / 1e6:.1f} MB"


def test_week_end_hour():
    assert week_end_hour(0) == 167
    assert week_end_hour(3) == 4 * 168 - 1
