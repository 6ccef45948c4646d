"""URL datasets, outlier fences, correlation statistics."""

import dataclasses
import math
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_oracles import graph_from_edges
from veloscore import evaluation
from veloscore.dynamics import VelocityHistory, week_end_hour
from veloscore.evaluation import (
    UrlRecord,
    accumulate_scores,
    audience_correct,
    audience_confound_report,
    average_weekly_r,
    build_url_datasets,
    correlate,
    iqr_filter,
    _p_from_r,
    pearson,
    run_full_evaluation,
)
from veloscore.ingest import Event, StreamDigest

EPOCH = datetime(2025, 1, 6, tzinfo=timezone.utc)


def ev(author, urls, week=0, hour_in_week=5):
    ts = EPOCH + timedelta(hours=week * 168 + hour_in_week)
    return Event("e", author, ts, urls=list(urls))


def url_datasets(events, clicks, graph, *args, **kwargs):
    """``build_url_datasets`` over the digest of the events and the graph's follower counts."""
    return build_url_datasets(StreamDigest.of(events), clicks, graph.follower_map(),
                              *args, **kwargs)


def rec(url="u", clicks=10, promoters=("a", "b", "c"), audience=100, week=None):
    return UrlRecord(url, clicks, tuple(promoters), audience, week)


# The stated bound of `_p_from_r` against scipy's Student-t tail: relative
# error at most P_REL where scipy's p is at least P_FLOOR, absolute error at
# most P_FLOOR below it.
P_REL, P_FLOOR = 1e-9, 1e-290


def within_p_bound(got, expected) -> np.ndarray:
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    err = np.abs(got - expected)
    return np.where(expected >= P_FLOOR, err <= P_REL * expected, err <= P_FLOOR)


def t_stat(r: float, n: int) -> float:
    """Student's t of Pearson's r on n points, from the same 1 - r*r as `_p_from_r`."""
    denom = 1.0 - r * r
    return math.inf if denom <= 0.0 else abs(r) * math.sqrt((n - 2) / denom)


def scipy_p(r: float, n: int) -> float:
    from scipy import stats as ss  # test-only oracle; veloscore does not import scipy
    return float(2 * ss.t.sf(t_stat(r, n), n - 2))


def scipy_beta_p(r: float, n: int) -> float:
    """The same tail from scipy's incomplete beta, 1 - I_{r^2}(1/2, df/2), fed
    r^2 itself.  Near r = 0 at small df, `t.sf` is off by more than the bound:
    it rounds x = df / (df + t^2) to within 1e-16 of 1, and p depends on
    sqrt(1 - x).  At r = 1e-8, n = 3 it reads 0.9999999905136262, where the
    closed form 1 - (2/pi) asin(r) is 0.9999999936338023."""
    from scipy import special
    return float(special.betaincc(0.5, (n - 2) / 2, r * r))


class TestBuildUrlDatasets:
    def graph(self):
        return graph_from_edges(set(), overrides={"a": 10, "b": 20, "c": 30, "d": 0})

    def test_multi_week_url_global_only(self):
        events = [ev("a", ["http://x/1"], week=3), ev("b", ["http://x/1"], week=5),
                  ev("c", ["http://x/1"], week=3)]
        g, w = url_datasets(events, {"http://x/1": 50}, self.graph(), EPOCH)
        assert len(g) == 1
        assert w == []

    def test_single_week_url_in_both(self):
        events = [ev(u, ["http://x/1"], week=2) for u in "abc"]
        g, w = url_datasets(events, {"http://x/1": 50}, self.graph(), EPOCH)
        assert len(g) == 1 and len(w) == 1
        assert w[0].week_index == 2
        assert g[0].week_index is None

    def test_two_promoters_excluded(self):
        events = [ev("a", ["http://x/1"]), ev("b", ["http://x/1"])]
        stats = {}
        g, w = url_datasets(events, {"http://x/1": 5}, self.graph(), EPOCH,
                                  stats=stats)
        assert g == [] and w == []
        assert stats["too_few_promoters"] == 1

    def test_promoters_need_graph_data(self):
        events = [ev(u, ["http://x/1"]) for u in ("a", "b", "ghost1", "ghost2")]
        g, _ = url_datasets(events, {"http://x/1": 5}, self.graph(), EPOCH)
        assert g == []  # only 2 qualified promoters

    def test_no_click_entry_excluded_counted(self):
        events = [ev(u, ["http://x/1"]) for u in "abc"]
        stats = {}
        g, _ = url_datasets(events, {}, self.graph(), EPOCH, stats=stats)
        assert g == []
        assert stats["no_click_entry"] == 1

    def test_audience_is_accumulated_followers(self):
        events = [ev(u, ["http://x/1"]) for u in "abc"]
        g, _ = url_datasets(events, {"http://x/1": 5}, self.graph(), EPOCH)
        assert g[0].audience == 60
        assert g[0].promoters == ("a", "b", "c")

    def test_duplicate_promotion_single_promoter(self):
        events = [ev("a", ["http://x/1"]), ev("a", ["http://x/1"]),
                  ev("b", ["http://x/1"]), ev("c", ["http://x/1"])]
        g, _ = url_datasets(events, {"http://x/1": 5}, self.graph(), EPOCH)
        assert g[0].promoters == ("a", "b", "c")

    def test_default_epoch_from_first_event_even_without_urls(self):
        # a url-free leading event anchors the week grid
        events = [ev("a", [], week=0, hour_in_week=0)]
        events += [ev(u, ["http://x/1"], week=1, hour_in_week=2) for u in "abc"]
        _, w = url_datasets(events, {"http://x/1": 5}, self.graph())
        assert w[0].week_index == 1

    def test_fifty_url_fixture_against_audit(self):
        rng = random.Random(19)
        users = {f"p{i}": rng.randint(1, 50) for i in range(12)}
        graph = graph_from_edges(set(), overrides=users)
        names = sorted(users)
        events, clicks = [], {}
        for i in range(50):
            url = f"http://x/{i}"
            k = rng.randint(2, 6)
            promoters = rng.sample(names, k)
            weeks = [rng.randint(0, 2) for _ in promoters]
            for p, w in zip(promoters, weeks):
                events.append(ev(p, [url], week=w, hour_in_week=rng.randint(0, 167)))
            if rng.random() < 0.9:
                clicks[url] = rng.randint(0, 500)
        g_rec, w_rec = url_datasets(events, clicks, graph, EPOCH)
        # independent audit with plain dicts
        seen = {}
        for e in events:
            for url in e.urls:
                week = int((e.timestamp - EPOCH).total_seconds() // 3600) // 168
                seen.setdefault(url, []).append((e.author, week))
        exp_global, exp_weekly = 0, 0
        for url, occ in seen.items():
            if url not in clicks:
                continue
            if len({a for a, _ in occ}) < 3:
                continue
            exp_global += 1
            if len({w for _, w in occ}) == 1:
                exp_weekly += 1
        assert len(g_rec) == exp_global
        assert len(w_rec) == exp_weekly


class TestIqrFilter:
    def test_hand_quartiles(self):
        records = [rec(url=str(c), clicks=c) for c in (1, 2, 3, 4, 100)]
        kept = iqr_filter(records, k=1.5)
        assert sorted(r.clicks for r in kept) == [1, 2, 3, 4]

    def test_all_equal_nothing_removed(self):
        records = [rec(url=str(i), clicks=7) for i in range(6)]
        assert len(iqr_filter(records, 1.5)) == 6

    def test_huge_k_keeps_everything(self):
        records = [rec(url=str(c), clicks=c) for c in (1, 5, 9, 1000, 10**7)]
        assert len(iqr_filter(records, 1e12)) == 5

    def test_small_group_passes_through_flagged(self):
        stats = {}
        records = [rec(url=str(c), clicks=c) for c in (1, 2, 10**9)]
        kept = iqr_filter(records, 1.5, stats=stats)
        assert len(kept) == 3
        assert stats["groups_unfiltered"] == 1

    def test_per_week_fences_independent(self):
        week0 = [rec(url=f"a{c}", clicks=c, week=0) for c in (1, 2, 3, 4, 100)]
        week1 = [rec(url=f"b{c}", clicks=c, week=1) for c in (90, 100, 110, 120)]
        kept = iqr_filter(week0, 1.5) + iqr_filter(week1, 1.5)
        assert {r.url for r in kept} == {"a1", "a2", "a3", "a4",
                                         "b90", "b100", "b110", "b120"}

    def test_idempotent(self):
        rng = random.Random(4)
        records = [rec(url=str(i), clicks=rng.randint(0, 1000)) for i in range(60)]
        once = iqr_filter(records, 1.5)
        twice = iqr_filter(once, 1.5)
        assert [r.url for r in twice] == [r.url for r in once]

    def test_against_sort_and_scan_oracle(self):
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(4, 40)
            values = [rng.randint(0, 100) for _ in range(n)]
            records = [rec(url=str(i), clicks=c) for i, c in enumerate(values)]
            kept = {r.url for r in iqr_filter(records, 1.5)}
            s = sorted(values)
            def quantile(q):
                pos = (len(s) - 1) * q
                lo, frac = int(math.floor(pos)), pos - math.floor(pos)
                hi = min(lo + 1, len(s) - 1)
                return s[lo] + frac * (s[hi] - s[lo])
            q1, q3 = quantile(0.25), quantile(0.75)
            lo_f, hi_f = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
            expected = {str(i) for i, c in enumerate(values) if lo_f <= c <= hi_f}
            assert kept == expected

    def test_tukey_rule_available(self):
        records = [rec(url=str(c), clicks=c) for c in (1, 2, 3, 4, 100)]
        kept = iqr_filter(records, 1.5, rule="tukey")
        assert 100 not in {r.clicks for r in kept}

    @pytest.mark.parametrize("n, hinges", [(7, (2.5, 5.5)), (8, (2.5, 6.5))])
    def test_tukey_hinges(self, n, hinges):
        values = np.arange(1.0, n + 1)
        assert evaluation._quartiles(values, "tukey") == hinges
        assert evaluation._quartiles(values[::-1].copy(), "tukey") == hinges

    def test_tukey_keeps_every_non_outlier(self):
        clicks = (1, 2, 3, 4, 5, 6, 7, 100)  # hinges 2.5 and 6.5, fences -3.5 and 12.5
        kept = iqr_filter([rec(url=str(c), clicks=c) for c in clicks], 1.5, rule="tukey")
        assert [r.clicks for r in kept] == [1, 2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("rule", ["linear", "tukey"])
    def test_zero_k_keeps_records_on_the_quartiles(self, rule):
        """``--iqr-k 0`` fences at Q1 and Q3 themselves, and keeps them."""
        clicks = (1, 3, 3, 4, 5, 5, 9)
        assert evaluation._quartiles(np.array(clicks, dtype=float), rule) == (3.0, 5.0)
        kept = iqr_filter([rec(url=str(i), clicks=c) for i, c in enumerate(clicks)], 0.0,
                          rule=rule)
        assert [r.clicks for r in kept] == [3, 3, 4, 5, 5]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            iqr_filter([rec()], k=-1)


# click counts as they come, and floats across the range (numpy is the oracle);
# no -0.0, which sorts level with 0.0 in an order numpy's sort does not fix
QUARTILE_INPUTS = (st.lists(st.integers(-10**15, 10**15), min_size=1, max_size=60)
                   | st.lists(st.integers(0, 20), min_size=1, max_size=60)
                   | st.lists(st.floats(-1e150, 1e150).map(lambda v: v + 0.0), min_size=1,
                              max_size=60))


def bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestQuartilesMatchNumpy:
    @settings(max_examples=300, deadline=None)
    @given(QUARTILE_INPUTS)
    @example([1, 2])
    @example([0.1, 0.7, 0.0, 5e-324])
    def test_linear_is_numpys_percentile(self, values):
        want = np.percentile(np.array(values), [25, 75], method="linear")
        assert bits(evaluation._quartiles(values, "linear")) == bits(want)

    @settings(max_examples=300, deadline=None)
    @given(QUARTILE_INPUTS)
    @example([1, 2])
    @example([1e150, 1e150, 0.0, 5e-324])
    def test_tukey_is_numpys_median_of_the_halves(self, values):
        s = np.sort(np.array(values))
        half = (s.size + 1) // 2
        want = (np.median(s[:half]), np.median(s[s.size - half:]))
        assert bits(evaluation._quartiles(values, "tukey")) == bits(want)


class TestAccumulate:
    def test_sum_of_promoter_scores(self):
        scores = {"a": 0.2, "b": 0.3, "c": 0.5}
        assert accumulate_scores(rec(), scores) == pytest.approx(1.0)

    def test_untracked_contribute_zero(self):
        assert accumulate_scores(rec(), {"a": 0.2}) == pytest.approx(0.2)

    def test_all_zero(self):
        assert accumulate_scores(rec(), {}) == 0.0

    def velocity_history(self):
        users = ["a", "b", "c"]
        hours = 2 * 168
        matrix = np.zeros((hours, 3))
        for t in range(hours):
            matrix[t] = [t * 0.01, t * 0.02, t * 0.03]
        return VelocityHistory(users, matrix, range(hours))

    def test_velocity_flavors(self):
        """The velocity rows of a week-1 URL: its week end, the week end
        before it and the final checkpoint."""
        hist = self.velocity_history()
        r = rec(week=1)
        on_week = accumulate_scores(r, hist.row(week_end_hour(1)))
        prior = accumulate_scores(r, hist.row(week_end_hour(0)))
        final = accumulate_scores(r, hist.row(hist.final_hour))
        h_on, h_prior = 335, 167
        assert on_week == pytest.approx(sum(h_on * x for x in (0.01, 0.02, 0.03)))
        assert prior == pytest.approx(sum(h_prior * x for x in (0.01, 0.02, 0.03)))
        assert final == on_week  # final hour is the week-1 end here

    def test_prior_week_of_week_zero_is_zero(self):
        hist = self.velocity_history()
        assert week_end_hour(0 - 1) == -1
        assert hist.row(-1) == {"a": 0.0, "b": 0.0, "c": 0.0}
        assert accumulate_scores(rec(week=0), hist.row(-1)) == 0.0


class TestAudienceCorrect:
    def test_division(self):
        x, y = audience_correct(rec(clicks=500, audience=1000), 1.0)
        assert x == pytest.approx(0.001)
        assert y == pytest.approx(0.5)

    def test_zero_audience_rejected(self):
        with pytest.raises(ValueError):
            audience_correct(rec(audience=0), 1.0)

    def test_scaling_invariance_of_corrected_pearson(self):
        rng = random.Random(2)
        records = [rec(url=str(i), clicks=rng.randint(10, 500),
                       audience=rng.randint(50, 5000)) for i in range(30)]
        scores = [rng.uniform(0, 10) for _ in records]
        def corrected_r(scale_clicks, scale_scores):
            xs, ys = [], []
            for r, s in zip(records, scores):
                x, y = audience_correct(
                    dataclasses.replace(r, clicks=r.clicks * scale_clicks), s * scale_scores)
                xs.append(x)
                ys.append(y)
            return pearson(xs, ys)[0]
        base = corrected_r(1, 1)
        assert corrected_r(37.0, 0.001) == pytest.approx(base, abs=1e-12)


class TestPearson:
    def test_identity(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        r, r2, p = pearson(xs, xs)
        assert r == pytest.approx(1.0)
        assert p == 0.0

    def test_negation(self):
        xs = [1.0, 2.0, 5.0, 7.0]
        r, _, _ = pearson(xs, [-x for x in xs])
        assert r == pytest.approx(-1.0)

    def test_textbook_formula(self):
        xs = [1, 2, 3, 4, 5]
        ys = [2, 1, 4, 3, 6]
        n = 5
        mx, my = sum(xs) / n, sum(ys) / n
        num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        den = math.sqrt(sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys))
        r, r2, p = pearson(xs, ys)
        assert r == pytest.approx(num / den, abs=1e-12)
        assert r2 == r * r  # exact by construction
        assert within_p_bound(p, scipy_p(r, n))

    def test_p_value_within_bound_of_student_t_sf(self):
        from scipy import stats as ss
        ns = np.array(list(range(3, 64)) + [100, 257, 1000, 4096, 100_000])
        rs = np.concatenate([np.linspace(-0.999999, 0.999999, 201), [0.0, 1e-12, -1e-6]])
        n_grid, r_grid = (a.ravel() for a in np.meshgrid(ns, rs))
        t = np.abs(r_grid) * np.sqrt((n_grid - 2) / (1.0 - r_grid * r_grid))
        expected = 2 * ss.t.sf(t, n_grid - 2)
        got = np.array([_p_from_r(float(r), int(n)) for r, n in zip(r_grid, n_grid)])
        assert got.size > 12_000
        assert within_p_bound(got, expected).all()

    @settings(max_examples=400, deadline=None)
    @given(r=st.one_of(st.floats(-1.0, 1.0),
                       st.floats(-1e-6, 1e-6),
                       st.floats(0.0, 1e-6).map(lambda e: 1.0 - e),
                       st.floats(0.0, 1e-6).map(lambda e: e - 1.0)),
           n=st.integers(3, 100_000))
    @example(r=0.0, n=3)
    @example(r=1e-6, n=100_000)
    @example(r=1.0 - 2.0 ** -53, n=3)
    @example(r=0.0063, n=73_533)  # p about 0.086: the fraction's switch between tails
    @example(r=1e-8, n=3)
    def test_p_value_within_bound_property(self, r, n):
        assert within_p_bound(_p_from_r(r, n), scipy_beta_p(r, n))

    @pytest.mark.parametrize("a", [0.5, 19.5, 20.0, 1000.5, 49_999.0, 5e6])
    def test_log_beta_recurrence(self, a):
        # B(a + 1, 1/2) = B(a, 1/2) a / (a + 1/2), exactly and without lgamma.  Across
        # a = 20 it ties the Stirling branch to the lgamma one; above, lgamma(a + 1/2)
        # - lgamma(a) alone would miss by more than the 1e-13 asked here.
        step = evaluation._log_beta(a + 1.0, 0.5) - evaluation._log_beta(a, 0.5)
        assert step == pytest.approx(-math.log1p(0.5 / a), rel=0, abs=1e-13)

    def test_unconverged_fraction_raises(self):
        # at a = b = 1e12 and x at the switch the fraction needs about 1e6 terms
        with pytest.raises(ArithmeticError, match="did not converge"):
            evaluation._beta_cf(1e12, 1e12, 0.5)

    @pytest.mark.parametrize("n", [3, 4, 100, 100_000])
    def test_p_value_at_zero_and_unit_r_exact(self, n):
        assert _p_from_r(0.0, n) == 1.0
        assert _p_from_r(1.0, n) == 0.0
        assert _p_from_r(-1.0, n) == 0.0

    # df = 1 and df = 2 have closed forms, independent of scipy.  They are
    # written without cancellation: 1 - (2/pi) atan(t) = (2/pi) atan2(1, t),
    # and 1 - t / s = 2 / (s (s + t)) with s = sqrt(2 + t^2).
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=3, max_size=4))
    @example([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0)])
    @example([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.5)])
    @example([(0.0, 0.0), (0.0, 2.3512228356758577e-139), (4.883624495134981e-55, 0.0)])
    def test_small_n_closed_forms(self, points):
        xs, ys = [x for x, _ in points], [y for _, y in points]
        try:
            r, _, p = pearson(xs, ys)
        except ValueError as exc:
            assert "zero variance" in str(exc)
            return
        t = t_stat(r, len(points))
        if len(points) == 3:
            closed = 2 / math.pi * math.atan2(1.0, t)
        else:
            s = math.sqrt(2.0 + t * t)
            closed = 2.0 / (s * (s + t)) if math.isfinite(t) else 0.0
        assert within_p_bound(p, closed)

    def test_affine_invariance(self):
        rng = random.Random(12)
        xs = [rng.uniform(-5, 5) for _ in range(40)]
        ys = [rng.uniform(-5, 5) for _ in range(40)]
        r0, _, _ = pearson(xs, ys)
        r1, _, _ = pearson([3.7 * x + 11 for x in xs], [0.002 * y - 8 for y in ys])
        assert r1 == pytest.approx(r0, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1, 1], [1, 2, 3, 4])

    def test_zero_variance_clicks_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            pearson([1, 2, 3, 4], [5, 5, 5, 5])

    @pytest.mark.parametrize("value", [0.1, 6.483605315220348e276])
    def test_constant_series_whose_mean_rounds_rejected(self, value):
        # the mean of three copies is not the value, so the sums hold rounding error only
        assert math.fsum([value] * 3) / 3 != value
        for xs, ys in (([value] * 3, [3.0, 1.0, 2.0]), ([3.0, 1.0, 2.0], [value] * 3)):
            with pytest.raises(ValueError, match="zero variance"):
                pearson(xs, ys)

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    def test_r_survives_a_variance_product_out_of_range(self, scale):
        # sxx * syy under- or overflows at these scales, but sxx and syy do not
        xs, ys = [1.0, 2.0, 4.0], [3.0, 1.0, 2.0]
        r = pearson(xs, ys)[0]
        assert pearson([x * scale for x in xs], [y * scale for y in ys])[0] == pytest.approx(r)

    def test_r_survives_sums_of_squares_out_of_range(self, recwarn):
        """Every sum of squares overflows at 1e200: r comes from the
        deviations scaled to at most 1, and numpy warns of nothing."""
        r, r2, p = pearson([1e200, 2e200, 4e200], [3e200, 1e200, 2e200])
        assert r == pytest.approx(-0.3273268353539886, abs=1e-15)
        assert (r2, p) == pytest.approx((r * r, pearson([1, 2, 4], [3, 1, 2])[2]), rel=1e-12)
        assert not recwarn.list

    def test_deviations_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            pearson([1.7e308, 1.5e308, -1.7e308], [3.0, 1.0, 2.0])

    def test_deviation_past_the_float_range_rejected(self):
        # the sum of the values fits, but one value's distance from the mean does not
        with pytest.raises(ValueError, match="sums of squares overflow"):
            pearson([1.7e308, -1.7e308, 1.7e308], [3.0, 1.0, 2.0])

    def test_series_of_different_lengths_rejected(self):
        with pytest.raises(ValueError, match="series lengths differ"):
            pearson([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=3,
                    max_size=30),
           st.floats(1e150, 1e300), st.floats(1e150, 1e300))
    def test_r_does_not_depend_on_scale(self, pairs, x_scale, y_scale):
        xs, ys = [float(x) for x, _ in pairs], [float(y) for _, y in pairs]
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        r = pearson(xs, ys)[0]
        scaled = pearson([x * x_scale for x in xs], [y * y_scale for y in ys])[0]
        assert scaled == pytest.approx(r, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=3,
                    max_size=50))
    @example([(0.0, 0.0), (0.0, 2.5571674709990683e-149), (7.565924407309026e-130, 0.0)])
    def test_r_within_4_ulp_of_numpys_formula(self, pairs):
        """Up to 50 points, r is within 4 ulp of 1 of the numpy formula
        ``pearson`` had before its sums became correctly rounded: the two
        differ in the last bits only, never in ``report.tsv``'s 12 digits."""
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        x, y = np.array(xs), np.array(ys)
        dx, dy = x - x.mean(), y - y.mean()
        sxx, syy, sxy = float(dx @ dx), float(dy @ dy), float(dx @ dy)
        assume(sxx > 0 and syy > 0 and len(set(xs)) > 1 and len(set(ys)) > 1)
        scale = math.sqrt(sxx * syy)
        if not 0.0 < scale < math.inf:
            scale = math.sqrt(sxx) * math.sqrt(syy)
        want = max(-1.0, min(1.0, sxy / scale))
        assert abs(pearson(xs, ys)[0] - want) <= 4 * math.ulp(1.0)

    def test_three_points_accepted(self):
        r, _, p = pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        assert r == pytest.approx(0.5)
        assert within_p_bound(p, 1 - 2 / math.pi * math.atan(t_stat(r, 3)))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # clamped, a nan r would read as a perfect correlation
        for xs, ys in (([1, 2, bad, 4], [2, 1, 3, 5]), ([2, 1, 3, 5], [1, 2, bad, 4])):
            with pytest.raises(ValueError, match="non-finite"):
                pearson(xs, ys)


class TestAverageWeeklyR:
    def test_identical_r_exact(self):
        for r in (0.3, -0.42, 0.87654321):
            mean_r, _, n_eff = average_weekly_r([(0, r, 100), (1, r, 200), (2, r, 300)])
            assert mean_r == r  # exact, not approx
            assert n_eff == 200

    def test_antisymmetric_pair_cancels(self):
        mean_r, _, _ = average_weekly_r([(0, 0.3, 50), (1, -0.3, 50)])
        assert mean_r == pytest.approx(0.0, abs=1e-15)

    def test_hand_z_average(self):
        rs = [0.2, 0.4, 0.6]
        zs = [math.atanh(r) for r in rs]
        expected = math.tanh(sum(zs) / 3)
        mean_r, p, n_eff = average_weekly_r([(w, r, 349) for w, r in enumerate(rs)])
        assert mean_r == pytest.approx(expected, abs=1e-15)
        assert n_eff == 349
        assert 0.0 <= p <= 1.0

    def test_no_weeks_rejected(self):
        with pytest.raises(ValueError, match="no weekly coefficients to average"):
            average_weekly_r([])

    def test_unit_r_error_names_week(self):
        with pytest.raises(ValueError, match="week 1"):
            average_weekly_r([(0, 0.5, 10), (1, 1.0, 10)])

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            average_weekly_r([(0, 0.5, 2)])

    def test_three_point_week_accepted_two_point_week_named(self):
        mean_r, p, n_eff = average_weekly_r([(0, 0.5, 3), (1, 0.5, 3)])
        assert (mean_r, n_eff) == (0.5, 3)
        assert p == _p_from_r(0.5, 3)
        with pytest.raises(ValueError, match="week 1 has n=2"):
            average_weekly_r([(0, 0.5, 3), (1, 0.5, 2)])


class TestConfoundReport:
    def test_score_proportional_to_audience(self):
        records = [rec(url=str(i), audience=a) for i, a in enumerate((100, 300, 700, 900))]
        scores = {}
        for r in records:
            for p in r.promoters:
                scores[p] = 0.0
        source = {u: 0.0 for u in scores}
        # craft per-record accumulation proportional to audience by using
        # distinct promoters per record
        records = [UrlRecord(str(i), 10, (f"p{i}a", f"p{i}b", f"p{i}c"), a, None)
                   for i, a in enumerate((100, 300, 700, 900))]
        source = {}
        for r in records:
            for p in r.promoters:
                source[p] = r.audience / 300.0
        rep = audience_confound_report(records, source, "toy")
        assert rep.pearson_r == pytest.approx(1.0)

    def test_permuted_scores_uncorrelated(self):
        rng = random.Random(31)
        audiences = [rng.randint(100, 10000) for i in range(400)]
        records = [UrlRecord(str(i), 10, (f"p{i}",), a, None)
                   for i, a in enumerate(audiences)]
        shuffled = audiences[:]
        rng.shuffle(shuffled)
        source = {f"p{i}": shuffled[i] / 100.0 for i in range(400)}
        rep = audience_confound_report(records, source, "toy")
        assert abs(rep.pearson_r) < 0.15


class TestFullEvaluation:
    def build(self):
        rng = random.Random(8)
        users = [f"p{i}" for i in range(30)]
        counts = {u: rng.randint(5, 500) for u in users}
        graph_users = graph_from_edges(set(), overrides=counts)
        hours = 2 * 168
        matrix = np.zeros((hours, len(users)))
        base = np.array([rng.uniform(0, 1) for _ in users])
        for t in range(hours):
            matrix[t] = base * (t + 1) / hours
        hist = VelocityHistory(users, matrix, range(hours))
        records_g, records_w = [], []
        for i in range(40):
            promoters = tuple(sorted(rng.sample(users, rng.randint(3, 6))))
            audience = sum(counts[p] for p in promoters)
            clicks = max(1, int(audience * 0.1 * rng.uniform(0.5, 1.5)))
            week = i % 2
            records_g.append(UrlRecord(f"u{i}", clicks, promoters, audience, None))
            records_w.append(UrlRecord(f"u{i}", clicks, promoters, audience, week))
        static = {
            "ip_influence": {u: rng.uniform(0, 1) for u in users},
            "pagerank": {u: rng.uniform(0, 1) for u in users},
            "tunkrank": {u: rng.uniform(0, 1) for u in users},
        }
        return records_g, records_w, static, hist

    def test_sections_and_rows(self):
        records_g, records_w, static, hist = self.build()
        sections = run_full_evaluation(records_g, records_w, static, hist)
        names = [s.section for s in sections]
        assert names == ["uncorrected_global", "audience_confound",
                         "corrected_global", "corrected_weekly"]
        uncorrected, confound, corrected, weekly = sections
        assert [r.score for r in uncorrected.rows] == \
            ["followers", "ip_influence", "pagerank", "tunkrank", "velocity"]
        assert [r.score for r in confound.rows] == \
            ["ip_influence", "pagerank", "tunkrank", "velocity"]
        assert [r.score for r in corrected.rows] == \
            ["ip_influence", "pagerank", "tunkrank", "velocity"]
        assert [r.score for r in weekly.rows] == \
            ["ip_influence", "pagerank", "tunkrank",
             "velocity_final_date", "velocity_on_week", "velocity_prior_week"]
        for sec in sections:
            for row in sec.rows:
                assert row.r_squared == row.pearson_r * row.pearson_r
                assert 0.0 <= row.p_value <= 1.0

    def test_weekly_rows_have_per_week_detail(self):
        records_g, records_w, static, hist = self.build()
        weekly = run_full_evaluation(records_g, records_w, static, hist)[3]
        for row in weekly.rows:
            assert row.per_week
            assert all(n >= 3 for _, _, n in row.per_week)

    @pytest.mark.parametrize("negate", [0, 1], ids=["score", "clicks"])
    def test_corrected_rows_come_from_audience_correct(self, monkeypatch, negate):
        """A spy that negates one side of each corrected pair flips the sign
        of every corrected_global and corrected_weekly row, and of no other."""
        records_g, records_w, static, hist = self.build()
        plain = run_full_evaluation(records_g, records_w, static, hist)
        real = evaluation.audience_correct

        def negated(record, accumulated_score):
            pair = list(real(record, accumulated_score))
            pair[negate] = -pair[negate]
            return tuple(pair)

        monkeypatch.setattr(evaluation, "audience_correct", negated)
        spied = run_full_evaluation(records_g, records_w, static, hist)
        assert spied[:2] == plain[:2]
        for before, after in zip(plain[2:], spied[2:]):
            assert after.rows and len(after.rows) == len(before.rows)
            for b, a in zip(before.rows, after.rows):
                assert (a.score, a.n) == (b.score, b.n)
                assert a.pearson_r == pytest.approx(-b.pearson_r, rel=1e-12)
                assert a.p_value == pytest.approx(b.p_value, rel=1e-9)
                assert [w for w, _, _ in a.per_week or ()] == [w for w, _, _ in b.per_week or ()]

    def test_confound_rows_come_from_audience_confound_report(self, monkeypatch):
        records_g, records_w, static, hist = self.build()
        real = evaluation.audience_confound_report
        made = []

        def spy(records, source, name):
            made.append(real(records, source, name))
            return made[-1]

        monkeypatch.setattr(evaluation, "audience_confound_report", spy)
        confound = run_full_evaluation(records_g, records_w, static, hist)[1]
        assert made and len(made) == len(confound.rows)
        assert all(row is report for row, report in zip(confound.rows, made))

    def test_zero_audience_record_left_out_of_corrected_rows(self):
        records_g, records_w, static, hist = self.build()
        zero_g = dataclasses.replace(records_g[0], url="zero", audience=0)
        zero_w = dataclasses.replace(zero_g, week_index=0)
        # fences wide enough that the extra record moves no other record across them
        stats: dict = {}
        with_zero = run_full_evaluation(records_g + [zero_g], records_w + [zero_w], static, hist,
                                        iqr_k=1e9, stats=stats)
        plain = run_full_evaluation(records_g, records_w, static, hist, iqr_k=1e9)
        assert stats["zero_audience_excluded"] == 1
        assert with_zero[2:] == plain[2:]
        assert any(0 in {w for w, _, _ in row.per_week} for row in plain[3].rows)  # the zero's week
        for after, before in zip(with_zero[:2], plain[:2]):
            assert [r.n for r in after.rows] == [r.n + 1 for r in before.rows]

    def test_weekly_velocity_rows_read_their_week_ends(self):
        """velocity_final_date reads the final checkpoint, velocity_on_week
        the end of the URL's week, velocity_prior_week the end of the week
        before it: all zeros for week 0, a zero-variance week left out."""
        records_g, records_w, static, hist = self.build()
        rng = np.random.default_rng(3)
        hist = VelocityHistory(hist.users, rng.uniform(0.0, 1.0, hist.matrix.shape), hist.hours)
        stats: dict = {}
        weekly = run_full_evaluation(records_g, records_w, static, hist, iqr_k=1e9,
                                     stats=stats)[3]
        rows = {row.score: row.per_week for row in weekly.rows}
        col = {u: i for i, u in enumerate(hist.users)}

        def week_r(week, hour):
            recs = [r for r in records_w if r.week_index == week]
            xs = [math.fsum(hist.matrix[hour, col[u]] for u in r.promoters) / r.audience
                  for r in recs]
            return week, pearson(xs, [r.clicks / r.audience for r in recs])[0], len(recs)

        assert rows["velocity_final_date"] == [week_r(0, 335), week_r(1, 335)]
        assert rows["velocity_on_week"] == [week_r(0, 167), week_r(1, 335)]
        assert rows["velocity_prior_week"] == [week_r(1, 167)]
        assert stats["weekly_degenerate_weeks"] == 1

    def test_three_record_week_counted_two_record_week_not(self):
        """A week needs 3 usable records: week 0 has 3 and gives an entry
        with n = 3, week 1 has 2 and gives none."""
        rng = random.Random(12)
        users = [f"p{i}" for i in range(6)]
        hist = VelocityHistory(users, np.array([[rng.uniform(0, 1) for _ in users]
                                                for _ in range(2 * 168)]), range(2 * 168))
        static = {"pagerank": {u: rng.uniform(0, 1) for u in users}}
        weeks = [0, 0, 0, 1, 1]
        records_w = [UrlRecord(f"u{i}", 10 + 7 * i * i, tuple(users[i:i + 3]), 50 + 3 * i, w)
                     for i, w in enumerate(weeks)]
        records_g = [dataclasses.replace(r, week_index=None) for r in records_w]
        weekly = run_full_evaluation(records_g, records_w, static, hist)[3]
        per_week = {row.score: row.per_week for row in weekly.rows}
        assert set(per_week) == {"pagerank", "velocity_final_date", "velocity_on_week"}
        for entries in per_week.values():
            assert [(w, n) for w, _, n in entries] == [(0, 3)]

    def test_constant_week_whose_mean_rounds_is_degenerate(self):
        """A week whose corrected scores are all 0.1 is counted in
        weekly_degenerate_weeks and left out of its row, not read as r = 0."""
        rng = random.Random(5)
        users = [f"p{i}" for i in range(6)]
        hist = VelocityHistory(users, np.array([[rng.uniform(0, 1) for _ in users]
                                                for _ in range(2 * 168)]), range(2 * 168))
        static = {"pagerank": dict.fromkeys(users, 1 / 3)}  # any three of them sum to 1.0
        # week 0: three promoters and audience 10 each, so every corrected score is 0.1
        records_w = [UrlRecord(f"w0u{i}", 10 + 7 * i * i, tuple(users[i:i + 3]), 10, 0)
                     for i in range(3)]
        records_w += [UrlRecord(f"w1u{i}", 10 + 7 * i * i, tuple(users[:3 + i]), 10 + i, 1)
                      for i in range(3)]
        records_g = [dataclasses.replace(r, week_index=None) for r in records_w]
        stats: dict = {}
        weekly = run_full_evaluation(records_g, records_w, static, hist, iqr_k=1e9,
                                     stats=stats)[3]
        per_week = {row.score: row.per_week for row in weekly.rows}
        assert [(w, n) for w, _, n in per_week["pagerank"]] == [(1, 3)]
        # the other degenerate week is velocity_prior_week's week 0, all zeros
        assert stats["weekly_degenerate_weeks"] == 2

    def test_each_week_fenced_by_its_own_quartiles(self):
        """Week 0's 40 clicks lie outside week 0's fences, [8, 16], though
        inside the fences of both weeks together, [-135, 257]: it is dropped,
        and week 0's rows count 4 records."""
        rng = random.Random(6)
        users = [f"p{i}" for i in range(12)]
        hist = VelocityHistory(users, np.array([[rng.uniform(0, 1) for _ in users]
                                                for _ in range(2 * 168)]), range(2 * 168))
        static = {"pagerank": {u: rng.uniform(0, 1) for u in users}}
        clicks = {0: (10, 11, 12, 13, 40), 1: (100, 110, 120, 130)}
        records_w = [UrlRecord(f"w{w}u{i}", c, tuple(users[i:i + 3]), 200 + 17 * i, w)
                     for w, week_clicks in clicks.items() for i, c in enumerate(week_clicks)]
        records_g = [dataclasses.replace(r, week_index=None) for r in records_w]
        stats: dict = {}
        weekly = run_full_evaluation(records_g, records_w, static, hist, stats=stats)[3]
        assert stats["weekly_dropped"] == 1
        per_week = {row.score: row.per_week for row in weekly.rows}
        for score in ("pagerank", "velocity_final_date", "velocity_on_week"):
            assert [(w, n) for w, _, n in per_week[score]] == [(0, 4), (1, 4)]

    def test_unit_r_week_names_its_row_and_week(self):
        """A week whose corrected velocities and clicks are collinear stops
        the evaluation with the section, the row and the week's own number."""
        users = [f"p{i}" for i in range(9)] + ["q1", "q2", "q3"]
        hours = [week_end_hour(1), week_end_hour(2), week_end_hour(3), week_end_hour(3) + 30]
        rng = random.Random(9)
        matrix = np.array([[rng.uniform(0, 1) for _ in users] for _ in hours])
        matrix[2, -3:] = (1.0, 2.0, 3.0)  # the q users at the end of week 3
        hist = VelocityHistory(users, matrix, hours)
        static = {"pagerank": {u: rng.uniform(0, 1) for u in users}}
        records_w = [UrlRecord(f"w2u{i}", 10 + 9 * i * i, tuple(users[3 * i:3 * i + 3]),
                               100 + 7 * i, 2) for i in range(3)]
        records_w += [UrlRecord(f"w3u{i}", 10 * i, (f"q{i}",), 100, 3) for i in (1, 2, 3)]
        records_g = [dataclasses.replace(r, week_index=None) for r in records_w]
        with pytest.raises(ValueError) as raised:
            run_full_evaluation(records_g, records_w, static, hist, iqr_k=1e9)
        assert str(raised.value) == \
            "corrected_weekly/velocity_on_week: week 3 has |r|=1.0; z-transform diverges"


def test_correlate_builds_report():
    rep = correlate("x", [1, 2, 3, 4], [2, 4, 5, 9])
    assert rep.n == 4
    assert rep.r_squared == pytest.approx(rep.pearson_r ** 2)
