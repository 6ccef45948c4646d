"""Click-correlation evaluation of influence scores.

Builds URL datasets from the event stream (a URL needs a click count and
at least 3 promoters with graph data), removes click outliers with IQR
fences, accumulates promoter scores per URL, corrects both clicks and
scores for audience (accumulated promoter followers), and reports Pearson
correlations with two-tailed significance.  Weekly coefficients are
averaged through the Fisher z-transform.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .core import AUDIENCE, WEEK_HOURS, DataFileError, replacing, table_rows, week_end_hour
from .ingest import StreamDigest, floor_to_hour, hours_since

@dataclass(frozen=True)
class UrlRecord:
    """A promoted URL: click count, qualified promoters, audience reach."""

    url: str
    clicks: int
    promoters: tuple[str, ...]
    audience: int
    week_index: Optional[int] = None


@dataclass
class CorrelationReport:
    score: str
    pearson_r: float
    r_squared: float
    n: int
    p_value: float
    per_week: Optional[list[tuple[int, float, int]]] = None


def read_clicks(path) -> dict[str, int]:
    """Load a url<TAB>clicks table; a count must be a non-negative integer."""
    def parse(line):
        url, clicks = line.split("\t")
        count = int(clicks)
        if count < 0:
            raise ValueError(f"negative click count {count}")
        return url, count

    table: dict[str, int] = {}
    for lineno, (url, count) in table_rows(path, parse, comments=True):
        if url in table:
            raise DataFileError(path, lineno, f"url {url!r} is listed again")
        table[url] = count
    return table


def build_url_datasets(
    digest: StreamDigest,
    clicks_table: Mapping[str, int],
    followers: Mapping[str, int],
    epoch=None,
    stats: Optional[dict] = None,
) -> tuple[list[UrlRecord], list[UrlRecord]]:
    """Build the global and the single-week URL datasets.

    The weekly dataset keeps only URLs whose every occurrence falls inside
    one week-sized span aligned to the stream epoch.  Both datasets
    require a click entry and at least 3 distinct promoters on the graph,
    the users ``followers`` maps to their follower counts; audience is
    the promoters' accumulated follower count.
    """
    stats = stats if stats is not None else {}
    if epoch is None and digest.first_ts is not None:
        # same default as bucketize: first event, floored to the hour
        epoch = floor_to_hour(digest.first_ts)
    occurrences: dict[str, list[tuple[str, int]]] = {}
    for url, author, ts in digest.urls:
        occurrences.setdefault(url, []).append((author, hours_since(ts, epoch) // WEEK_HOURS))

    global_records: list[UrlRecord] = []
    weekly_records: list[UrlRecord] = []
    for url in sorted(occurrences):
        if url not in clicks_table:
            stats["no_click_entry"] = stats.get("no_click_entry", 0) + 1
            continue
        occ = occurrences[url]
        promoters = tuple(sorted({a for a, _ in occ if a in followers}))
        if len(promoters) < 3:
            stats["too_few_promoters"] = stats.get("too_few_promoters", 0) + 1
            continue
        audience = int(sum(followers[u] for u in promoters))
        clicks = int(clicks_table[url])
        global_records.append(UrlRecord(url, clicks, promoters, audience, None))
        weeks = {w for _, w in occ}
        if len(weeks) == 1:
            weekly_records.append(UrlRecord(url, clicks, promoters, audience, weeks.pop()))
        else:
            stats["multi_week"] = stats.get("multi_week", 0) + 1
    return global_records, weekly_records


def _percentile(s: Sequence[float], q: float) -> float:
    """The ``q`` quantile of the sorted ``s`` by numpy's ``linear`` method,
    to the bit: interpolated from the nearer of the two values around it."""
    pos = (len(s) - 1) * q
    lo = math.floor(pos)
    a, b, t = s[lo], s[min(lo + 1, len(s) - 1)], pos - lo
    return float(b - (b - a) * (1 - t)) if t >= 0.5 else float(a + (b - a) * t)


def _median(s: Sequence[float]) -> float:
    """``np.median`` of the sorted ``s``, to the bit."""
    m = len(s) // 2
    return float(s[m]) if len(s) % 2 else (float(s[m - 1]) + float(s[m])) / 2


def _quartiles(values: Iterable[float], rule: str) -> tuple[float, float]:
    s = sorted(values)
    if rule == "linear":
        return _percentile(s, 0.25), _percentile(s, 0.75)
    if rule == "tukey":
        # Hinges: medians of the lower/upper halves, both including the
        # overall median position when n is odd.
        half = (len(s) + 1) // 2
        return _median(s[:half]), _median(s[len(s) - half:])
    raise ValueError(f"unknown quartile rule: {rule}")


def iqr_filter(
    records: Sequence[UrlRecord],
    k: float = 1.5,
    rule: str = "linear",
    stats: Optional[dict] = None,
) -> list[UrlRecord]:
    """Drop records whose clicks fall outside [Q1 - k*IQR, Q3 + k*IQR].

    Fewer than 4 records pass through unfiltered (flagged in ``stats``).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    stats = stats if stats is not None else {}
    if len(records) < 4:
        stats["groups_unfiltered"] = stats.get("groups_unfiltered", 0) + 1
        return list(records)
    q1, q3 = _quartiles((r.clicks for r in records), rule)
    iqr = q3 - q1
    lo, hi = q1 - k * iqr, q3 + k * iqr
    kept = [r for r in records if lo <= r.clicks <= hi]
    stats["dropped"] = stats.get("dropped", 0) + (len(records) - len(kept))
    return kept


def accumulate_scores(record: UrlRecord, source: Mapping[str, float]) -> float:
    """Sum the promoters' scores for one URL; a user ``source`` lacks adds 0.

    ``source`` maps users to one score: a centrality vector, or the
    velocities of one checkpoint (``VelocityHistory.row``).  The sum is
    correctly rounded, so it does not depend on the promoters' order, which
    is the order of their handles.
    """
    return math.fsum(source.get(u, 0.0) for u in record.promoters)


def audience_correct(record: UrlRecord, accumulated_score: float) -> tuple[float, float]:
    """(score/audience, clicks/audience): influence share vs. the
    probability that an audience member visits."""
    if record.audience <= 0:
        raise ValueError(f"record {record.url} has zero audience; cannot correct")
    return accumulated_score / record.audience, record.clicks / record.audience


_CF_MAX_TERMS = 10_000
_TINY = 1e-300


def _stirling_tail(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2), within 1 / (1680 z**7)."""
    z2 = z * z
    return (1 / 12 - (1 / 360 - 1 / (1260 * z2)) / z2) / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).  For large a, lgamma(a + b) - lgamma(a) would cancel the
    leading digits of two numbers near a log a; Stirling's series of that
    difference, its log terms joined through log1p, keeps them."""
    if a < 20.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    s = a + b
    return (math.lgamma(b) - (a - 0.5) * math.log1p(b / a) - b * math.log(s) + b
            + _stirling_tail(a) - _stirling_tail(s))


def _beta_cf(a: float, b: float, x: float) -> float:
    """1 / (1 + d_1 / (1 + d_2 / (1 + ...))), the continued fraction of
    I_x(a, b) (Numerical Recipes, section 6.4), by Lentz's method as revised
    by Thompson & Barnett (J. Comput. Phys. 1986)."""
    f = c = 1.0
    d = 0.0
    for j in range(1, _CF_MAX_TERMS):
        m = j // 2
        num = m * (b - m) if j % 2 == 0 else -(a + m) * (a + b + m)
        coef = num * x / ((a + j - 1) * (a + j))
        d = 1.0 + coef * d
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = 1.0 + coef / c
        c = c if abs(c) > _TINY else _TINY
        f *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            return 1.0 / f
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function I_x(a, b), given x and y = 1 - x.

    The caller passes both: for x near 1, 1 - x would keep few of y's digits.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log(y) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _p_from_r(r: float, n: int) -> float:
    """Two-tailed p of Pearson's r on n > 2 points (both callers check n): the
    Student-t tail at df = n - 2, which is I_{1 - r^2}(df / 2, 1 / 2).  Against
    scipy's Student-t tail the relative error is at most 1e-9 where p >= 1e-290,
    and the absolute error at most 1e-290 below (tests/test_evaluation.py)."""
    r2 = r * r
    return _betainc((n - 2) / 2.0, 0.5, 1.0 - r2, r2)


def _cross_sums(dx: Sequence[float], dy: Sequence[float]) -> tuple[float, float, float]:
    """The sums of dx*dx, dy*dy and dx*dy, each correctly rounded; inf for
    a sum past the float range, where ``math.fsum`` raises."""
    try:
        return (math.fsum(a * a for a in dx), math.fsum(b * b for b in dy),
                math.fsum(a * b for a, b in zip(dx, dy)))
    except (OverflowError, ValueError):  # ValueError: inf - inf
        return math.inf, math.inf, math.inf


def _scaled(d: Sequence[float]) -> list[float]:
    """``d`` over its largest magnitude, so no square or product can overflow."""
    top = max(map(abs, d)) or 1.0
    return [v / top for v in d]


def pearson(xs, ys) -> tuple[float, float, float]:
    """Product-moment correlation with two-tailed Student-t significance.

    Returns (r, r_squared, p_value).  Requires n >= 3, finite values and
    nonzero variance in both series.  Means and sums are correctly rounded
    (``math.fsum``).
    """
    x, y = list(map(float, xs)), list(map(float, ys))
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    n = len(x)
    if n < 3:
        raise ValueError(f"pearson needs at least 3 points, got {n}")
    if not (all(map(math.isfinite, x)) and all(map(math.isfinite, y))):
        raise ValueError("non-finite value; correlation undefined")
    try:
        mx, my = math.fsum(x) / n, math.fsum(y) / n
    except OverflowError:
        raise ValueError("sums overflow; correlation undefined") from None
    dx, dy = [v - mx for v in x], [v - my for v in y]
    sums = _cross_sums(dx, dy)
    if not all(map(math.isfinite, sums)):  # r does not depend on scale
        sums = _cross_sums(_scaled(dx), _scaled(dy))
    if not all(map(math.isfinite, sums)):
        raise ValueError("sums of squares overflow; correlation undefined")
    sxx, syy, sxy = sums
    # a constant series whose mean rounds leaves only rounding error in its sum
    if sxx <= 0.0 or syy <= 0.0 or min(x) == max(x) or min(y) == max(y):
        raise ValueError("zero variance; correlation undefined")
    scale = math.sqrt(sxx * syy)
    if not 0.0 < scale < math.inf:  # the product under- or overflowed
        scale = math.sqrt(sxx) * math.sqrt(syy)
    r = sxy / scale
    r = max(-1.0, min(1.0, r))
    return r, r * r, _p_from_r(r, n)


def average_weekly_r(per_week: Sequence[tuple[int, float, int]]) -> tuple[float, float, int]:
    """Average weekly coefficients via the Fisher z-transform.

    Each (week, r, n) triple needs n >= 3 and |r| < 1 (z diverges
    otherwise; the offending week is named).  Significance is computed
    from the averaged coefficient at the rounded mean sample size.
    Returns (mean_r, p_value, n_effective).
    """
    if not per_week:
        raise ValueError("no weekly coefficients to average")
    for week, r, n in per_week:
        if n < 3:
            raise ValueError(f"week {week} has n={n} < 3")
        if abs(r) >= 1.0:
            raise ValueError(f"week {week} has |r|={abs(r)}; z-transform diverges")
    n_eff = round(sum(n for _, _, n in per_week) / len(per_week))
    first = per_week[0][1]
    if all(r == first for _, r, _ in per_week):
        # Exact fixed point of the transform; skip the atanh/tanh round
        # trip, which is not bit-exact.
        return first, _p_from_r(first, n_eff), n_eff
    mean_z = sum(math.atanh(r) for _, r, _ in per_week) / len(per_week)
    mean_r = math.tanh(mean_z)
    return mean_r, _p_from_r(mean_r, n_eff), n_eff


def correlate(name: str, xs, ys) -> CorrelationReport:
    r, r2, p = pearson(xs, ys)
    return CorrelationReport(name, r, r2, len(xs), p)


def audience_confound_report(records: Sequence[UrlRecord], source, name: str) -> CorrelationReport:
    """Correlate audience against one accumulated score (raw, uncorrected)."""
    xs = [float(r.audience) for r in records]
    ys = [accumulate_scores(r, source) for r in records]
    return correlate(name, xs, ys)


def _corrected(records: Sequence[UrlRecord], source) -> tuple[list[float], list[float]]:
    """The audience-corrected scores and clicks of ``records``, in order."""
    pairs = [audience_correct(r, accumulate_scores(r, source)) for r in records]
    return [x for x, _ in pairs], [y for _, y in pairs]


@dataclass
class EvalSection:
    """One report table: a named analysis over a list of score rows."""

    section: str
    rows: list[CorrelationReport]

    def add(self, name: str, report: Callable[[], CorrelationReport]) -> None:
        """Append the row ``report()``; a ValueError it raises names the section and row."""
        try:
            self.rows.append(report())
        except ValueError as exc:
            raise ValueError(f"{self.section}/{name}: {exc}") from None


def run_full_evaluation(
    global_records: Sequence[UrlRecord],
    weekly_records: Sequence[UrlRecord],
    static_sources: Mapping[str, object],
    velocity_source,
    iqr_k: float = 1.5,
    quartile_rule: str = "linear",
    stats: Optional[dict] = None,
) -> list[EvalSection]:
    """Produce the four report sections.

    1. uncorrected_global: accumulated score vs clicks.
    2. audience_confound: audience vs accumulated score, by
       ``audience_confound_report``.
    3. corrected_global: score/audience vs clicks/audience, each pair
       from ``audience_correct``.
    4. corrected_weekly: the same correction per week, averaged via
       Fisher z, with three velocity rows: velocity at the final
       checkpoint, at the end of the URL's week and at the end of the
       week before it.

    ``static_sources`` maps score names to mappings; ``velocity_source``
    is a VelocityHistory, read one ``row`` at a time.  The audience row,
    labelled with the scorer name ``AUDIENCE``, appears only uncorrected
    (corrected it is identically 1).
    """
    stats = stats if stats is not None else {}
    g_stats: dict = {}
    filtered_global = iqr_filter(global_records, iqr_k, rule=quartile_rule, stats=g_stats)
    stats["global_dropped"] = g_stats.get("dropped", 0)
    final = velocity_source.row(velocity_source.final_hour)
    sources = {**static_sources, "velocity": final}

    uncorrected = EvalSection("uncorrected_global", [])
    clicks = [float(r.clicks) for r in filtered_global]
    followers_xs = [float(r.audience) for r in filtered_global]
    uncorrected.add(AUDIENCE, lambda: correlate(AUDIENCE, followers_xs, clicks))
    for name, source in sources.items():
        xs = [accumulate_scores(r, source) for r in filtered_global]
        uncorrected.add(name, lambda: correlate(name, xs, clicks))

    confound = EvalSection("audience_confound", [])
    corrected = EvalSection("corrected_global", [])
    correctable = [r for r in filtered_global if r.audience > 0]
    stats["zero_audience_excluded"] = len(filtered_global) - len(correctable)
    for name, source in sources.items():
        confound.add(name, lambda: audience_confound_report(filtered_global, source, name))
        corrected.add(name, lambda: correlate(name, *_corrected(correctable, source)))

    weekly = EvalSection("corrected_weekly", [])
    weeks: dict[int, list[UrlRecord]] = {}
    for r in weekly_records:
        weeks.setdefault(r.week_index, []).append(r)
    # each week fenced by its own quartiles, then its correctable records kept
    w_stats: dict = {}
    by_week: dict[int, list[UrlRecord]] = {}
    for w in sorted(weeks):
        fenced = iqr_filter(weeks[w], iqr_k, rule=quartile_rule, stats=w_stats)
        if kept := [r for r in fenced if r.audience > 0]:
            by_week[w] = kept
    stats["weekly_dropped"] = w_stats.get("dropped", 0)

    usable_weeks = [w for w in sorted(by_week) if week_end_hour(w) <= velocity_source.final_hour]
    stats["weekly_weeks_skipped"] = len(by_week) - len(usable_weeks)

    # each row's scores of week w: a fixed mapping, or the velocities at a week's end
    weekly_specs = [(name, lambda w, s=source: s) for name, source in static_sources.items()]
    weekly_specs += [("velocity_final_date", lambda w: final),
                     ("velocity_on_week", lambda w: velocity_source.row(week_end_hour(w))),
                     ("velocity_prior_week", lambda w: velocity_source.row(week_end_hour(w - 1)))]
    for label, scores_of_week in weekly_specs:
        per_week: list[tuple[int, float, int]] = []
        for w in usable_weeks:
            recs = by_week[w]
            if len(recs) < 3:
                continue
            xs, ys = _corrected(recs, scores_of_week(w))
            try:
                r_w, _, _ = pearson(xs, ys)
            except ValueError:
                stats["weekly_degenerate_weeks"] = stats.get("weekly_degenerate_weeks", 0) + 1
                continue
            per_week.append((w, r_w, len(recs)))
        if not per_week:
            stats["weekly_rows_skipped"] = stats.get("weekly_rows_skipped", 0) + 1
            continue

        def report():
            mean_r, p, n_eff = average_weekly_r(per_week)
            return CorrelationReport(label, mean_r, mean_r * mean_r, n_eff, p, per_week)

        weekly.add(label, report)

    return [uncorrected, confound, corrected, weekly]


def write_report_tsv(path, sections: Sequence[EvalSection]) -> None:
    """Machine-readable rows: section, score, r, r^2, p, n."""
    with replacing(path, encoding="utf-8") as fh:
        fh.write("section\tscore\tr\tr_squared\tp_value\tn\n")
        for sec in sections:
            for row in sec.rows:
                fh.write(
                    f"{sec.section}\t{row.score}\t{row.pearson_r:.12g}\t"
                    f"{row.r_squared:.12g}\t{row.p_value:.12g}\t{row.n}\n"
                )


def write_weekly_detail_tsv(path, sections: Sequence[EvalSection]) -> None:
    with replacing(path, encoding="utf-8") as fh:
        fh.write("score\tweek\tr\tn\n")
        for sec in sections:
            for row in sec.rows:
                if not row.per_week:
                    continue
                for week, r_w, n_w in row.per_week:
                    fh.write(f"{row.score}\t{week}\t{r_w:.12g}\t{n_w}\n")


def write_report_text(path, sections: Sequence[EvalSection]) -> None:
    """Human-readable tables mirroring the four analyses."""
    titles = {
        "uncorrected_global": "Scores vs clicks, global dataset (uncorrected)",
        "audience_confound": "Audience vs scores, global dataset (confound check)",
        "corrected_global": "Scores vs clicks, global dataset (audience-corrected)",
        "corrected_weekly": "Scores vs clicks, weekly dataset (audience-corrected, Fisher-averaged)",
    }
    with replacing(path, encoding="utf-8") as fh:
        for sec in sections:
            fh.write(f"{titles.get(sec.section, sec.section)}\n")
            fh.write(f"{'score':<24}{'r':>12}{'r^2':>12}{'p':>14}{'n':>8}\n")
            for row in sec.rows:
                fh.write(
                    f"{row.score:<24}{row.pearson_r:>12.5f}{row.r_squared:>12.5f}"
                    f"{row.p_value:>14.3e}{row.n:>8}\n"
                )
            fh.write("\n")
