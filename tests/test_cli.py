"""Command-line pipeline: exit codes, artifacts, determinism."""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from pipeline_helpers import CLI_DATA, SCORE_FILES, hash_dir, run, run_pipeline
from veloscore import cli, ingest
from veloscore.centrality import SCORERS, ScoreVector, ratio_score
from veloscore.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE
from veloscore.evaluation import (UrlRecord, accumulate_scores, audience_correct,
                                  build_url_datasets, pearson, read_clicks)
from veloscore.ingest import UserGraph, load_graph, read_events_file
from veloscore.synth import SynthConfig, generate


# a test's bad line that repeats the key of the line before it
LINE_2_AGAIN = "<line 2 again>"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("data")
    generate(CLI_DATA, data)
    return data


def score_args(data, out):
    return ("score", "--events", data / "events.ndjson",
            "--edges", data / "edges.tsv", "--out", out)


@pytest.fixture(scope="module")
def scored(dataset, tmp_path_factory):
    """An --out directory holding `score` and `centrality` results."""
    return run_pipeline(dataset, tmp_path_factory.mktemp("scored"),
                        commands=("score", "centrality"))


def assert_rejected_before_any_file(monkeypatch, capsys, out, argv, flag, value):
    """The command exits 1 naming ``flag`` before it looks at an input file
    or writes under ``out``."""
    def no_file(*args):
        raise AssertionError(f"{args[0]} was looked at before {flag} was checked")

    monkeypatch.setattr(cli, "_require_file", no_file)
    monkeypatch.setattr(cli, "_require_artifact", no_file)
    before = hash_dir(out)
    capsys.readouterr()
    assert run(*argv, flag, value) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert hash_dir(out) == before


def assert_rejected_before_any_read(monkeypatch, capsys, argv, what):
    """The command exits 1 naming ``what`` before it reads the graph, the
    stream or a scorer file."""
    def no_read(*args, **kwargs):
        raise AssertionError(f"{args[0]} was read before {what} was checked")

    for name in ("load_graph", "read_graph_cache", "read_events_file"):
        monkeypatch.setattr(ingest, name, no_read)
    monkeypatch.setattr(ScoreVector, "read_tsv", no_read)
    capsys.readouterr()
    assert run(*argv) == EXIT_USAGE
    assert what in capsys.readouterr().err


class TestScore:
    def test_runs_and_writes_artifacts(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(*score_args(dataset, out)) == EXIT_OK
        for name in ("snapshots.tsv", "velocity_final.tsv", "run_config_score.txt"):
            assert (out / name).is_file()

    def test_empty_stream_ok(self, dataset, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        out = tmp_path / "out"
        code = run("score", "--events", empty, "--edges", dataset / "edges.tsv",
                   "--out", out)
        assert code == EXIT_OK
        assert (out / "velocity_final.tsv").read_text() == ""

    def test_unreadable_input_exit_usage(self, dataset, tmp_path):
        code = run("score", "--events", tmp_path / "nope.ndjson",
                   "--edges", dataset / "edges.tsv", "--out", tmp_path / "o")
        assert code == EXIT_USAGE

    def test_parse_error_ceiling_exit_data(self, dataset, tmp_path):
        dirty = tmp_path / "dirty.ndjson"
        good = (dataset / "events.ndjson").read_text().splitlines()[:50]
        lines = good + ["garbage"] * 10
        dirty.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = run("score", "--events", dirty, "--edges", dataset / "edges.tsv",
                   "--out", out)
        assert code == EXIT_DATA
        assert run("score", "--events", dirty, "--edges", dataset / "edges.tsv",
                   "--out", out, "--error-ceiling", "0.5") == EXIT_OK

    def test_bad_zeta_exit_usage(self, dataset, tmp_path):
        assert run(*score_args(dataset, tmp_path / "o"), "--zeta", "brisk") == EXIT_USAGE

    @pytest.mark.parametrize("flag, value, named", [
        ("--zeta", "nan", "zeta"), ("--zeta", "inf", "zeta"), ("--zeta", "-inf", "zeta"),
        ("--zeta", "-1", "zeta"), ("--default-mass", "nan", "default_mass"),
        ("--error-ceiling", "-5", "error-ceiling"), ("--error-ceiling", "1.5", "error-ceiling"),
        ("--error-ceiling", "nan", "error-ceiling"),
    ])
    def test_out_of_range_parameter_exit_usage(self, dataset, tmp_path, capsys, flag, value,
                                               named):
        out = tmp_path / "o"
        assert run(*score_args(dataset, out), flag, value) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (out / "velocity_final.tsv").exists()

    def test_failed_score_removes_stale_results(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*score_args(dataset, out)) == EXIT_OK
        kept = ("snapshots.tsv", "velocity_final.tsv", "run_config_score.txt")
        # a bad flag fails before anything is touched
        assert run(*score_args(dataset, out), "--zeta", "brisk") == EXIT_USAGE
        assert all((out / name).is_file() for name in kept)
        dirty = tmp_path / "dirty.ndjson"
        dirty.write_text("garbage\n" * 5)
        assert run("score", "--events", dirty, "--edges", dataset / "edges.tsv",
                   "--out", out) == EXIT_DATA
        assert not any((out / name).exists() for name in kept)
        assert (out / "stream_digest.ndjson").is_file()  # keyed to the clean events file
        capsys.readouterr()
        assert run("trend", "--out", out, "--week", "0") == EXIT_USAGE
        assert "run `veloscore score` first" in capsys.readouterr().err
        assert run("eval", "--events", dataset / "events.ndjson", "--edges",
                   dataset / "edges.tsv", "--clicks", dataset / "clicks.tsv",
                   "--out", out) == EXIT_USAGE
        assert "run `veloscore score` first" in capsys.readouterr().err

    def test_hostile_records_skipped_not_fatal(self, dataset, tmp_path, capsys):
        good = (dataset / "events.ndjson").read_text().splitlines()
        base = {"id": "x", "ts": "2025-01-06T00:30:00Z", "author": "u00001"}
        hostile = [json.dumps({**base, "mentions": [1, 2]}),
                   json.dumps({**base, "rt_of": 5}),
                   json.dumps({**base, "mentions": [[1]]}),
                   "[" * 100_000]
        events = tmp_path / "hostile.ndjson"
        events.write_text("\n".join(good[:100] + hostile + good[100:]) + "\n")
        clean = tmp_path / "clean"
        assert run(*score_args(dataset, clean)) == EXIT_OK
        out = tmp_path / "out"
        assert run("score", "--events", events, "--edges", dataset / "edges.tsv",
                   "--out", out, "--error-ceiling", "0.5") == EXIT_OK
        assert f"skipped 4/{len(good) + 4} records" in capsys.readouterr().out
        assert (out / "snapshots.tsv").read_bytes() == (clean / "snapshots.tsv").read_bytes()


class TestTrend:
    def test_requires_score_first(self, tmp_path):
        assert run("trend", "--out", tmp_path, "--week", "1") == EXIT_USAGE

    def test_ranks_planted_burst(self, tmp_path):
        data = tmp_path / "data"
        generate(SynthConfig(seed=22, users=40, hours=336, follows_per_user=4,
                             base_mention_rate=0.02, weekly_rate_sigma=0.0,
                             bursts=(synth_burst("u00007", 200, 240, 6.0),)), data)
        out = tmp_path / "out"
        assert run(*score_args(data, out), "--zeta", "0.001") == EXIT_OK
        assert run("trend", "--out", out, "--week", "1") == EXIT_OK
        lines = (out / "trending.tsv").read_text().splitlines()
        assert lines[1].split("\t")[1] == "u00007"

    def test_missing_boundary_named(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(*score_args(dataset, out)) == EXIT_OK
        assert run("trend", "--out", out, "--week", "9") == EXIT_USAGE

    def test_missing_boundary_named_with_no_users(self, dataset, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        out = tmp_path / "out"
        assert run("score", "--events", empty, "--edges", dataset / "edges.tsv",
                   "--out", out) == EXIT_OK
        assert (out / "snapshots.tsv").read_text() == ""
        capsys.readouterr()
        assert run("trend", "--out", out, "--week", "0") == EXIT_USAGE
        assert "hour 167" in capsys.readouterr().err

    def test_malformed_snapshots_exit_data(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*score_args(dataset, out)) == EXIT_OK
        snap = out / "snapshots.tsv"
        good = snap.read_text().splitlines()
        h, user, _, a = good[1].split("\t")
        # `score` writes no hour before the epoch and no negative velocity
        for bad in ("167\tu00001\tfast", f"-1\t{user}\t5.0\t0.0", f"{h}\t{user}\t-3.5\t{a}"):
            snap.write_text("\n".join([good[0], bad, *good[2:]]) + "\n")
            capsys.readouterr()
            assert run("trend", "--out", out, "--week", "0") == EXIT_DATA, bad
            assert f"{snap}:2:" in capsys.readouterr().err

    def test_malformed_line_in_unread_hour_exit_data(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*score_args(dataset, out)) == EXIT_OK
        snap = out / "snapshots.tsv"
        lines = snap.read_text().splitlines()
        bad = next(i for i, ln in enumerate(lines) if ln.startswith("335\t"))
        lines[bad] = "335\tu00001\tfast\t0.0"
        snap.write_text("\n".join(lines) + "\n")
        # week 0 reads hours -1 and 167 only
        assert run("trend", "--out", out, "--week", "0") == EXIT_DATA
        assert f"{snap}:{bad + 1}:" in capsys.readouterr().err
        assert not (out / "trending.tsv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--week", "-1"), ("--top-k", "-2"), ("--top-k", "0"), ("--threshold", "nan"),
    ])
    def test_out_of_range_parameter_exit_usage(self, scored, monkeypatch, capsys, flag, value):
        assert_rejected_before_any_file(monkeypatch, capsys, scored,
                                        ("trend", "--out", scored, "--week", "0"), flag, value)

    def test_empty_result_exits_zero(self, dataset, tmp_path):
        out = tmp_path / "out"
        # a huge damping constant clamps every velocity to zero
        assert run(*score_args(dataset, out), "--zeta", "1000") == EXIT_OK
        assert run("trend", "--out", out, "--week", "1") == EXIT_OK
        assert (out / "trending.tsv").read_text().splitlines()[1:] == []


def synth_burst(user, start, end, rate):
    from veloscore.synth import Burst
    return Burst(user, start, end, rate)


class TestCentrality:
    def test_writes_all_score_files(self, dataset, tmp_path):
        out = tmp_path / "out"
        code = run("centrality", "--edges", dataset / "edges.tsv",
                   "--events", dataset / "events.ndjson", "--out", out)
        assert code == EXIT_OK
        for name in SCORE_FILES:
            assert (out / name).is_file(), name

    def test_single_algorithm(self, dataset, tmp_path):
        out = tmp_path / "out"
        code = run("centrality", "--edges", dataset / "edges.tsv",
                   "--algorithm", "pagerank", "--out", out)
        assert code == EXIT_OK
        assert (out / "pagerank.tsv").is_file()
        assert not (out / "tunkrank.tsv").exists()

    def test_followers_file_matches_in_degree(self, dataset, tmp_path):
        out = tmp_path / "out"
        run("centrality", "--edges", dataset / "edges.tsv",
            "--algorithm", "followers", "--out", out)
        graph = load_graph(dataset / "edges.tsv")
        for line in (out / "followers.tsv").read_text().splitlines():
            u, s = line.split("\t")
            assert float(s) == graph.followers_of(u)

    @pytest.mark.parametrize("flags, what", [
        ((), "--events is required"),
        (("--events", "missing.ndjson"), "event stream not readable"),
        (("--algorithm", "ip"), "--events is required"),
        (("--edges", "missing.tsv"), "edge list not readable"),
        (("--counts", "missing.tsv"), "follower-count file not readable"),
    ], ids=["no-events", "missing-events", "ip-no-events", "missing-edges", "missing-counts"])
    def test_inputs_checked_before_any_read(self, dataset, tmp_path, monkeypatch, capsys,
                                            flags, what):
        out = tmp_path / "out"
        flags = [tmp_path / f if f.startswith("missing") else f for f in flags]
        assert_rejected_before_any_read(
            monkeypatch, capsys,
            ("centrality", "--edges", dataset / "edges.tsv", "--out", out, *flags), what)
        assert not out.exists()

    def test_huge_max_iter_runs_as_far_as_convergence(self, dataset, tmp_path):
        # nothing is allocated per allowed round, only per round run
        outs = {m: tmp_path / f"max_iter_{m}" for m in ("default", "huge")}
        for m, out in outs.items():
            extra = ("--max-iter", "1000000000000") if m == "huge" else ()
            assert run("centrality", "--edges", dataset / "edges.tsv",
                       "--algorithm", "pagerank", "--out", out, *extra) == EXIT_OK
        assert ((outs["huge"] / "pagerank.tsv").read_bytes()
                == (outs["default"] / "pagerank.tsv").read_bytes())

    def test_reverse_pagerank_is_no_option(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "reverse.cfg"
        cfg.write_text("reverse_pagerank = true\n")
        argv = ("centrality", "--edges", dataset / "edges.tsv", "--algorithm", "pagerank",
                "--out", tmp_path / "o")
        for extra, named in ((("--reverse-pagerank",), "--reverse-pagerank"),
                             (("--config", cfg), "reverse_pagerank")):
            capsys.readouterr()
            assert run(*argv, *extra) == EXIT_USAGE
            assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fresh_out_does_not_hash_events(self, dataset, tmp_path, monkeypatch):
        """With no stream digest under --out there is no key to compare, so
        the events file is parsed without being hashed first."""
        hashed = []
        real = ingest.file_fingerprint

        def fingerprint(path):
            hashed.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(ingest, "file_fingerprint", fingerprint)
        assert run("centrality", "--edges", dataset / "edges.tsv", "--algorithm", "ip",
                   "--events", dataset / "events.ndjson", "--out", tmp_path / "o") == EXIT_OK
        assert hashed == ["edges.tsv"]

    def test_ip_requires_events(self, dataset, tmp_path):
        code = run("centrality", "--edges", dataset / "edges.tsv",
                   "--algorithm", "ip", "--out", tmp_path / "o")
        assert code == EXIT_USAGE

    def test_no_retweets_is_data_error(self, dataset, tmp_path):
        quiet = tmp_path / "quiet.ndjson"
        quiet.write_text(json.dumps({"id": "1", "author": "u00001",
                                     "ts": "2025-01-06T00:00:00Z",
                                     "text": "nothing"}) + "\n")
        code = run("centrality", "--edges", dataset / "edges.tsv",
                   "--events", quiet, "--algorithm", "ip", "--out", tmp_path / "o")
        assert code == EXIT_DATA

    @pytest.mark.parametrize("flag, value", [
        ("--damping", "1.5"), ("--damping", "0"), ("--damping", "nan"),
        ("--retweet-prob", "nan"), ("--retweet-prob", "-0.1"), ("--max-iter", "0"),
        ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_out_of_range_parameter_exit_usage(self, dataset, scored, monkeypatch, capsys,
                                               flag, value):
        argv = ("centrality", "--edges", dataset / "edges.tsv",
                "--events", dataset / "events.ndjson", "--out", scored)
        assert_rejected_before_any_file(monkeypatch, capsys, scored, argv, flag, value)


class TestScorerTable:
    """`centrality.SCORERS` is the one list of scorers: `--algorithm`'s
    choices, the files `centrality` writes and the ones `eval` reads."""

    def test_choices_are_the_table(self):
        _, commands = cli.build_parser()
        choices = next(a.choices for a in commands["centrality"]._actions
                       if a.dest == "algorithm")
        assert list(choices) == ["all", *SCORERS]

    @pytest.mark.parametrize("key", list(SCORERS))
    def test_entry(self, dataset, scored, tmp_path, capsys, key):
        scorer = SCORERS[key]
        argv = ("centrality", "--edges", dataset / "edges.tsv", "--algorithm", key)
        assert set(scorer.reported) <= set(scorer.outputs)
        # the stream is asked for exactly when the scorer needs it
        code = run(*argv, "--out", tmp_path / "no_events")
        assert code == (EXIT_USAGE if scorer.needs_stream else EXIT_OK)
        out = tmp_path / "out"
        assert run(*argv, "--events", dataset / "events.ndjson", "--out", out) == EXIT_OK
        assert sorted(p.name for p in out.glob("*.tsv")) == sorted(
            cli.SCORE_FILE_TEMPLATE.format(name) for name in scorer.outputs)
        for name in scorer.reported:
            partial = tmp_path / f"without_{name}"
            shutil.copytree(scored, partial)
            missing = partial / cli.SCORE_FILE_TEMPLATE.format(name)
            missing.unlink()
            capsys.readouterr()
            assert run(*TestEval().eval_args(dataset, partial)) == EXIT_USAGE
            assert f"missing {missing}; run `veloscore centrality` first" in capsys.readouterr().err

    def test_followers_is_the_audience(self, dataset, scored):
        """No `followers` row is needed: each URL's audience already is the
        sum of `followers.tsv` over its promoters."""
        followers = ScoreVector.read_tsv(scored / "followers.tsv")
        global_records, weekly_records = build_url_datasets(
            read_events_file(dataset / "events.ndjson"), read_clicks(dataset / "clicks.tsv"),
            load_graph(dataset / "edges.tsv"))
        assert global_records and weekly_records
        for record in (*global_records, *weekly_records):
            assert accumulate_scores(record, followers) == record.audience

    def test_corrected_ratio_is_constant_when_followees_are(self):
        """No `ratio` row: where every user follows 8 others, each corrected
        ratio is exactly 1/8, so its correlation has zero variance."""
        rng = random.Random(8)
        users = [f"u{i:02d}" for i in range(30)]
        graph = UserGraph.from_edges({(u, v) for u in users
                                      for v in rng.sample([w for w in users if w != u], 8)})
        assert set(graph.out_degree.tolist()) == {8}
        assert len(set(graph.follower_count.tolist())) > 1
        ratio = ratio_score(graph)
        records = [UrlRecord(f"url{i}", rng.randint(0, 100), tuple(promoters),
                             sum(graph.followers_of(u) for u in promoters))
                   for i, promoters in enumerate(rng.sample(users, 4) for _ in range(12))]
        corrected = [audience_correct(r, accumulate_scores(r, ratio)) for r in records]
        assert [score for score, _ in corrected] == [0.125] * len(records)
        with pytest.raises(ValueError, match="zero variance"):
            pearson(*zip(*corrected))


class TestEval:
    def prepare(self, dataset, out):
        run_pipeline(dataset, out, commands=("score", "centrality"))

    def eval_args(self, dataset, out):
        return ("eval", "--events", dataset / "events.ndjson",
                "--edges", dataset / "edges.tsv",
                "--clicks", dataset / "clicks.tsv", "--out", out)

    def test_reports_written(self, dataset, tmp_path):
        out = tmp_path / "out"
        self.prepare(dataset, out)
        assert run(*self.eval_args(dataset, out)) == EXIT_OK
        report = (out / "report.tsv").read_text().splitlines()
        assert report[0] == "section\tscore\tr\tr_squared\tp_value\tn"
        sections = {ln.split("\t")[0] for ln in report[1:]}
        assert sections == {"uncorrected_global", "audience_confound",
                            "corrected_global", "corrected_weekly"}
        assert (out / "report.txt").is_file()
        assert (out / "report_weekly.tsv").is_file()

    def test_missing_artifacts_name_producer(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*self.eval_args(dataset, out)) == EXIT_USAGE
        assert "score" in capsys.readouterr().err
        assert run(*score_args(dataset, out)) == EXIT_OK
        assert run(*self.eval_args(dataset, out)) == EXIT_USAGE
        assert "centrality" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, what", [
        ("--events", "event stream"), ("--clicks", "clicks table"), ("--edges", "edge list"),
        ("--counts", "follower-count file"),
    ])
    def test_inputs_checked_before_any_read(self, dataset, scored, monkeypatch, capsys,
                                            flag, what):
        before = hash_dir(scored)
        argv = (*self.eval_args(dataset, scored), flag, scored / "missing.tsv")
        assert_rejected_before_any_read(monkeypatch, capsys, argv, f"{what} not readable")
        assert hash_dir(scored) == before

    @pytest.mark.parametrize("name, bad_line", [
        ("clicks.tsv", "http://sho.rt/x\tmany"),
        ("clicks.tsv", "http://sho.rt/x\t-150"),
        ("snapshots.tsv", "167\tu00001\tfast\t0.0"),
        ("snapshots.tsv", "167\tu00001\tinf\t0.0"),
        ("snapshots.tsv", "167\tu00001\t0.5\tnan"),
        # `score` writes no hour before the epoch and no negative velocity
        ("snapshots.tsv", "-1\tu00001\t5.0\t0.0"),
        ("snapshots.tsv", "167\tnobody\t-3.5\t0.0"),
        ("pagerank.tsv", "u00001"),
        ("pagerank.tsv", "u00001\tnan"),
        ("pagerank.tsv", "u00001\t-inf"),
        # a key listed twice: a url, an (hour, user) pair, a user
        ("clicks.tsv", LINE_2_AGAIN),
        ("snapshots.tsv", LINE_2_AGAIN),
        ("pagerank.tsv", LINE_2_AGAIN),
    ])
    def test_malformed_data_file_exit_data(self, dataset, tmp_path, capsys, name, bad_line):
        out = tmp_path / "out"
        self.prepare(dataset, out)
        clicks = tmp_path / "clicks.tsv"
        clicks.write_text((dataset / "clicks.tsv").read_text())
        target = clicks if name == "clicks.tsv" else out / name
        lines = target.read_text().splitlines()
        lines[2] = lines[1] if bad_line == LINE_2_AGAIN else bad_line
        target.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("eval", "--events", dataset / "events.ndjson",
                   "--edges", dataset / "edges.tsv", "--clicks", clicks,
                   "--out", out) == EXIT_DATA
        assert f"{target}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--iqr-k", "-1"), ("--iqr-k", "nan"), ("--iqr-k", "inf"),
    ])
    def test_out_of_range_parameter_exit_usage(self, dataset, scored, monkeypatch, capsys,
                                               flag, value):
        assert_rejected_before_any_file(monkeypatch, capsys, scored,
                                        self.eval_args(dataset, scored), flag, value)

    def test_eval_uses_score_epoch(self, dataset, tmp_path):
        epoch = "2025-01-02T12:00:00Z"
        out = tmp_path / "out"
        assert run(*score_args(dataset, out), "--epoch", epoch) == EXIT_OK
        assert "resolved_epoch = 2025-01-02T12:00:00+00:00\n" in \
            (out / "run_config_score.txt").read_text()
        assert run("centrality", "--edges", dataset / "edges.tsv",
                   "--events", dataset / "events.ndjson", "--out", out) == EXIT_OK
        assert run(*self.eval_args(dataset, out)) == EXIT_OK
        plain = (out / "report_weekly.tsv").read_bytes()
        # without the recorded epoch, eval falls back to the first event's hour
        config = out / "run_config_score.txt"
        config.write_text("".join(line for line in config.read_text().splitlines(True)
                                  if not line.startswith("resolved_epoch")))
        assert run(*self.eval_args(dataset, out)) == EXIT_OK
        assert (out / "report_weekly.tsv").read_bytes() != plain

    def test_default_epoch_recorded(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run(*score_args(dataset, out)) == EXIT_OK
        config = (out / "run_config_score.txt").read_text()
        assert "epoch = None\n" in config
        assert "resolved_epoch = 2025-01-06T00:00:00+00:00\n" in config

    def test_mismatched_epoch_exit_usage(self, dataset, scored, capsys):
        """`eval` takes the epoch `score` recorded and has no --epoch of its
        own: one that names another instant, or the same, exits 1."""
        before = hash_dir(scored)
        for epoch in ("2025-01-07T00:00:00Z", "2025-01-06T01:00:00+01:00"):
            capsys.readouterr()
            assert run(*self.eval_args(dataset, scored), "--epoch", epoch) == EXIT_USAGE
            assert "--epoch" in capsys.readouterr().err
        assert hash_dir(scored) == before

    @pytest.mark.parametrize("bad_line", ["garbage line", "resolved_epoch = yesterday"])
    def test_damaged_score_record_exit_data(self, dataset, tmp_path, capsys, bad_line):
        """`eval` reads its epoch from `run_config_score.txt`, so a line there
        that is not key = value, or a resolved_epoch that is no instant, is
        a data error naming the file and the line."""
        out = tmp_path / "out"
        self.prepare(dataset, out)
        record = out / "run_config_score.txt"
        lines = [ln for ln in record.read_text().splitlines()
                 if not ln.startswith("resolved_epoch")] + [bad_line]
        record.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(*self.eval_args(dataset, out)) == EXIT_DATA
        assert f"{record}:{len(lines)}:" in capsys.readouterr().err
        assert not (out / "report.tsv").exists()

    def test_r_squared_consistency(self, dataset, tmp_path):
        out = tmp_path / "out"
        self.prepare(dataset, out)
        run(*self.eval_args(dataset, out))
        for line in (out / "report.tsv").read_text().splitlines()[1:]:
            parts = line.split("\t")
            r, r2 = float(parts[2]), float(parts[3])
            # both columns round to 12 significant digits independently
            assert r2 == pytest.approx(r * r, abs=5e-12)


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zeta = 0\nmass-mode = ln_followers\n")
        out1 = tmp_path / "o1"
        assert run(*score_args(dataset, out1), "--config", cfg) == EXIT_OK
        text = (out1 / "run_config_score.txt").read_text()
        assert "mass_mode = ln_followers" in text
        assert "resolved_zeta = 0.0" in text
        out2 = tmp_path / "o2"
        assert run(*score_args(dataset, out2), "--config", cfg,
                   "--mass-mode", "raw_followers") == EXIT_OK
        assert "mass_mode = raw_followers" in (out2 / "run_config_score.txt").read_text()

    def test_bad_config_line_exit_usage(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert run(*score_args(dataset, tmp_path / "o"), "--config", cfg) == EXIT_USAGE

    @pytest.mark.parametrize("spelling", ["--config=FILE", "--conf FILE"])
    def test_every_spelling_of_config_is_read(self, scored, tmp_path, capsys, spelling):
        """argparse takes `--config=FILE` and the prefix `--conf` as `--config`;
        the file is applied, and checked, whichever spelling names it."""
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(scored / "snapshots.tsv", out)
        cfg = tmp_path / "trend.cfg"
        flag = [f"--config={cfg}"] if spelling == "--config=FILE" else ["--conf", cfg]

        def trend(*extra):
            capsys.readouterr()
            code = run("trend", "--out", out, "--week", "1", *extra)
            captured = capsys.readouterr()
            return code, captured.out.splitlines()[:-1], captured.err

        code, rows, _ = trend()
        assert code == EXIT_OK and len(rows) > 1
        cfg.write_text("top_k = 1\n")
        code, rows, _ = trend(*flag)
        assert code == EXIT_OK and len(rows) == 1
        cfg.write_text("bogus_key = 1\n")
        code, _, err = trend(*flag)
        assert code == EXIT_USAGE and "bogus_key" in err

    def test_config_without_path_exit_usage(self, tmp_path, capsys):
        assert run("synth", "--out", tmp_path / "o", "--config") == EXIT_USAGE
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_key_exit_usage(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("users = 20\ncelebrity_follow_boost = 0\n")
        assert run("synth", "--config", cfg, "--out", tmp_path / "o") == EXIT_USAGE
        assert "celebrity_follow_boost" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, key", [("centrality", "algorithm"),
                                              ("eval", "quartile_rule")])
    def test_value_outside_choices_exit_usage(self, dataset, scored, tmp_path, monkeypatch,
                                              capsys, command, key):
        """A --config value is held to its flag's choices before any read."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = foo\n")
        fresh = tmp_path / "o"
        argv = {"centrality": ("centrality", "--edges", dataset / "edges.tsv", "--out", fresh),
                "eval": TestEval().eval_args(dataset, scored)}[command]
        before = hash_dir(scored)
        assert_rejected_before_any_read(monkeypatch, capsys, (*argv, "--config", cfg),
                                        f"{key} = foo")
        assert hash_dir(scored) == before
        assert not fresh.exists()

    def test_burst_key_is_one_burst_and_flags_add_to_it(self, tmp_path):
        """A file's ``burst`` acts as one --burst flag, and each --burst
        flag on the command line adds one more."""
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("burst = u00001:0:10:2.0\n")
        synth = ("synth", "--seed", 3, "--users", 30, "--hours", 48)
        second = ("--burst", "u00002:0:5:1.0")
        runs = {"file": ("--config", cfg), "flag": ("--burst", "u00001:0:10:2.0"),
                "file+flag": ("--config", cfg, *second),
                "flags": ("--burst", "u00001:0:10:2.0", *second)}
        for name, flags in runs.items():
            assert run(*synth, *flags, "--out", tmp_path / name) == EXIT_OK
        for a, b in (("file", "flag"), ("file+flag", "flags")):
            assert hash_dir(tmp_path / a, skip={"run_config_synth.txt"}) == \
                hash_dir(tmp_path / b, skip={"run_config_synth.txt"})
        bursts = "burst = ['u00001:0:10:2.0', 'u00002:0:5:1.0']\n"
        assert bursts in (tmp_path / "file+flag" / "run_config_synth.txt").read_text()
        assert hash_dir(tmp_path / "file") != hash_dir(tmp_path / "flags")

    def test_other_commands_keys_allowed(self, tmp_path):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_text("users = 20\nhours = 24\nzeta = 0\nmax-iter = 50\n")
        assert run("synth", "--config", cfg, "--out", tmp_path / "o") == EXIT_OK
        assert "users = 20\n" in (tmp_path / "o" / "run_config_synth.txt").read_text()


class TestSynthCommand:
    def test_generates_dataset(self, tmp_path):
        out = tmp_path / "synth"
        code = run("synth", "--seed", 3, "--users", 30, "--hours", 48,
                   "--urls", 10, "--out", out)
        assert code == EXIT_OK
        for name in ("events.ndjson", "edges.tsv", "clicks.tsv", "manifest.json"):
            assert (out / name).is_file()

    def test_burst_flag(self, tmp_path):
        out = tmp_path / "synth"
        code = run("synth", "--seed", 3, "--users", 30, "--hours", 48,
                   "--burst", "u00002:0:10:3.0", "--out", out)
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert sum(manifest["mention_counts"]["u00002"].values()) >= 30

    def test_bad_burst_spec(self, tmp_path):
        assert run("synth", "--burst", "nope", "--out", tmp_path) == EXIT_USAGE

    def test_invalid_config_exit_usage(self, tmp_path):
        assert run("synth", "--users", 0, "--out", tmp_path) == EXIT_USAGE

    @pytest.mark.parametrize("flags, named", [
        (("--signal", "nan", "--urls", 5), "signal"),
        (("--click-noise", "nan", "--urls", 5), "click_noise"),
        (("--base-click-prob", "inf", "--urls", 5), "base_click_prob"),
        (("--base-mention-rate", "nan"), "base_mention_rate"),
        (("--base-mention-rate", "inf"), "base_mention_rate"),
        (("--burst", "u00001:0:10:nan"), "invalid burst"),
        (("--burst", "nobody:0:10:1.0"), "burst user 'nobody'"),
    ])
    def test_bad_value_exit_usage_writes_nothing(self, tmp_path, capsys, flags, named):
        assert run("synth", "--users", 20, "--hours", 24, *flags,
                   "--out", tmp_path / "o") == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--follows-per-user", "--urls", "--spam-cluster-size"])
    def test_negative_count_exit_usage(self, tmp_path, capsys, flag):
        assert run("synth", "--users", 20, "--hours", 24, flag, -3,
                   "--out", tmp_path / "o") == EXIT_USAGE
        assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_readme_cli_flags_are_options():
    """Every --flag in the README's CLI block is an option of the command it
    follows, so a removed flag cannot linger in the docs."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    _, commands = cli.build_parser()
    seen = set()
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        assert words[:1] == ["veloscore"] and words[1] in commands, line
        options = {s for a in commands[words[1]]._actions for s in a.option_strings}
        for word in words[2:]:
            if word.startswith("--"):
                assert word.split("=", 1)[0] in options, f"{word} is no option of {words[1]}"
                seen.add(words[1])
    assert seen == set(commands)


def test_readme_algorithm_choices_are_the_table():
    """The README lists `--algorithm`'s choices in the order of `SCORERS`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("`--algorithm` takes ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == ["all", *SCORERS]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["synth", "score", "centrality"])
def test_out_that_cannot_be_a_directory_exit_usage(dataset, tmp_path, capsys, command, below):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker
    argv = {"synth": ("synth", "--users", 20, "--hours", 24),
            "score": score_args(dataset, out)[:-2],
            "centrality": ("centrality", "--edges", dataset / "edges.tsv",
                           "--algorithm", "pagerank")}[command]
    capsys.readouterr()
    assert run(*argv, "--out", out) == EXIT_USAGE
    assert f"--out {out} cannot be a directory" in capsys.readouterr().err
    assert blocker.read_text() == "kept\n"


def test_unknown_command_exit_usage():
    assert run("conjure") == EXIT_USAGE
