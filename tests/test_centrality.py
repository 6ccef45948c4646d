"""Centrality scorers checked against independent dense iterations."""

import itertools
import json
import random
import tracemalloc
from array import array
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_oracles import (dense_ip, dense_pagerank, dense_tunkrank, graph_from_adj,
                           graph_from_edges, reference_retweet_graph, rg_from_matrix)
from veloscore import kernels
from veloscore.centrality import (
    DEFAULT_TOL,
    RetweetGraph,
    build_retweet_graph,
    followers_score,
    influence_passivity,
    pagerank,
    ratio_score,
    tunkrank,
)
from veloscore.ingest import EventDecoder, StreamDigest, UserGraph

EPOCH = datetime(2025, 1, 6, tzinfo=timezone.utc)


class TestPagerank:
    def test_mutual_pair_symmetric(self):
        g = graph_from_edges({("a", "b"), ("b", "a")})
        sv = pagerank(g)
        assert sv.get("a") == pytest.approx(0.5, abs=1e-9)
        assert sv.get("b") == pytest.approx(0.5, abs=1e-9)

    def test_single_isolated_node(self):
        g = graph_from_edges(set(), overrides={"solo": 0})
        sv = pagerank(g)
        assert sv.get("solo") == pytest.approx(1.0, abs=1e-12)

    def test_star_matches_dense_oracle(self):
        n = 8
        adj = np.zeros((n, n), dtype=int)
        adj[1:, 0] = 1  # everyone follows the hub
        g = graph_from_adj(adj)
        sv = pagerank(g, damping=0.85, tol=0.0, max_iter=50)
        expected = dense_pagerank(adj, 0.85, 0.0, 50)
        got = np.array([sv.get(f"u{i}") for i in range(n)])
        assert np.abs(got - expected).max() < 1e-12

    def test_sums_to_one_every_iteration(self):
        g = graph_from_edges({("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")})
        for iters in range(1, 12):
            sv = pagerank(g, max_iter=iters, tol=0.0)
            assert np.sum(sv.values) == pytest.approx(1.0, abs=1e-9)

    def test_residual_monotone_after_burn_in(self):
        rng = np.random.default_rng(3)
        adj = (rng.random((12, 12)) < 0.25).astype(int)
        np.fill_diagonal(adj, 0)
        sv = pagerank(graph_from_adj(adj), tol=0.0, max_iter=60)
        hist = sv.residual_history
        assert all(hist[i + 1] <= hist[i] + 1e-15 for i in range(2, len(hist) - 1))

    def test_exhaustive_three_node_graphs(self):
        slots = [(i, j) for i in range(3) for j in range(3) if i != j]
        for bits in itertools.product([0, 1], repeat=6):
            adj = np.zeros((3, 3), dtype=int)
            for (i, j), b in zip(slots, bits):
                adj[i, j] = b
            sv = pagerank(graph_from_adj(adj), tol=1e-12, max_iter=500)
            expected = dense_pagerank(adj, 0.85, 1e-12, 500)
            got = np.array([sv.get(f"u{i}") for i in range(3)])
            assert np.abs(got - expected).max() < 1e-6
            assert abs(np.sum(sv.values) - 1.0) < 1e-9

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            pagerank(graph_from_edges(set()))

    def test_damping_validated(self):
        g = graph_from_edges({("a", "b")})
        with pytest.raises(ValueError):
            pagerank(g, damping=1.5)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(8)
        adj = (rng.random((7, 7)) < 0.3).astype(int)
        np.fill_diagonal(adj, 0)
        names = [f"u{i}" for i in range(7)]
        renamed = {u: f"z{6 - i}" for i, u in enumerate(names)}
        g1 = graph_from_adj(adj)
        pairs2 = {(renamed[a], renamed[b])
                  for a, b in ((names[i], names[j]) for i in range(7) for j in range(7)
                               if adj[i, j])}
        g2 = graph_from_edges(pairs2, overrides={renamed[u]: 0 for u in names})
        sv1 = pagerank(g1)
        sv2 = pagerank(g2)
        for u in names:
            assert sv2.get(renamed[u]) == pytest.approx(sv1.get(u), abs=1e-12)


class TestTunkrank:
    def test_two_node_chain_p_zero(self):
        g = graph_from_edges({("b", "a")})
        sv = tunkrank(g, retweet_prob=0.0)
        assert sv.get("a") == pytest.approx(1.0)
        assert sv.get("b") == 0.0

    def test_no_followers_floor(self):
        g = graph_from_edges({("b", "a"), ("c", "a")})
        sv = tunkrank(g)
        assert sv.get("b") == 0.0
        assert sv.get("c") == 0.0

    def test_five_node_fixture_matches_dense(self):
        adj = np.array([
            [0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0],
            [1, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0],
        ])
        sv = tunkrank(graph_from_adj(adj), retweet_prob=0.05, tol=0.0, max_iter=1000)
        expected = dense_tunkrank(adj, 0.05, 0.0, 1000)
        got = np.array([sv.get(f"u{i}") for i in range(5)])
        assert np.abs(got - expected).max() < 1e-9

    def test_retweet_prob_validated(self):
        g = graph_from_edges({("a", "b")})
        with pytest.raises(ValueError):
            tunkrank(g, retweet_prob=1.5)

    def test_no_edges_scores_are_float_zeros(self):
        g = UserGraph(["a", "b", "c"], array("q"), array("q", [0, 0, 0]))
        sv = tunkrank(g)
        assert [type(v) for v in sv.values] == [type(v) for v in pagerank(g).values] == [float] * 3
        assert sv.values == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("scorer", [pagerank, tunkrank])
def test_graph_without_users_rejected(scorer):
    with pytest.raises(ValueError, match=f"{scorer.__name__} needs a non-empty graph"):
        scorer(UserGraph([], array("q"), array("q")))


class TestInfluencePassivity:
    def test_single_edge_total_acceptance(self):
        rg = rg_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.array([[0, 1], [0, 0]]))
        inf, pas = influence_passivity(rg)
        assert inf.get("u1") == pytest.approx(1.0)
        assert inf.get("u0") == 0.0
        assert pas.get("u0") == 0.0
        assert pas.get("u1") == 0.0

    def test_symmetric_cycle_equal_scores(self):
        w = np.array([[0.0, 0.4], [0.4, 0.0]])
        mask = np.array([[0, 1], [1, 0]])
        inf, pas = influence_passivity(rg_from_matrix(w, mask))
        assert inf.get("u0") == pytest.approx(inf.get("u1"))
        assert pas.get("u0") == pytest.approx(pas.get("u1"))

    def test_four_node_fixture_matches_dense_brute_force(self):
        mask = np.array([
            [0, 1, 1, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 1],
            [0, 1, 0, 0],
        ])
        w = np.array([
            [0.0, 0.2, 0.5, 0.0],
            [0.0, 0.0, 0.9, 0.3],
            [0.6, 0.0, 0.0, 0.7],
            [0.0, 0.1, 0.0, 0.0],
        ])
        inf, pas = influence_passivity(rg_from_matrix(w, mask), tol=0.0, max_iter=10000)
        e_inf, e_pas = dense_ip(w, mask, 0.0, 10000)
        for i in range(4):
            assert inf.get(f"u{i}") == pytest.approx(e_inf[i], abs=1e-9)
            assert pas.get(f"u{i}") == pytest.approx(e_pas[i], abs=1e-9)

    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(
        st.lists(st.booleans(), min_size=n * n, max_size=n * n),
        st.lists(st.floats(0.01, 1.0), min_size=n * n, max_size=n * n))))
    @settings(max_examples=200, deadline=None)
    def test_both_vectors_sum_to_one(self, graph):
        """Influence and passivity are each L1-normalized, on any retweet
        graph, disconnected ones included, with an edge weight below 1 (with
        every weight 1 nothing is rejected and passivity stays zero)."""
        mask_bits, weight_bits = graph
        n = int(len(mask_bits) ** 0.5)
        mask = np.array(mask_bits).reshape(n, n)
        np.fill_diagonal(mask, False)
        weight = np.where(mask, np.array(weight_bits).reshape(n, n), 0.0)
        assume(mask.any() and (weight[mask] < 1.0).any())
        inf, pas = influence_passivity(rg_from_matrix(weight, mask))
        for sv in (inf, pas):
            assert abs(np.sum(sv.values) - 1.0) <= 1e-12
            assert len(sv.residual_history) == sv.iterations

    def test_empty_retweet_graph_rejected(self):
        rg = RetweetGraph([], np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int64), np.empty(0))
        with pytest.raises(ValueError):
            influence_passivity(rg)


# each iterative scorer on a small graph, called with only iteration keywords
SCORERS = {
    "pagerank": lambda **kw: pagerank(graph_from_edges({("a", "b"), ("b", "c")}), **kw),
    "tunkrank": lambda **kw: tunkrank(graph_from_edges({("a", "b"), ("b", "c")}), **kw),
    "influence_passivity": lambda **kw: influence_passivity(
        rg_from_matrix(np.array([[0.0, 0.4], [0.0, 0.0]]), np.array([[0, 1], [0, 0]])), **kw),
}


@pytest.mark.parametrize("scorer", sorted(SCORERS))
@pytest.mark.parametrize("name, value", [("max_iter", 0), ("max_iter", -3), ("tol", -1e-9),
                                         ("tol", float("nan")), ("tol", float("inf"))])
def test_iteration_budget_validated(scorer, name, value):
    with pytest.raises(ValueError, match=name):
        SCORERS[scorer](**{name: value})


@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_one_iteration_and_zero_tol_accepted(scorer):
    result = SCORERS[scorer](max_iter=1, tol=0.0)
    for sv in result if isinstance(result, tuple) else (result,):
        assert sv.iterations == 1 and not sv.converged


@pytest.mark.parametrize("scorer", sorted(SCORERS))
@pytest.mark.parametrize("budget, converges", [({}, True), ({"max_iter": 1, "tol": 0.0}, False)],
                         ids=["converging", "unconverging"])
def test_convergence_record_matches_residual_history(scorer, budget, converges):
    result = SCORERS[scorer](**budget)
    tol = budget.get("tol", DEFAULT_TOL)
    for sv in result if isinstance(result, tuple) else (result,):
        assert sv.iterations == len(sv.residual_history)
        assert sv.residual == sv.residual_history[-1]
        assert sv.converged == (sv.residual <= tol) == converges


def follow_graph(users, followers, per_follower, seed):
    """The first ``followers`` of ``users`` names each follow ``per_follower``
    others drawn from the first nine tenths, and one of them follows all of
    those: the rest follow nobody, and the last tenth has no follower."""
    rng = random.Random(seed)
    names = [f"u{i:05d}" for i in range(users)]
    followed = names[:users * 9 // 10]
    pairs = {(a, b) for a in names[:followers] for b in rng.sample(followed, per_follower)}
    pairs |= {(names[1], b) for b in followed}
    return graph_from_edges({(a, b) for a, b in pairs if a != b},
                            overrides={u: 0 for u in names[users * 9 // 10:]})


EDGE_SUM_GRAPHS = {
    "past-one-chunk": lambda: follow_graph(1200, 800, 90, 4),
    "small": lambda: follow_graph(120, 60, 12, 5),
    "edgeless": lambda: graph_from_edges(set(), overrides={"a": 0, "b": 0, "c": 0}),
}


def bincount_edge_sum(values, offsets, dst, n):
    """The edge sum through one weights array of every edge.  With no edge,
    ``np.bincount`` gives int64 zeros."""
    return np.bincount(dst, weights=np.repeat(values, np.diff(offsets)), minlength=n)


@pytest.mark.parametrize("graph, chunk", [("past-one-chunk", kernels._CHUNK),
                                          ("small", 1), ("small", 7), ("small", 64),
                                          ("edgeless", kernels._CHUNK)])
def test_chunked_edge_sum_gives_bincount_bits(monkeypatch, graph, chunk):
    """PageRank and TunkRank give the same bits with the chunked edge sum as
    with one ``np.bincount`` over every edge: the chunks add in edge order
    into one output, whatever the chunk size and wherever a follower's run
    of edges is cut."""
    g = EDGE_SUM_GRAPHS[graph]()
    if graph == "past-one-chunk":
        assert g.edge_count > chunk
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    chunked = [pagerank(g), tunkrank(g)]
    monkeypatch.setattr(kernels, "edge_sum", bincount_edge_sum)
    for got, want in zip(chunked, [pagerank(g), tunkrank(g)]):
        assert np.array(got.values).tobytes() == np.array(want.values).tobytes()
        assert got.residual_history == want.residual_history


RT_USERS = ["a", "b", "c", "d"]
OFF_GRAPH = ["Z", "ghost"]  # "Z" sorts before every graph user, "ghost" among them


def make_event(author, text, hour=0):
    return EventDecoder().decode(json.dumps({
        "id": "e", "author": author,
        "ts": (EPOCH + timedelta(hours=hour)).isoformat(), "text": text,
    }))


class TestBuildRetweetGraph:
    def test_rate_over_authored_events(self):
        g = graph_from_edges({("i", "j")})
        events = [make_event("i", "RT @j: post") for _ in range(3)]
        events += [make_event("j", f"post {k}") for k in range(10)]
        rg = build_retweet_graph(StreamDigest.of(events), g)
        assert rg.edge_count == 1
        assert rg.weights[0] == pytest.approx(0.3)

    def test_non_follower_dropped(self):
        g = graph_from_edges({("x", "j")})
        events = [make_event("i", "RT @j: post"), make_event("j", "post")]
        rg = build_retweet_graph(StreamDigest.of(events), g)
        assert rg.edge_count == 0
        assert rg.dropped_no_follow == 1

    def test_no_authored_events_no_edge(self):
        g = graph_from_edges({("i", "j")})
        rg = build_retweet_graph(StreamDigest.of([make_event("i", "RT @j: old post")]), g)
        assert rg.edge_count == 0

    def test_matches_pair_set_reference(self):
        rng = random.Random(3)
        names = [f"u{i}" for i in range(8)]
        follows = {(a, b) for a, b in ((rng.choice(names), rng.choice(names))
                                      for _ in range(25)) if a != b}
        g = graph_from_edges(follows)
        events = [make_event(rng.choice(names + ["stranger"]),
                             f"RT @{rng.choice(names + ['ghost'])}: x"
                             if rng.random() < 0.6 else "post")
                  for _ in range(300)]
        rg = build_retweet_graph(StreamDigest.of(events), g)
        authored = Counter(e.author for e in events)
        retweets = Counter((e.author, e.retweet_of) for e in events if e.retweet_of)
        expected = {pair: min(1.0, c / authored[pair[1]]) for pair, c in retweets.items()
                    if pair in follows and authored[pair[1]]}
        got = {(rg.users[s], rg.users[d]): w for s, d, w in zip(rg.src, rg.dst, rg.weights)}
        assert got == expected
        assert rg.dropped_no_follow == sum(1 for pair in retweets if pair not in follows)

    @given(follows=st.sets(st.tuples(st.sampled_from(RT_USERS), st.sampled_from(RT_USERS))),
           override_only=st.sets(st.sampled_from(RT_USERS)),
           retweets=st.dictionaries(st.tuples(st.sampled_from(RT_USERS + OFF_GRAPH),
                                              st.sampled_from(RT_USERS + OFF_GRAPH)),
                                    st.integers(1, 9), max_size=16),
           authored=st.dictionaries(st.sampled_from(RT_USERS + OFF_GRAPH), st.integers(0, 4)))
    # only override users and no edge
    @example(follows=set(), override_only={"a", "b"}, retweets={("a", "b"): 1},
             authored={"b": 1})
    # b -> a is keyed past the last follow edge, a -> b
    @example(follows={("a", "b")}, override_only=set(), retweets={("b", "a"): 1, ("a", "b"): 2},
             authored={"a": 3, "b": 1})
    # users off the graph, on either side of a pair
    @example(follows={("a", "b")}, override_only=set(),
             retweets={("Z", "a"): 1, ("a", "ghost"): 2, ("a", "b"): 1},
             authored={"a": 1, "b": 1, "ghost": 3})
    # a followee with no authored event, and a count above the authored count
    @example(follows={("a", "b"), ("a", "c")}, override_only=set(),
             retweets={("a", "b"): 2, ("a", "c"): 7}, authored={"b": 0, "c": 2})
    # no pair is kept
    @example(follows={("a", "b")}, override_only={"c"},
             retweets={("b", "a"): 2, ("a", "b"): 1, ("c", "a"): 1}, authored={"a": 1})
    @settings(max_examples=300, deadline=None)
    def test_kept_and_dropped_match_set_oracle(self, follows, override_only, retweets,
                                               authored):
        """The kept pairs and weights match a set of name pairs, and every
        field matches the per-pair reference build, weights bit for bit."""
        follows = {(a, b) for a, b in follows if a != b}
        g = graph_from_edges(follows, overrides={u: 0 for u in override_only})
        digest = StreamDigest(authored=dict(authored))
        for (a, b), cnt in retweets.items():
            digest.retweets.setdefault(a, {})[b] = cnt
        rg = build_retweet_graph(digest, g)
        expected = {pair: min(1.0, cnt / authored[pair[1]]) for pair, cnt in retweets.items()
                    if pair in follows and authored.get(pair[1], 0)}
        got = {(rg.users[s], rg.users[d]): w for s, d, w in zip(rg.src, rg.dst, rg.weights)}
        assert got == expected
        assert rg.dropped_no_follow == sum(1 for pair in retweets if pair not in follows)
        ref = reference_retweet_graph(digest, g)
        assert rg.users == ref.users and rg.dropped_no_follow == ref.dropped_no_follow
        for field, want in ((rg.src, ref.src), (rg.dst, ref.dst), (rg.weights, ref.weights)):
            assert field.dtype == want.dtype and field.tobytes() == want.tobytes()
        if not expected:
            with pytest.raises(ValueError, match="no edges"):
                influence_passivity(rg)

    def test_weight_clamped_to_one(self):
        g = graph_from_edges({("i", "j")})
        events = [make_event("i", "RT @j: post") for _ in range(5)]
        events.append(make_event("j", "only post"))
        rg = build_retweet_graph(StreamDigest.of(events), g)
        assert rg.weights[0] == 1.0

    def test_build_memory_per_pair_bounded(self):
        """The build holds a few machine words per retweet pair, not Python
        objects.  On this digest's 63,107 pairs, a build that kept a tuple
        per pair peaked at 301 B a pair under tracemalloc (348 B on the demo
        workload's 17,201 pairs), and the array build at 75 B."""
        rng = random.Random(9)
        names = [f"u{i:04d}" for i in range(600)]
        followees = {a: rng.sample([b for b in names if b != a], 120) for a in names}
        g = graph_from_edges((a, b) for a in names for b in followees[a])
        digest = StreamDigest(authored={u: rng.randint(0, 6) for u in names})
        for a in names:
            digest.retweets[a] = {b: rng.randint(1, 5)
                                  for b in [*followees[a][:100], *rng.sample(names, 5), "ghost"]}
        pairs = sum(map(len, digest.retweets.values()))
        assert pairs >= 50_000
        tracemalloc.start()
        try:
            rg = build_retweet_graph(digest, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < rg.edge_count < pairs
        assert peak / pairs < 160


class TestZeroIterationScorers:
    def test_followers_scorer_is_in_degree(self):
        g = graph_from_edges({("b", "a"), ("c", "a"), ("a", "b")})
        sv = followers_score(g)
        assert sv.get("a") == 2.0
        assert sv.get("b") == 1.0
        assert sv.get("c") == 0.0

    def test_ratio_scorer(self):
        pairs = {(f"f{i}", "u") for i in range(8)} | {("u", f"g{i}") for i in range(4)}
        sv = ratio_score(graph_from_edges(pairs))
        assert sv.get("u") == pytest.approx(2.0)

    def test_ratio_no_followees_stays_finite(self):
        g = graph_from_edges({("b", "a")})
        sv = ratio_score(g)
        assert sv.get("a") == 1.0  # 1 follower / max(0 followees, 1)


def test_spam_cluster_gains_pagerank_not_tunkrank():
    # legit community: heavy attention to a hub; spam: mutual-follow ring
    pairs = set()
    for i in range(30):
        pairs.add((f"u{i:02d}", "hub"))
        pairs.add((f"u{i:02d}", f"u{(i + 1) % 30:02d}"))
    spam = [f"spam{i}" for i in range(5)]
    for a in spam:
        for b in spam:
            if a != b:
                pairs.add((a, b))
    g = graph_from_edges(pairs)
    pr = pagerank(g)
    tr = tunkrank(g)
    pr_spam = sum(pr.get(s) for s in spam)
    tr_spam = sum(tr.get(s) for s in spam)
    assert pr_spam > tr_spam


def test_score_vector_tsv_roundtrip(tmp_path):
    g = graph_from_edges({("b", "a"), ("c", "b")})
    sv = pagerank(g)
    path = tmp_path / "pagerank.tsv"
    sv.write_tsv(path)
    lines = path.read_text().splitlines()
    assert [ln.split("\t")[0] for ln in lines] == sorted(g.users)
    back = type(sv).read_tsv(path, "pagerank")
    for u in g.users:
        assert back.get(u) == pytest.approx(sv.get(u), rel=1e-11)
