import gc
import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_record
from echonet.graph import (
    RetweetGraph,
    build_retweet_graph,
    classify_roles,
    degree_histogram,
    degree_summary,
    node_degrees,
    symmetrize,
)
from echonet.records import RecordTable
import oracles
from oracles import moments, named


def retweet(i, src, dst):
    return make_record(f"t{i}", src, retweet_of=dst)


def graph_from_events(events):
    return build_retweet_graph(
        RecordTable.from_records(retweet(i, u, v) for i, (u, v) in enumerate(events))
    )


def random_digraph(rng, n_users, n_events):
    users = [f"u{i}" for i in range(n_users)]
    events = []
    while len(events) < n_events:
        u, v = rng.choice(users), rng.choice(users)
        if u != v:
            events.append((u, v))
    return graph_from_events(events), events


def test_build_basic():
    g = graph_from_events([("a", "b"), ("a", "b"), ("b", "a")])
    assert named(g).edges == {("a", "b"): 2, ("b", "a"): 1}
    assert g.nodes == ["a", "b"]


def test_build_isolated_nodes():
    g = build_retweet_graph(RecordTable.from_records(make_record(str(i), f"u{i}")
                                                     for i in range(5)))
    assert len(g.nodes) == 5
    assert named(g).edges == {}


def test_build_drops_self_retweets():
    g = graph_from_events([("a", "a"), ("a", "b")])
    assert named(g).edges == {("a", "b"): 1}


def test_build_weight_recount_oracle():
    rng = random.Random(3)
    g, events = random_digraph(rng, 1000, 100_000)
    expected = Counter(events)
    assert named(g).edges == dict(expected)
    assert g.nodes == sorted({u for pair in events for u in pair})


def test_degree_summary_single_edge():
    g = graph_from_events([("u", "v")] * 3)
    summary = degree_summary(node_degrees(g))
    assert summary.out_weighted.max == 3
    assert summary.out_unweighted.max == 1
    assert summary.in_weighted.max == 3
    assert summary.out_weighted.mean == summary.in_weighted.mean == 1.5
    assert summary.unique_edge_count == 1
    assert summary.weighted_edge_sum == 3


def test_degree_summary_empty_graph():
    with pytest.raises(ValueError):
        degree_summary(node_degrees(RetweetGraph()))


def test_degree_summary_schema_fields():
    g = graph_from_events([("a", "b")])
    d = degree_summary(node_degrees(g)).to_dict()
    assert set(d) == {
        "node_count",
        "unique_edge_count",
        "weighted_edge_sum",
        "weighted",
        "unweighted",
    }
    for weighting in ("weighted", "unweighted"):
        for direction in ("out", "in"):
            assert set(d[weighting][direction]) == {"min", "max", "mean", "variance", "skew"}


def test_degree_summary_moment_oracle():
    rng = random.Random(17)
    g, events = random_digraph(rng, 50, 600)
    summary = degree_summary(node_degrees(g))
    # brute-force degree vectors straight from the event list
    nodes = sorted(g.nodes)
    out_w = [sum(1 for u, v in events if u == n) for n in nodes]
    in_w = [sum(1 for u, v in events if v == n) for n in nodes]
    out_u = [len({v for u, v in events if u == n}) for n in nodes]
    in_u = [len({u for u, v in events if v == n}) for n in nodes]
    for stats, vec in (
        (summary.out_weighted, out_w),
        (summary.in_weighted, in_w),
        (summary.out_unweighted, out_u),
        (summary.in_unweighted, in_u),
    ):
        mn, mx, mean, var, skew = moments(vec)
        assert stats.min == mn and stats.max == mx
        assert stats.mean == pytest.approx(mean, abs=1e-12)
        assert stats.variance == pytest.approx(var, rel=1e-12)
        assert stats.skew == pytest.approx(skew, rel=1e-9)


def test_handshake_invariant():
    rng = random.Random(23)
    for _ in range(50):
        g, _ = random_digraph(rng, rng.randint(2, 60), rng.randint(1, 500))
        s = degree_summary(node_degrees(g))
        assert s.out_weighted.mean == s.in_weighted.mean
        assert s.out_unweighted.mean == s.in_unweighted.mean
        assert s.out_unweighted.mean == s.unique_edge_count / s.node_count


def test_degree_summary_relabel_invariant():
    rng = random.Random(5)
    g, events = random_digraph(rng, 20, 100)
    relabeled = graph_from_events([(f"x_{u}", f"x_{v}") for u, v in events])
    a, b = degree_summary(node_degrees(g)), degree_summary(node_degrees(relabeled))
    assert a == b


def test_degree_histogram_counts():
    g = graph_from_events([("a", "b"), ("a", "b"), ("c", "b")])
    rows = degree_histogram(node_degrees(g))
    weighted = {(deg): (o, i) for w, deg, o, i in rows if w == "weighted"}
    # out degrees: a=2, b=0, c=1; in degrees: a=0, b=3, c=0
    assert weighted[0] == (1, 2)
    assert weighted[2] == (1, 0)
    assert weighted[3] == (0, 1)


def role_rows(g, tau):
    """The roles.csv rows of `g`: (user, in_deg, out_deg, score, label)."""
    return list(classify_roles(node_degrees(g), tau))


def test_classify_roles_extremes():
    g = graph_from_events([("x", "p")] * 10)  # p retweeted 10 times
    roles = {user: (score, label) for user, _, _, score, label in role_rows(g, 0.5)}
    assert roles["p"] == (1.0, "producer")
    assert roles["x"] == (-1.0, "distributor")


def test_classify_roles_balanced():
    g = graph_from_events([("a", "b")] * 4 + [("b", "a")] * 4)
    for _, _, _, score, label in role_rows(g, 0.9):
        assert score == 0.0 and label == "mixed"


def test_classify_roles_tau_domain():
    g = graph_from_events([("a", "b")])
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            classify_roles(node_degrees(g), bad)


def test_classify_roles_ordering():
    g = graph_from_events([("a", "b"), ("a", "c"), ("c", "b")])
    roles = role_rows(g, 0.5)
    scores = [abs(score) for _, _, _, score, _ in roles]
    assert scores == sorted(scores, reverse=True)
    for r1, r2 in zip(roles, roles[1:]):
        if abs(r1[3]) == abs(r2[3]):
            assert r1[0] < r2[0]


def test_classify_roles_transpose_negates():
    rng = random.Random(9)
    g, events = random_digraph(rng, 15, 80)
    transposed = graph_from_events([(v, u) for u, v in events])
    fwd = {user: (score, label) for user, _, _, score, label in role_rows(g, 0.5)}
    rev = {user: (score, label) for user, _, _, score, label in role_rows(transposed, 0.5)}
    swap = {"producer": "distributor", "distributor": "producer", "mixed": "mixed"}
    for user, (score, label) in fwd.items():
        assert score == pytest.approx(-rev[user][0])
        assert rev[user][1] == swap[label]


def test_symmetrize_sums_both_directions():
    g = graph_from_events([("u", "v")] + [("v", "u")] * 4)
    ug = symmetrize(g, 1)
    assert named(ug).edges == {("u", "v"): 5}


def test_symmetrize_threshold_keeps_nodes():
    g = graph_from_events([("u", "v"), ("u", "v")])
    ug = symmetrize(g, 3)
    assert named(ug).edges == {}
    assert ug.nodes == ["u", "v"]


def test_symmetrize_min_weight_domain():
    with pytest.raises(ValueError):
        symmetrize(RetweetGraph(), 0)


def test_symmetrize_quadratic_oracle():
    rng = random.Random(41)
    g, _ = random_digraph(rng, 80, 800)
    ug = named(symmetrize(g, 1))
    directed = named(g).edges
    nodes = sorted(g.nodes)
    for u, v in itertools.combinations(nodes, 2):
        total = directed.get((u, v), 0) + directed.get((v, u), 0)
        if total >= 1:
            assert ug.edges[(u, v)] == total
            assert ug.edges[(u, v)] >= max(
                directed.get((u, v), 0), directed.get((v, u), 0)
            )
        else:
            assert (u, v) not in ug.edges


def weighted_degrees(g):
    """(out, in) weighted degree maps over all nodes."""
    d = node_degrees(g)
    return (dict(zip(d.nodes, d.out_weighted.tolist())),
            dict(zip(d.nodes, d.in_weighted.tolist())))


@given(st.integers(0, 2**31))
def test_one_retweet_increments_one_degree(seed):
    rng = random.Random(seed)
    g, events = random_digraph(rng, 8, 20)
    u, v = "u0", "u1"
    g2, _ = random_digraph(random.Random(seed), 8, 20)
    g2 = graph_from_events(events + [(u, v)])
    out1, in1 = weighted_degrees(g)
    out2, in2 = weighted_degrees(g2)
    assert out2[u] == out1.get(u, 0) + 1
    assert in2[v] == in1.get(v, 0) + 1
    assert sum(out2.values()) == sum(out1.values()) + 1


# ids that a CSV writer must quote, or that sort before and after plain ones
_IDS = ["u1", "u2", "u10", "a,b", 'q"x', " lead", "Ünï", "z z", "#h", "u1,"]


def test_degree_reports_and_symmetrize_equal_the_dict_based_oracles():
    rng = random.Random(2026)
    for trial in range(200):
        users = rng.sample(_IDS, rng.randint(1, len(_IDS)))
        records = []
        for i in range(rng.randint(0, 40)):
            u, v = rng.choice(users), rng.choice(users)
            records.append(make_record(f"t{i}", u, retweet_of=v if rng.random() < 0.8 else None))
        # a user whose only record is a self-retweet is a node of degree 0
        records.append(make_record("self", f"solo{trial % 3}", retweet_of=f"solo{trial % 3}"))
        g = build_retweet_graph(RecordTable.from_records(records))
        by_name = named(g)
        tau = rng.choice([0.1, 0.5, 1.0, 1])
        degrees = node_degrees(g)
        assert degree_summary(degrees) == oracles.degree_summary(by_name), trial
        assert (json.dumps(degree_summary(degrees).to_dict())
                == json.dumps(oracles.degree_summary(by_name).to_dict()))
        hist = degree_histogram(degrees)
        assert [tuple(map(repr, row)) for row in hist] == [
            tuple(map(repr, row)) for row in oracles.degree_histogram(by_name)], trial
        roles = list(classify_roles(degrees, tau))
        assert [tuple(map(repr, row)) for row in roles] == [
            tuple(map(repr, row)) for row in oracles.classify_roles(by_name, tau)], trial
        for min_weight in (1, 2, 3):
            ug, want = symmetrize(g, min_weight), oracles.symmetrize(by_name, min_weight)
            assert named(ug) == want, (trial, min_weight)


def test_degree_reports_of_a_graph_without_nodes():
    empty = RetweetGraph()
    degrees = node_degrees(empty)
    assert degree_histogram(degrees) == oracles.degree_histogram(named(empty)) == []
    assert list(classify_roles(degrees, 0.5)) == []
    assert oracles.classify_roles(named(empty), 0.5) == []


def test_graph_stage_holds_under_40_bytes_per_retweet_event():
    """A memory guard, like the table's in `tests/test_records.py`. 20,000
    seeded retweets among 2,000 users, their targets drawn with weights
    1/rank, so that some pairs repeat and some return. What
    `build_retweet_graph`, `symmetrize` and `node_degrees` keep must stay under
    40 bytes per retweet event as tracemalloc counts it, and their peak under
    72. One key array per graph keeps about 33 and peaks at about 53; an
    (m, 2) pair array per graph and `np.unique`'s inverse in `symmetrize`
    kept about 48 and peaked at about 82."""
    rng = random.Random(22)
    users = [str(rng.randrange(10**9, 10**10)) for _ in range(2000)]
    targets = rng.choices(users, weights=[1 / rank for rank in range(1, 2001)], k=22_000)
    events = [(u, v) for u, v in zip(rng.choices(users, k=len(targets)), targets) if u != v]
    table = RecordTable.from_records(
        retweet(i, u, v) for i, (u, v) in enumerate(events[:20_000]))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_retweet_graph(table)
        ug = symmetrize(g, 1)
        degrees = node_degrees(g)
        held, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert int(g.weights.sum()) == len(table) == 20_000
    assert len(ug.keys) < len(g.keys) and len(degrees.nodes) == 2000
    assert held / len(table) < 40, held / len(table)
    assert peak / len(table) < 72, peak / len(table)
