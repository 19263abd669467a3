"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line (run with -s to see them live)."""

import functools
import itertools
import json
import math
import random
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import make_record, table_of
from echonet.communities import (
    community_count_sweep,
    detect_communities,
    enumerate_k_cliques,
    maximal_clique_list,
    maximal_cliques,
)
from echonet.config import PipelineConfig
from echonet.graph import RetweetGraph, UndirectedGraph, degree_summary, node_degrees
from echonet.pipeline import run_pipeline
from echonet.profiles import description_term_proportions
from echonet.topics import Document, GibbsSampler, fit_lda
from oracles import brute_force_detect, complete_graph, description_terms, package_graph
from test_topics import collapsed_posterior, gibbs_state_distribution, vocab_of

FIXTURE = str(Path(__file__).parent.parent / "fixtures" / "sample_tweets.jsonl")


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return inner

    return wrap


def random_retweet_graph(rng, max_nodes=500, max_edges=10_000):
    n = rng.randint(2, max_nodes)
    edges = {}
    for _ in range(rng.randint(1, max_edges)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (f"u{u}", f"u{v}")
        edges[key] = edges.get(key, 0) + 1
    return package_graph(RetweetGraph, [f"u{i}" for i in range(n)], edges)


def int_graph(n, edge_pairs):
    return package_graph(
        UndirectedGraph,
        [f"n{i:02d}" for i in range(n)],
        {(f"n{u:02d}", f"n{v:02d}"): 1 for u, v in edge_pairs},
    )


def seeded_eight_node_graphs(count, seed=2024):
    """Random edge subsets over 8 labeled nodes."""
    rng = random.Random(seed)
    all_pairs = list(itertools.combinations(range(8), 2))
    graphs = []
    for _ in range(count):
        p = rng.random()
        pairs = [e for e in all_pairs if rng.random() < p]
        graphs.append((8, pairs))
    return graphs


def seeded_gnp_graphs(count, seed=4048):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(5, 14)
        p = rng.uniform(0.2, 0.7)
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        graphs.append((n, pairs))
    return graphs


def bitmask_k_cliques(n, pairs, k):
    """Exhaustive oracle over all C(n, k) subsets using adjacency bitmasks."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    out = set()
    for combo in itertools.combinations(range(n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if all(adj[v] & mask == mask ^ (1 << v) for v in combo):
            out.add(frozenset(f"n{v:02d}" for v in combo))
    return out


@criterion(1, "unweighted mean degree = unique_edge_count / node_count (1e-9)")
def test_criterion_1_table_arithmetic():
    rng = random.Random(1)
    for _ in range(50):
        g = random_retweet_graph(rng, max_nodes=100, max_edges=1000)
        s = degree_summary(node_degrees(g))
        expected = s["unique_edge_count"] / s["node_count"]
        assert abs(s["unweighted"]["out"]["mean"] - expected) < 1e-9
        assert abs(s["unweighted"]["in"]["mean"] - expected) < 1e-9
    # the published arithmetic is consistent with this identity:
    # 430036 unique edges / 98352 nodes = 4.3724... which rounds to 4.37
    assert round(430036 / 98352, 2) == 4.37


@criterion(2, "handshake: sum(in) = sum(out), weighted and unweighted, 1000 digraphs")
def test_criterion_2_handshake():
    rng = random.Random(2)
    for _ in range(1000):
        g = random_retweet_graph(rng)
        d = node_degrees(g)
        assert d.out_weighted.sum() == d.in_weighted.sum() == g.weights.sum()
        assert d.out_unweighted.sum() == d.in_unweighted.sum() == len(g.keys)
        s = degree_summary(d)
        assert s["weighted"]["out"]["mean"] == s["weighted"]["in"]["mean"]
        assert s["unweighted"]["out"]["mean"] == s["unweighted"]["in"]["mean"]


@criterion(3, "k-clique enumeration matches exhaustive subset oracle, k in 2..6")
def test_criterion_3_clique_oracle():
    for n, pairs in seeded_eight_node_graphs(10_000) + seeded_gnp_graphs(200):
        ug = int_graph(n, pairs)
        for k in range(2, 7):
            got = enumerate_k_cliques(ug, k)
            assert got == bitmask_k_cliques(n, pairs, k)


@criterion(4, "percolation matches brute force (both rules) + standard nesting")
def test_criterion_4_percolation_oracle():
    graphs = seeded_eight_node_graphs(1500, seed=77) + seeded_gnp_graphs(200, seed=78)
    for n, pairs in graphs:
        ug = int_graph(n, pairs)
        covers = {}
        for k in (2, 3, 4, 5):
            for rule in ("standard", "loose"):
                cover = detect_communities(maximal_clique_list(ug), k, rule)
                expected = brute_force_detect(ug, k, rule)
                assert sorted(map(sorted, cover.communities)) == sorted(
                    map(sorted, expected)
                )
                covers[(k, rule)] = cover
        for k in (3, 4, 5):
            for community in covers[(k, "standard")].communities:
                assert any(
                    community <= lower
                    for lower in covers[(k - 1, "standard")].communities
                )


@criterion(5, "worked example: loose merges across the shared node, standard keeps apart")
def test_criterion_5_worked_example():
    pairs = [("v1", "v2"), ("v1", "v3"), ("v2", "v3")]
    k4 = ("v3", "v4", "v5", "v6")
    pairs += [(a, b) for a, b in itertools.combinations(k4, 2)]
    ug = package_graph(UndirectedGraph, (), {p: 1 for p in pairs})
    loose = detect_communities(maximal_clique_list(ug), 3, "loose")
    assert [sorted(c) for c in loose.communities] == [
        ["v1", "v2", "v3", "v4", "v5", "v6"]
    ]
    standard = detect_communities(maximal_clique_list(ug), 3, "standard")
    assert sorted(sorted(c) for c in standard.communities) == [
        ["v1", "v2", "v3"],
        ["v3", "v4", "v5", "v6"],
    ]


@criterion(6, "sweep count 0 beyond max clique size; K12 gives 1 for k=3..12")
def test_criterion_6_sweep_boundary():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(4, 12)
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        ug = int_graph(n, pairs)
        max_clique = max(
            (len(c) for c in maximal_cliques(ug.adjacency())), default=1
        )
        sweep = community_count_sweep(maximal_clique_list(ug), 2, max_clique + 3)
        for k in range(max_clique + 1, max_clique + 4):
            assert sweep.community_counts[k] == 0
    k12 = community_count_sweep(maximal_clique_list(complete_graph(12)), 3, 12)
    assert all(k12.community_counts[k] == 1 for k in range(3, 13))


@criterion(7, "Gibbs stationary distribution within TV 0.05 of exact posterior, 3 seeds")
def test_criterion_7_exact_posterior():
    exact = collapsed_posterior([0, 1, 0], [0, 0, 1], T=2, V=2, alpha=1.0, beta=1.0)
    for seed in (101, 202, 303):
        empirical = gibbs_state_distribution(seed=seed)
        tv = 0.5 * sum(
            abs(exact.get(z, 0.0) - empirical.get(z, 0.0))
            for z in set(exact) | set(empirical)
        )
        assert tv < 0.05, f"seed {seed}: TV {tv:.4f}"


@criterion(8, "count conservation every sweep on 1e4 tokens; same seed bit-identical")
def test_criterion_8_conservation_determinism():
    rng = random.Random(8)
    vocab_size = 200
    corpus = []
    total = 0
    i = 0
    while total < 10_000:
        length = rng.randint(2, 12)
        corpus.append(
            Document(f"d{i}", tuple(rng.randrange(vocab_size) for _ in range(length)))
        )
        total += length
        i += 1
    sampler = GibbsSampler(corpus, vocab_size, 8, 0.5, 0.01, seed=88)
    for _ in range(20):
        sampler.sweep()
        assert sampler.counts_consistent()
        assert sum(sampler.nk) == sampler.token_count
    vocab = vocab_of([f"w{i}" for i in range(vocab_size)])
    a = fit_lda(corpus, vocab, 8, 0.5, 0.01, 10, seed=99)
    b = fit_lda(corpus, vocab, 8, 0.5, 0.01, 10, seed=99)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.topic_word_counts, b.topic_word_counts)
    assert np.array_equal(a.doc_topic_counts, b.doc_topic_counts)


@criterion(9, "2-topic models separate disjoint vocabularies in >= 95/100 seeds")
def test_criterion_9_topic_separation():
    corpus = [Document(f"a{i}", (0, 1)) for i in range(10)] + [
        Document(f"b{i}", (2, 3)) for i in range(10)
    ]
    vocab = vocab_of("ABCD")
    hits = 0
    for seed in range(100):
        model = fit_lda(corpus, vocab, 2, 0.1, 0.01, 200, seed=seed)
        from echonet.topics import topic_keywords

        tops = {
            frozenset(tok for tok, _ in topic)
            for topic in topic_keywords(model, vocab, 2)
        }
        if tops == {frozenset("AB"), frozenset("CD")}:
            hits += 1
    assert hits >= 95, f"separated in only {hits}/100 seeds"


@criterion(10, "1e5-node / 4.3e5-edge pipeline core < 5 min and < 2 GB")
def test_criterion_10_performance_envelope():
    """The core runs in a process of its own, which reports its own peak RSS:
    this process's would also count every test that ran before this one."""
    root = Path(__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "tests" / "criterion_10_core.py")],
                          env=env, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    core = json.loads(proc.stdout.splitlines()[-1])
    assert core["nodes"] == core["node_count"] == 100_000
    assert core["edges"] >= 430_000
    assert core["communities_at_3"] > 0
    elapsed, peak_gb = core["seconds"], core["peak_rss_kb"] / 1024**2
    print(f"  pipeline core: {elapsed:.1f}s, peak RSS {peak_gb:.2f} GB")
    assert elapsed < 300, f"took {elapsed:.1f}s"
    assert peak_gb < 2.0, f"peak RSS {peak_gb:.2f} GB"


@criterion(11, "profile term table matches brute-force recount on 100 fixtures")
def test_criterion_11_profile_recount():
    words = ["maga", "trump", "love", "god", "nra", "proud", "patriot", "q2"]
    for trial in range(100):
        rng = random.Random(1000 + trial)
        records = []
        for i in range(rng.randint(5, 50)):
            records.append(
                make_record(
                    f"t{i}",
                    f"u{rng.randrange(15)}",
                    description=" ".join(
                        rng.choice(words) for _ in range(rng.randint(1, 5))
                    )
                    if rng.random() < 0.8
                    else None,
                    created=f"2018-07-{(i % 28) + 1:02d}T{i % 24:02d}:00:00",
                )
            )
        if all(r.user_description is None for r in records):
            continue
        table = description_term_proportions(table_of(records), frozenset(), 50)
        assert table == description_terms(records, frozenset(), 50)
        # duplication of a user's tweets never changes proportions
        twice = table_of(records * 2)
        assert description_term_proportions(twice, frozenset(), 50) == table


@criterion(12, "running the pipeline twice yields byte-identical data artifacts")
def test_criterion_12_end_to_end_determinism(tmp_path):
    bundles = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        config = PipelineConfig(
            input=FIXTURE,
            outdir=str(outdir),
            k=4,
            n_topics=2,
            iterations=100,
        )
        run_pipeline(config)
        bundles.append(outdir)
    a, b = bundles
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        if name == "manifest.json":
            continue  # carries wall-clock timestamps by design
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
