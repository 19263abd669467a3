import itertools
import random

import pytest

from echonet.communities import (
    CliqueBudgetExceeded,
    community_count_sweep,
    degeneracy_order,
    detect_communities,
    enumerate_k_cliques,
    maximal_clique_list,
    maximal_cliques,
    percolate,
)
from echonet.graph import UndirectedGraph
from oracles import (
    brute_force_degeneracy_order,
    brute_force_detect,
    brute_force_k_cliques,
    complete_graph,
    random_edge_set_graph,
    random_undirected_graph,
)


def ug_from_pairs(pairs, extra_nodes=()):
    edges = {tuple(sorted(p)): 1 for p in pairs}
    nodes = {n for p in pairs for n in p} | set(extra_nodes)
    return UndirectedGraph(nodes=nodes, edges=edges)


def cover_sets(cover):
    return sorted(sorted(c) for c in cover.communities)


def test_k4_all_triangles():
    ug = complete_graph(4)
    cliques = enumerate_k_cliques(ug, 3)
    assert cliques == brute_force_k_cliques(ug.nodes, ug.edges.keys(), 3)
    assert len(cliques) == 4


def test_path_has_no_triangle():
    ug = ug_from_pairs([("a", "b"), ("b", "c")])
    assert enumerate_k_cliques(ug, 3) == set()


def test_enumeration_oracle_random_graph():
    rng = random.Random(77)
    ug = random_undirected_graph(rng, 10, 0.5)
    for k in range(2, 7):
        assert enumerate_k_cliques(ug, k) == brute_force_k_cliques(
            ug.nodes, ug.edges.keys(), k
        )


def test_maximal_cliques_are_maximal():
    rng = random.Random(13)
    ug = random_undirected_graph(rng, 12, 0.4)
    adj = ug.adjacency()
    seen = set()
    for mc in maximal_cliques(adj):
        assert mc not in seen
        seen.add(mc)
        for u in mc:
            for v in mc:
                assert u == v or v in adj[u]
        # no vertex extends the clique
        assert not any(mc <= adj[v] for v in ug.nodes - mc)


def test_enumeration_budget():
    with pytest.raises(CliqueBudgetExceeded):
        enumerate_k_cliques(complete_graph(12), 3, max_cliques=10)


def test_percolate_k5_standard():
    cliques = enumerate_k_cliques(complete_graph(5), 4)
    cover = percolate(cliques, 4, "standard")
    assert cover_sets(cover) == [["v0", "v1", "v2", "v3", "v4"]]
    assert cover.source_clique_count == 5


def test_two_triangles_sharing_one_node():
    ug = ug_from_pairs(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")]
    )
    standard = detect_communities(maximal_clique_list(ug), 3, "standard")
    loose = detect_communities(maximal_clique_list(ug), 3, "loose")
    assert cover_sets(standard) == [["a", "b", "c"], ["c", "d", "e"]]
    assert cover_sets(loose) == [["a", "b", "c", "d", "e"]]


def test_worked_example_triangle_plus_k4():
    # triangle v1 v2 v3 and K4 on v3 v4 v5 v6 share only v3
    pairs = [("v1", "v2"), ("v1", "v3"), ("v2", "v3")]
    for a in ("v3", "v4", "v5", "v6"):
        for b in ("v3", "v4", "v5", "v6"):
            if a < b:
                pairs.append((a, b))
    ug = ug_from_pairs(pairs)
    loose = detect_communities(maximal_clique_list(ug), 3, "loose")
    assert cover_sets(loose) == [["v1", "v2", "v3", "v4", "v5", "v6"]]
    standard = detect_communities(maximal_clique_list(ug), 3, "standard")
    assert cover_sets(standard) == [["v1", "v2", "v3"], ["v3", "v4", "v5", "v6"]]


def test_percolate_rejects_wrong_size():
    with pytest.raises(ValueError):
        percolate({frozenset("abc"), frozenset("defg")}, 3, "loose")


def test_percolate_rejects_bad_rule():
    with pytest.raises(ValueError):
        percolate(set(), 3, "fuzzy")


def test_two_disjoint_k4s():
    pairs = []
    for group in ("abcd", "wxyz"):
        for a in group:
            for b in group:
                if a < b:
                    pairs.append((a, b))
    ug = ug_from_pairs(pairs)
    for rule in ("standard", "loose"):
        cover = detect_communities(maximal_clique_list(ug), 3, rule)
        assert cover_sets(cover) == [["a", "b", "c", "d"], ["w", "x", "y", "z"]]


def test_empty_graph():
    cover = detect_communities(maximal_clique_list(UndirectedGraph()), 3, "standard")
    assert cover.communities == []
    assert cover.source_clique_count == 0


def test_detect_oracle_small_graphs():
    rng = random.Random(101)
    for _ in range(150):
        ug = random_edge_set_graph(rng, rng.randint(2, 8))
        for k in (2, 3, 4):
            for rule in ("standard", "loose"):
                cover = detect_communities(maximal_clique_list(ug), k, rule)
                expected = brute_force_detect(ug, k, rule)
                assert sorted(map(sorted, cover.communities)) == sorted(
                    map(sorted, expected)
                )
                assert cover.source_clique_count == len(
                    brute_force_k_cliques(ug.nodes, ug.edges.keys(), k)
                )


def test_standard_nesting_property():
    rng = random.Random(55)
    for _ in range(40):
        ug = random_undirected_graph(rng, 10, 0.55)
        for k in (4, 5):
            upper = detect_communities(maximal_clique_list(ug), k, "standard").communities
            lower = detect_communities(maximal_clique_list(ug), k - 1, "standard").communities
            for community in upper:
                assert any(community <= low for low in lower)


def test_loose_rule_partitions_covered_nodes():
    rng = random.Random(66)
    for _ in range(30):
        ug = random_undirected_graph(rng, 10, 0.5)
        k = 3
        cliques = enumerate_k_cliques(ug, k)
        cover = detect_communities(maximal_clique_list(ug), k, "loose")
        covered = set().union(*cliques) if cliques else set()
        in_cover = set().union(*cover.communities) if cover.communities else set()
        assert in_cover == covered
        # pairwise disjoint
        seen = set()
        for community in cover.communities:
            assert not (community & seen)
            seen |= community


def test_communities_internally_connected():
    rng = random.Random(31)
    ug = random_undirected_graph(rng, 12, 0.35)
    adj = ug.adjacency()
    for rule in ("standard", "loose"):
        for community in detect_communities(maximal_clique_list(ug), 3, rule).communities:
            # BFS within the community
            start = next(iter(community))
            seen = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in adj[v] & community:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            assert seen == community


def test_relabel_invariance():
    rng = random.Random(44)
    ug = random_undirected_graph(rng, 9, 0.5)
    mapping = {n: f"z{hash(n) % 1000:03d}_{n}" for n in ug.nodes}
    relabeled = UndirectedGraph(
        nodes={mapping[n] for n in ug.nodes},
        edges={tuple(sorted((mapping[u], mapping[v]))): w for (u, v), w in ug.edges.items()},
    )
    base = detect_communities(maximal_clique_list(ug), 3, "standard")
    other = detect_communities(maximal_clique_list(relabeled), 3, "standard")
    expected = sorted(
        sorted(mapping[n] for n in community) for community in base.communities
    )
    assert cover_sets(other) == sorted(expected)


def test_sweep_k6():
    result = community_count_sweep(maximal_clique_list(complete_graph(6)), 3, 7)
    assert [result.community_counts[k] for k in range(3, 8)] == [1, 1, 1, 1, 0]


def test_sweep_zero_above_max_clique():
    rng = random.Random(88)
    ug = random_undirected_graph(rng, 12, 0.4)
    max_clique = max(len(c) for c in maximal_cliques(ug.adjacency()))
    result = community_count_sweep(maximal_clique_list(ug), 2, max_clique + 4)
    for k in range(max_clique + 1, max_clique + 5):
        assert result.community_counts[k] == 0
        assert result.clique_counts[k] == 0


def test_sweep_matches_per_k_detection():
    rng = random.Random(99)
    for rule in ("standard", "loose"):
        ug = random_undirected_graph(rng, 11, 0.5)
        result = community_count_sweep(maximal_clique_list(ug), 2, 8, rule)
        for k in range(2, 9):
            cover = detect_communities(maximal_clique_list(ug), k, rule)
            assert result.community_counts[k] == len(cover.communities)
            assert result.clique_counts[k] == cover.source_clique_count


def test_sweep_bounds_checked():
    with pytest.raises(ValueError):
        community_count_sweep(maximal_clique_list(complete_graph(3)), 1, 4)
    with pytest.raises(ValueError):
        community_count_sweep(maximal_clique_list(complete_graph(3)), 5, 4)


def test_degeneracy_order_oracle_random_graphs():
    rng = random.Random(5)
    for trial in range(300):
        ug = random_undirected_graph(rng, rng.randint(0, 30), rng.random())
        adj = ug.adjacency()
        assert degeneracy_order(adj) == brute_force_degeneracy_order(adj), trial


def test_budget_counts_distinct_k_cliques_exactly():
    maximal = maximal_clique_list(complete_graph(12))  # C(12, 3) = 220 triangles
    assert detect_communities(maximal, 3, max_cliques=220).source_clique_count == 220
    assert community_count_sweep(maximal, 3, 4, max_cliques=495).clique_counts == {3: 220, 4: 495}
    with pytest.raises(CliqueBudgetExceeded):
        detect_communities(maximal, 3, max_cliques=219)
    with pytest.raises(CliqueBudgetExceeded):
        community_count_sweep(maximal, 3, 4, max_cliques=494)
    # two overlapping K5s share a K4: its triangles count once
    pairs = list(itertools.combinations("abcde", 2)) + list(itertools.combinations("bcdef", 2))
    overlapping = maximal_clique_list(ug_from_pairs(pairs))
    assert len(enumerate_k_cliques(ug_from_pairs(pairs), 3)) == 16
    assert detect_communities(overlapping, 3, max_cliques=16).source_clique_count == 16
    with pytest.raises(CliqueBudgetExceeded):
        detect_communities(overlapping, 3, max_cliques=15)


def test_unsorted_maximal_cliques_count_each_k_clique_once():
    # two overlapping K5s share a K4; given as frozensets, or as tuples in
    # opposite orders, the shared triangles come out in different orders
    pairs = list(itertools.combinations("abcde", 2)) + list(itertools.combinations("bcdef", 2))
    ug = ug_from_pairs(pairs)
    expected = detect_communities(maximal_clique_list(ug), 3)
    for maximal in (list(maximal_cliques(ug.adjacency())),
                    [tuple("abcde"), tuple("fedcb")]):
        cover = detect_communities(maximal, 3, max_cliques=16)
        assert cover.source_clique_count == 16
        assert cover.communities == expected.communities
        assert community_count_sweep(maximal, 3, 5).clique_counts == {3: 16, 4: 9, 5: 2}
