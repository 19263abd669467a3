import itertools
import math
import random
import time

import pytest

from echonet import communities
from echonet.communities import (
    CliqueBudgetExceeded,
    MaximalCliques,
    community_count_sweep,
    degeneracy_order,
    detect_communities,
    enumerate_k_cliques,
    maximal_clique_list,
    maximal_cliques,
    percolate,
    triangle_edges,
)
from echonet.config import PipelineConfig
from echonet.graph import UndirectedGraph
from oracles import (
    brute_force_degeneracy,
    brute_force_detect,
    brute_force_k_cliques,
    complete_graph,
    named,
    package_graph,
    random_edge_set_graph,
    random_undirected_graph,
)


def ug_from_pairs(pairs, extra_nodes=()):
    return package_graph(UndirectedGraph, extra_nodes, {tuple(sorted(p)): 1 for p in pairs})


def name_adjacency(ug):
    """`ug.adjacency()` by name."""
    return {ug.nodes[i]: {ug.nodes[j] for j in nbrs} for i, nbrs in ug.adjacency().items()}


def cover_sets(cover):
    return sorted(sorted(c) for c in cover.communities)


def test_k4_all_triangles():
    ug = complete_graph(4)
    cliques = enumerate_k_cliques(ug, 3)
    assert cliques == brute_force_k_cliques(ug.nodes, named(ug).edges, 3)
    assert len(cliques) == 4


def test_path_has_no_triangle():
    ug = ug_from_pairs([("a", "b"), ("b", "c")])
    assert enumerate_k_cliques(ug, 3) == set()


def test_enumeration_oracle_random_graph():
    rng = random.Random(77)
    ug = random_undirected_graph(rng, 10, 0.5)
    for k in range(2, 7):
        assert enumerate_k_cliques(ug, k) == brute_force_k_cliques(
            ug.nodes, named(ug).edges, k
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
        assert not any(mc <= adj[v] for v in set(adj) - mc)


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
                    brute_force_k_cliques(ug.nodes, named(ug).edges, k)
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
    adj = name_adjacency(ug)
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
    relabeled = package_graph(
        UndirectedGraph,
        [mapping[n] for n in ug.nodes],
        {(mapping[u], mapping[v]): w for (u, v), w in named(ug).edges.items()},
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
    """Each vertex has the least degree among the vertices left when it is
    taken, so the largest such degree is the graph's degeneracy. Which of
    several least-degree vertices comes first is not part of the contract."""
    rng = random.Random(5)
    for trial in range(300):
        ug = random_undirected_graph(rng, rng.randint(0, 30), rng.random())
        by_name = name_adjacency(ug)
        for adj in (by_name, ug.adjacency()):
            order = degeneracy_order(adj)
            assert sorted(order) == sorted(adj), trial
            left = {v: set(nbrs) for v, nbrs in adj.items()}
            taken_at = []
            for v in order:
                assert len(left[v]) == min(len(nbrs) for nbrs in left.values()), trial
                taken_at.append(len(left[v]))
                for u in left.pop(v):
                    left[u].discard(v)
            assert max(taken_at, default=0) == brute_force_degeneracy(by_name), trial


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


def test_maximal_cliques_in_any_order_percolate_alike():
    # two overlapping K5s share a K4; listed in either order, the shared
    # triangles come out in different orders
    pairs = list(itertools.combinations("abcde", 2)) + list(itertools.combinations("bcdef", 2))
    maximal = maximal_clique_list(ug_from_pairs(pairs))
    expected = detect_communities(maximal, 3)
    for given in ([tuple("abcde"), tuple("bcdef")], [tuple("bcdef"), tuple("abcde")]):
        wrapped = MaximalCliques(given, maximal.min_size, maximal.leaves)
        assert detect_communities(wrapped, 3).communities == expected.communities


def planted_graph(rng, n, p, cliques):
    """A G(n, p) background on n00.. plus `cliques` random node sets of the
    given sizes made all-pairs; the sets may overlap."""
    ug = random_undirected_graph(rng, n, p)
    edges = named(ug).edges
    for size in cliques:
        for u, v in itertools.combinations(sorted(rng.sample(ug.nodes, size)), 2):
            edges[(u, v)] = 1
    return package_graph(UndirectedGraph, ug.nodes, edges)


def ordered_brute_force_detect(ug, k, rule):
    """The oracle's communities in the cover's order: by size, then smallest
    member, then smallest k-clique (the oracle finds components in that order)."""
    return sorted(brute_force_detect(ug, k, rule), key=lambda c: (-len(c), min(c)))


def test_maximal_clique_percolation_matches_brute_force_on_planted_graphs():
    rng = random.Random(2024)
    for trial in range(60):
        ug = planted_graph(rng, rng.randint(8, 14), rng.choice([0.1, 0.3, 0.5]),
                           [rng.randint(3, 7) for _ in range(rng.randint(1, 3))])
        maximal = maximal_clique_list(ug)
        counts = {k: len(brute_force_k_cliques(ug.nodes, named(ug).edges, k))
                  for k in range(2, 7)}
        for rule in ("standard", "loose"):
            sweep = community_count_sweep(maximal, 2, 6, rule)
            assert sweep.clique_counts == counts, (trial, rule)
            for k in range(2, 7):
                expected = ordered_brute_force_detect(ug, k, rule)
                cover = detect_communities(maximal, k, rule)
                assert cover.communities == expected, (trial, rule, k)
                assert cover.source_clique_count == counts[k]
                assert sweep.community_counts[k] == len(expected)


def test_equal_communities_sharing_their_minimum_keep_smallest_k_clique_order():
    # two standard 3-communities of five nodes, each two K4s sharing a
    # triangle; they share only "a"; (a, b, y) < (a, d, e), so abwyz comes first
    pairs = [pair for group in ("adef", "defg", "abyz", "bwyz")
             for pair in itertools.combinations(group, 2)]
    ug = ug_from_pairs(pairs)
    expected = [frozenset("abwyz"), frozenset("adefg")]
    assert ordered_brute_force_detect(ug, 3, "standard") == expected
    maximal = maximal_clique_list(ug)
    for given in (maximal, MaximalCliques(maximal[::-1], maximal.min_size, maximal.leaves)):
        assert detect_communities(given, 3, "standard").communities == expected


def test_k24_at_k9_is_one_community_of_every_9_clique():
    cover = detect_communities(maximal_clique_list(complete_graph(24)), 9,
                               max_cliques=10_000_000)
    assert cover.communities == [frozenset(complete_graph(24).nodes)]
    assert cover.source_clique_count == math.comb(24, 9)


def test_k30_at_k9_exceeds_the_default_budget_and_fits_an_exact_one(monkeypatch):
    maximal = maximal_clique_list(complete_graph(30))
    with monkeypatch.context() as patch:  # the budget is checked before percolating
        patch.setattr(communities, "_percolate", None)
        with pytest.raises(CliqueBudgetExceeded) as info:
            detect_communities(maximal, 9, max_cliques=PipelineConfig().max_cliques)
        with pytest.raises(CliqueBudgetExceeded):
            community_count_sweep(maximal, 3, 12, max_cliques=PipelineConfig().max_cliques)
    message = str(info.value)
    assert "9-cliques" in message and str(math.comb(30, 9)) in message
    assert "--max-cliques" in message
    cover = detect_communities(maximal, 9, max_cliques=math.comb(30, 9))
    assert cover.source_clique_count == math.comb(30, 9)
    assert len(cover.communities) == 1


def hub_pairs(triangles, k6s):
    """The edges of `triangles` triangles and `k6s` K6s whose only common node is "hub"."""
    pairs = []
    for i in range(triangles):
        pairs += [("hub", f"a{i}"), ("hub", f"b{i}"), (f"a{i}", f"b{i}")]
    for i in range(k6s):
        blade = ["hub"] + [f"g{i}_{j}" for j in range(5)]
        pairs += list(itertools.combinations(blade, 2))
    return pairs


def test_cliques_sharing_only_a_hub_stay_apart_in_linear_time():
    """20,000 triangles and 2,000 K6s whose only common node is a hub, as when
    one account is retweeted by many pairs and groups of users. Under the
    standard rule no two of them share k-1 >= 2 nodes. Comparing every pair of
    cliques that hold the hub takes most of a minute on a 2-core Xeon; indexing
    cliques by their edges or (k-1)-subsets takes well under a second."""
    maximal = maximal_clique_list(ug_from_pairs(hub_pairs(20_000, 2_000)))
    start = time.monotonic()
    triangles = detect_communities(maximal, 3, "standard")
    sweep = community_count_sweep(maximal, 3, 6, "standard")
    elapsed = time.monotonic() - start
    assert len(triangles.communities) == 22_000
    assert triangles.source_clique_count == 20_000 + 2_000 * math.comb(6, 3)
    assert sweep.community_counts == {3: 22_000, 4: 2_000, 5: 2_000, 6: 2_000}
    assert len(detect_communities(maximal, 3, "loose").communities) == 1
    assert elapsed < 10, f"took {elapsed:.1f}s"


def brute_force_triangle_edges(ug):
    """Whether each edge of `ug` has a common neighbour of its two ends."""
    nbrs = {v: set() for v in ug.nodes}
    edges = named(ug).edges  # in the order of ug.keys
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [bool(nbrs[u] & nbrs[v]) for u, v in edges]


@pytest.mark.parametrize("chunk", [1, 2, 7, communities.WEDGE_CHUNK])
def test_triangle_edges_are_the_edges_with_a_common_neighbour(monkeypatch, chunk):
    """Also when the wedges are looked up a few at a time, so that a node's
    wedges span several chunks."""
    monkeypatch.setattr(communities, "WEDGE_CHUNK", chunk)
    rng = random.Random(chunk)
    for trial in range(60):
        ug = planted_graph(rng, rng.randint(6, 16), rng.choice([0.05, 0.2, 0.5, 0.9]),
                           [rng.randint(3, 6) for _ in range(rng.randint(0, 2))])
        assert triangle_edges(ug).tolist() == brute_force_triangle_edges(ug), trial
    assert triangle_edges(UndirectedGraph()).tolist() == []


def windmill_pairs(blades):
    return [pair for i in range(blades) for pair in
            (("hub", f"a{i}"), ("hub", f"b{i}"), (f"a{i}", f"b{i}"))]


def triangle_free_pairs(n):
    """A cycle of n nodes and a complete bipartite graph on n + n nodes."""
    cycle = [(f"c{i:03d}", f"c{(i + 1) % n:03d}") for i in range(n)]
    return cycle + [(f"l{i:03d}", f"r{j:03d}") for i in range(n) for j in range(n)]


def graphs_for_the_triangle_path():
    rng = random.Random(303)
    graphs = [planted_graph(rng, rng.randint(7, 16), rng.choice([0.1, 0.3, 0.6]),
                            [rng.randint(3, 7) for _ in range(rng.randint(0, 3))])
              for _ in range(40)]
    graphs += [random_undirected_graph(rng, 40, 0.15) for _ in range(5)]
    graphs += [
        ug_from_pairs(hub_pairs(2_000, 200)),
        ug_from_pairs(windmill_pairs(20_000)),
        ug_from_pairs(triangle_free_pairs(30)),
        ug_from_pairs([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
                      extra_nodes=["i0", "i1", "z9"]),
        ug_from_pairs([], extra_nodes=["i0", "i1"]),
        UndirectedGraph(),
    ]
    return graphs


def test_cliques_from_3_nodes_on_are_the_full_lists_cliques_of_3_or_more():
    """The triangle-edge path gives the same maximal cliques of 3 or more
    nodes as the full path, on random and planted graphs, a hub graph, a
    20,000-triangle windmill, triangle-free graphs and isolated nodes."""
    for trial, ug in enumerate(graphs_for_the_triangle_path()):
        full = maximal_clique_list(ug)
        assert full.min_size == 1
        for min_size in (3, 4):
            filtered = maximal_clique_list(ug, min_size)
            assert filtered.min_size == min_size
            assert sorted(filtered) == sorted(c for c in full if len(c) >= min_size), trial
    assert maximal_clique_list(ug_from_pairs(triangle_free_pairs(30)), 3) == []


def test_triangle_path_matches_brute_force_under_both_rules():
    rng = random.Random(404)
    for trial in range(40):
        ug = planted_graph(rng, rng.randint(6, 13), rng.choice([0.1, 0.3, 0.5]),
                           [rng.randint(3, 6) for _ in range(rng.randint(1, 3))])
        counts = {k: len(brute_force_k_cliques(ug.nodes, named(ug).edges, k))
                  for k in range(3, 7)}
        for rule in ("standard", "loose"):
            expected = {k: ordered_brute_force_detect(ug, k, rule) for k in range(3, 7)}
            for min_size in (3, 4, 5):
                maximal = maximal_clique_list(ug, min_size)
                ks = range(min_size, 7)
                sweep = community_count_sweep(maximal, min_size, 6, rule)
                assert sweep.clique_counts == {k: counts[k] for k in ks}, (trial, rule, min_size)
                for k in ks:
                    cover = detect_communities(maximal, k, rule)
                    assert cover.communities == expected[k], (trial, rule, min_size, k)
                    assert cover.source_clique_count == counts[k]
                    assert sweep.community_counts[k] == len(expected[k])


def test_cliques_listed_from_m_nodes_on_are_never_percolated_below_m():
    ug = ug_from_pairs([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    from_3 = maximal_clique_list(ug, 3)
    assert isinstance(from_3, MaximalCliques) and from_3 == [("a", "b", "c")]
    with pytest.raises(ValueError, match="from 3 nodes on"):
        detect_communities(from_3, 2)
    with pytest.raises(ValueError, match="from 3 nodes on"):
        community_count_sweep(from_3, 2, 4)
    with pytest.raises(ValueError, match="from 4 nodes on"):
        detect_communities(maximal_clique_list(ug, 4), 3)
    assert detect_communities(from_3, 3).communities == [frozenset("abc")]
    assert community_count_sweep(from_3, 3, 4).clique_counts == {3: 1, 4: 0}
    full = maximal_clique_list(ug, 2)
    assert detect_communities(full, 2).communities == [frozenset("abcd")]
