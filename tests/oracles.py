"""Independent brute-force implementations used as test oracles.

Deliberately naive: subset enumeration, pairwise adjacency checks, BFS over
clique overlap. Nothing here shares code with the package under test.
"""

import itertools
import random
from collections import deque

from echonet.graph import UndirectedGraph


def brute_force_k_cliques(nodes, edge_pairs, k):
    """All k-subsets whose pairs all appear in edge_pairs (unordered)."""
    adjacent = set()
    for u, v in edge_pairs:
        adjacent.add((u, v))
        adjacent.add((v, u))
    out = set()
    for combo in itertools.combinations(sorted(nodes), k):
        if all((a, b) in adjacent for a, b in itertools.combinations(combo, 2)):
            out.add(frozenset(combo))
    return out


def brute_force_percolate(cliques, k, rule):
    """Connected components of the clique-overlap graph, via pairwise checks
    and BFS."""
    clique_list = sorted(cliques, key=lambda c: tuple(sorted(c)))
    n = len(clique_list)
    if rule == "standard":
        joined = lambda a, b: len(a & b) == k - 1
    else:
        joined = lambda a, b: len(a & b) >= 1
    adj = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if joined(clique_list[i], clique_list[j]):
                adj[i].append(j)
                adj[j].append(i)
    seen = set()
    communities = []
    for start in range(n):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        members = set()
        while queue:
            i = queue.popleft()
            members |= clique_list[i]
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        communities.append(frozenset(members))
    return communities


def brute_force_detect(ug, k, rule):
    cliques = brute_force_k_cliques(ug.nodes, ug.edges.keys(), k)
    return brute_force_percolate(cliques, k, rule)


def moments(values):
    """(min, max, mean, population variance, moment skew) in plain Python."""
    n = len(values)
    mean = sum(values) / n
    m2 = sum((x - mean) ** 2 for x in values) / n
    m3 = sum((x - mean) ** 3 for x in values) / n
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    return min(values), max(values), mean, m2, skew


def random_undirected_graph(rng: random.Random, n: int, p: float) -> UndirectedGraph:
    nodes = [f"n{i:02d}" for i in range(n)]
    edges = {}
    for u, v in itertools.combinations(nodes, 2):
        if rng.random() < p:
            edges[(u, v)] = 1
    return UndirectedGraph(nodes=set(nodes), edges=edges)


def random_edge_set_graph(rng: random.Random, n: int = 8) -> UndirectedGraph:
    """Uniformly random edge subset over n labeled nodes."""
    return random_undirected_graph(rng, n, rng.random())


def complete_graph(n: int) -> UndirectedGraph:
    nodes = [f"v{i}" for i in range(n)]
    edges = {(u, v): 1 for u, v in itertools.combinations(sorted(nodes), 2)}
    return UndirectedGraph(nodes=set(nodes), edges=edges)


def brute_force_degeneracy_order(adj):
    """Repeatedly remove the remaining vertex with the smallest (degree, id)."""
    remaining = {v: set(nbrs) for v, nbrs in adj.items()}
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (len(remaining[u]), u))
        order.append(v)
        for u in remaining.pop(v):
            remaining[u].discard(v)
    return order
