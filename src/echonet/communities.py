"""k-clique enumeration and percolation into overlapping communities."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .graph import UndirectedGraph

RULES = ("standard", "loose")


class CliqueBudgetExceeded(RuntimeError):
    """Materialized k-clique count exceeded the configured budget."""


@dataclass
class CommunityCover:
    k: int
    rule: str
    communities: list[frozenset[str]]
    source_clique_count: int


@dataclass
class SweepResult:
    k_min: int
    k_max: int
    rule: str
    community_counts: dict[int, int] = field(default_factory=dict)
    clique_counts: dict[int, int] = field(default_factory=dict)


def degeneracy_order(adj: dict[str, set[str]]) -> list:
    """Repeatedly remove the vertex with the smallest (degree, id), using a
    heap whose stale entries are skipped when popped: O(m log n)."""
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    heap = [(d, v) for v, d in degree.items()]
    heapq.heapify(heap)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if degree.get(v) != d:  # removed, or its degree has dropped since
            continue
        del degree[v]
        order.append(v)
        for u in adj[v]:
            if u in degree:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    return order


def _expand(adj: dict[str, set[str]], r: set, p: set, x: set) -> Iterator[frozenset]:
    if not p and not x:
        yield frozenset(r)
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in list(p - adj[pivot]):
        yield from _expand(adj, r | {v}, p & adj[v], x & adj[v])
        p.remove(v)
        x.add(v)


def maximal_cliques(adj: dict[str, set[str]]) -> Iterator[frozenset]:
    """Bron-Kerbosch with pivoting, outer loop in degeneracy order."""
    order = degeneracy_order(adj)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = {u for u in adj[v] if position[u] > position[v]}
        earlier = {u for u in adj[v] if position[u] < position[v]}
        yield from _expand(adj, {v}, later, earlier)


def maximal_clique_list(ug: UndirectedGraph) -> list[tuple[str, ...]]:
    """Every maximal clique of `ug` as a sorted tuple: enumerate them once and
    hand the list to `detect_communities` and `community_count_sweep`."""
    return [tuple(sorted(mc)) for mc in maximal_cliques(ug.adjacency())]


def _k_cliques(
    maximal: Iterable[tuple[str, ...]], k: int, max_cliques: Optional[int]
) -> set[tuple[str, ...]]:
    """Every k-subset of the maximal cliques, as a sorted tuple. Raises
    CliqueBudgetExceeded as soon as more than `max_cliques` distinct ones exist."""
    if k < 2:
        raise ValueError("k must be >= 2")
    out: set[tuple[str, ...]] = set()
    for mc in maximal:
        if len(mc) < k:
            continue
        for combo in itertools.combinations(sorted(mc), k):
            out.add(combo)
            if max_cliques is not None and len(out) > max_cliques:
                raise CliqueBudgetExceeded(f"more than {max_cliques} {k}-cliques materialized")
    return out


def enumerate_k_cliques(
    ug: UndirectedGraph, k: int, max_cliques: Optional[int] = None
) -> set[frozenset]:
    """All fully connected k-subsets, via expansion of maximal cliques."""
    return {frozenset(c) for c in _k_cliques(maximal_clique_list(ug), k, max_cliques)}


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _sorted_communities(groups: dict[int, set[str]]) -> list[frozenset[str]]:
    comms = [frozenset(nodes) for nodes in groups.values()]
    comms.sort(key=lambda c: (-len(c), min(c)))
    return comms


def percolate(cliques: Iterable[Iterable[str]], k: int, rule: str = "standard") -> CommunityCover:
    """Union k-cliques that overlap: standard rule joins cliques sharing k-1
    nodes, loose rule joins cliques sharing any node."""
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}")
    clique_list = sorted(tuple(sorted(c)) for c in cliques)
    for c in clique_list:
        if len(c) != k:
            raise ValueError(f"clique {list(c)} does not have {k} members")
    uf = _UnionFind(len(clique_list))
    seen: dict = {}
    if rule == "standard":
        for i, c in enumerate(clique_list):
            for sub in itertools.combinations(c, k - 1):
                j = seen.setdefault(sub, i)
                if j != i:
                    uf.union(i, j)
    else:
        for i, c in enumerate(clique_list):
            for node in c:
                j = seen.setdefault(node, i)
                if j != i:
                    uf.union(i, j)
    groups: dict[int, set[str]] = {}
    for i, c in enumerate(clique_list):
        groups.setdefault(uf.find(i), set()).update(c)
    return CommunityCover(
        k=k,
        rule=rule,
        communities=_sorted_communities(groups),
        source_clique_count=len(clique_list),
    )


def detect_communities(
    maximal: Iterable[tuple[str, ...]],
    k: int,
    rule: str = "standard",
    max_cliques: Optional[int] = None,
) -> CommunityCover:
    """Percolate the k-cliques of a graph, given its `maximal_clique_list`."""
    return percolate(_k_cliques(maximal, k, max_cliques), k, rule)


def community_count_sweep(
    maximal: Sequence[tuple[str, ...]],
    k_min: int,
    k_max: int,
    rule: str = "standard",
    max_cliques: Optional[int] = None,
) -> SweepResult:
    """Community and k-clique count per k, given the graph's `maximal_clique_list`."""
    if not 2 <= k_min <= k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    result = SweepResult(k_min=k_min, k_max=k_max, rule=rule)
    for k in range(k_min, k_max + 1):
        cliques = _k_cliques(maximal, k, max_cliques)
        cover = percolate(cliques, k, rule)
        result.community_counts[k] = len(cover.communities)
        result.clique_counts[k] = len(cliques)
    return result
