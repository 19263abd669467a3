"""Maximal cliques, exact k-clique counts, and clique percolation into
overlapping communities."""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .graph import UndirectedGraph

RULES = ("standard", "loose")


class CliqueBudgetExceeded(RuntimeError):
    """A requested k has more distinct k-cliques than the configured budget."""

    def __init__(self, k: int, count: int, max_cliques: int):
        super().__init__(
            f"the graph has {count} distinct {k}-cliques, more than the budget of "
            f"{max_cliques} set by --max-cliques"
        )
        self.k, self.count, self.max_cliques = k, count, max_cliques


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


def _expand(adj: dict[str, set[str]], r: set, p: set, x: set, out: list[frozenset]) -> None:
    """Append to `out` each maximal clique that extends `r` by members of `p`
    and by none of `x`."""
    if not p:
        if not x:
            out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda v: len(adj[v] & p))
    for v in list(p - adj[pivot]):
        nbrs = adj[v]
        _expand(adj, r | {v}, p & nbrs, x & nbrs, out)
        p.remove(v)
        x.add(v)


def maximal_cliques(adj: dict[str, set[str]]) -> Iterator[frozenset]:
    """Bron-Kerbosch with pivoting, outer loop in degeneracy order; yields the
    cliques of one outer vertex at a time."""
    order = degeneracy_order(adj)
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        later = {u for u in adj[v] if position[u] > position[v]}
        earlier = {u for u in adj[v] if position[u] < position[v]}
        found: list[frozenset] = []
        _expand(adj, {v}, later, earlier, found)
        yield from found


def maximal_clique_list(ug: UndirectedGraph) -> list[tuple[str, ...]]:
    """Every maximal clique of `ug` as a sorted tuple: enumerate them once and
    hand the list to `detect_communities` and `community_count_sweep`."""
    return [tuple(sorted(mc)) for mc in maximal_cliques(ug.adjacency())]


def _within_budget(counts: dict[int, int], max_cliques: Optional[int]) -> dict[int, int]:
    """`counts` (k -> distinct k-cliques), unless a k has more than `max_cliques`."""
    if max_cliques is not None:
        for k, count in counts.items():
            if count > max_cliques:
                raise CliqueBudgetExceeded(k, count, max_cliques)
    return counts


def _pivot_leaves(
    adj: dict[str, set[str]], p: set[str], held: int, pivots: int, k_min: int, leaves: Counter
) -> None:
    """Walk the pivot tree below a node whose cliques extend `held` vertices by
    members of `p`, adding one (held, pivots) pair to `leaves` per leaf. Each
    such clique is the held vertices plus a subset of one leaf's pivots, in
    exactly one way (Jain & Seshadhri 2020, "The Power of Pivoting for Exact
    Clique Counting"). A subtree whose cliques all have fewer than `k_min`
    vertices is skipped."""
    if held + pivots + len(p) < k_min:
        return
    while len(p) > 1:
        pivot = max(p, key=lambda u: len(adj[u] & p))
        nbrs = adj[pivot]
        for v in [u for u in p if u != pivot and u not in nbrs]:
            p.discard(v)
            _pivot_leaves(adj, p & adj[v], held + 1, pivots, k_min, leaves)
        p = p & nbrs
        pivots += 1
    leaves[held, pivots + len(p)] += 1


def _clique_counts(maximal: Iterable[tuple[str, ...]], k_min: int, k_max: int) -> dict[int, int]:
    """Distinct k-cliques for each k in k_min..k_max, in one walk of a pivot
    tree, of the graph that the given maximal cliques span: every k-clique with
    k >= k_min lies in a maximal clique of at least k_min nodes, so the others
    are left out. Each clique is counted at its smallest id."""
    adj: dict[str, set[str]] = {}
    for mc in maximal:
        if len(mc) >= k_min:
            for v in mc:
                adj.setdefault(v, set()).update(mc)
    leaves: Counter = Counter()
    for v, nbrs in adj.items():
        nbrs.discard(v)
    for v, nbrs in adj.items():
        _pivot_leaves(adj, {u for u in nbrs if u > v}, 1, 0, k_min, leaves)
    return {
        k: sum(n * math.comb(q, k - h) for (h, q), n in leaves.items() if h <= k)
        for k in range(k_min, k_max + 1)
    }


def enumerate_k_cliques(
    ug: UndirectedGraph, k: int, max_cliques: Optional[int] = None
) -> set[frozenset]:
    """All fully connected k-subsets, via expansion of maximal cliques. Raises
    CliqueBudgetExceeded, before listing any, if there are more than `max_cliques`."""
    if k < 2:
        raise ValueError("k must be >= 2")
    maximal = [mc for mc in maximal_clique_list(ug) if len(mc) >= k]
    _within_budget(_clique_counts(maximal, k, k), max_cliques)
    return {frozenset(c) for mc in maximal for c in itertools.combinations(mc, k)}


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


def _percolate(cliques: Sequence[tuple[str, ...]], k: int, rule: str) -> list[frozenset[str]]:
    """The communities of `cliques`, sorted tuples of at least k nodes: the
    union of each connected component, where two cliques join when they share
    k-1 nodes (standard) or any node (loose). Sorted by size, then smallest
    member, then the position of each component's first clique.

    Cliques are indexed by their r-subsets. Two cliques sharing m nodes share
    C(m, r) of them, so for r <= k-1 they share k-1 nodes exactly when they
    share C(k-1, r) keys. With r = k-1 (or r = 1 under the loose rule) one
    shared key joins them, and each clique is unioned with the first clique
    holding each of its keys. The standard rule takes r = k-1 unless the
    cliques have fewer edges than (k-1)-subsets; then r = 2 and each clique
    counts the keys it shares with the earlier cliques holding its edges, so
    only cliques sharing an edge are compared."""
    if rule not in RULES:
        raise ValueError(f"rule must be one of {RULES}")
    if rule == "loose" or k == 2:
        r = 1
    elif sum(math.comb(len(c), k - 1) - math.comb(len(c), 2) for c in cliques) <= 0:
        r = k - 1
    else:
        r = 2
    need = math.comb(k - 1, r) if rule == "standard" else 1
    uf = _UnionFind(len(cliques))
    if need == 1:
        first: dict = {}  # key -> the first clique holding it
        for i, c in enumerate(cliques):
            for key in c if r == 1 else itertools.combinations(c, r):
                j = first.setdefault(key, i)
                if j != i:
                    uf.union(j, i)
    else:
        holders: dict = {}  # key -> the earlier cliques holding it
        for i, c in enumerate(cliques):
            shared: Counter = Counter()  # earlier clique -> keys it shares with c
            for key in itertools.combinations(c, r):
                earlier = holders.setdefault(key, [])
                shared.update(earlier)
                earlier.append(i)
            for j, n in shared.items():
                if n >= need:
                    uf.union(j, i)
    groups: dict[int, set[str]] = {}
    for i, c in enumerate(cliques):
        groups.setdefault(uf.find(i), set()).update(c)
    comms = [frozenset(nodes) for nodes in groups.values()]
    comms.sort(key=lambda c: (-len(c), min(c)))
    return comms


def percolate(cliques: Iterable[Iterable[str]], k: int, rule: str = "standard") -> CommunityCover:
    """Union k-cliques that overlap: standard rule joins cliques sharing k-1
    nodes, loose rule joins cliques sharing any node."""
    clique_list = sorted(tuple(sorted(c)) for c in cliques)
    for c in clique_list:
        if len(c) != k:
            raise ValueError(f"clique {list(c)} does not have {k} members")
    return CommunityCover(k, rule, _percolate(clique_list, k, rule), len(clique_list))


def detect_communities(
    maximal: Iterable[tuple[str, ...]],
    k: int,
    rule: str = "standard",
    max_cliques: Optional[int] = None,
) -> CommunityCover:
    """Percolate the k-cliques of a graph, given its `maximal_clique_list`.

    Two k-cliques share k-1 nodes (or any node) exactly when maximal cliques of
    at least k nodes holding them do (Palla et al. 2005), so those maximal
    cliques are percolated in their place and no k-clique is listed. They are
    taken in sorted order, so each component comes first at its smallest
    k-clique (the first k members of its smallest clique) and communities of
    equal size and smallest member keep the order that percolating the sorted
    k-cliques gives. Raises CliqueBudgetExceeded, before percolating, if the graph
    has more than `max_cliques` distinct k-cliques."""
    if k < 2:
        raise ValueError("k must be >= 2")
    active = sorted(tuple(sorted(mc)) for mc in maximal if len(mc) >= k)
    count = _within_budget(_clique_counts(active, k, k), max_cliques)[k]
    return CommunityCover(k, rule, _percolate(active, k, rule), count)


def community_count_sweep(
    maximal: Sequence[tuple[str, ...]],
    k_min: int,
    k_max: int,
    rule: str = "standard",
    max_cliques: Optional[int] = None,
) -> SweepResult:
    """Community and distinct k-clique count per k, given the graph's
    `maximal_clique_list`. The clique counts come from one pivot-tree walk and
    are checked against `max_cliques` before any level is percolated."""
    if not 2 <= k_min <= k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    cliques = [tuple(sorted(mc)) for mc in maximal if len(mc) >= k_min]
    counts = _within_budget(_clique_counts(cliques, k_min, k_max), max_cliques)
    result = SweepResult(k_min=k_min, k_max=k_max, rule=rule, clique_counts=counts)
    for k in range(k_min, k_max + 1):
        active = [c for c in cliques if len(c) >= k]
        result.community_counts[k] = len(_percolate(active, k, rule))
    return result
