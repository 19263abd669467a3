"""Maximal cliques, exact k-clique counts, and clique percolation into
overlapping communities."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .graph import UndirectedGraph

RULES = ("standard", "loose")
WEDGE_CHUNK = 1 << 13  # wedges looked up at a time by `triangle_edges`


class CliqueBudgetExceeded(RuntimeError):
    """A requested k has more distinct k-cliques than the configured budget."""

    def __init__(self, k: int, count: int, max_cliques: int):
        super().__init__(
            f"the graph has {count} distinct {k}-cliques, more than the budget of "
            f"{max_cliques} set by --max-cliques"
        )
        self.k, self.count, self.max_cliques = k, count, max_cliques


class CommunityCover(NamedTuple):
    k: int
    communities: list[frozenset[str]]
    source_clique_count: int


class SweepResult(NamedTuple):
    community_counts: dict[int, int]
    clique_counts: dict[int, int]


def degeneracy_order(adj: Mapping[Hashable, set]) -> list:
    """A degeneracy order of the graph whose neighbour sets `adj` holds: each
    vertex has the least degree among the vertices not yet taken when it is
    taken. A bucket queue holds the vertices by remaining degree, and taking a
    vertex lowers the least degree by at most one, so the scan for it only
    steps back by one: O(n + m) (Batagelj & Zaversnik 2003, "An O(m)
    Algorithm for Cores Decomposition of Networks"). A vertex gets a new entry
    each time its degree drops; the scan reaches the old ones only after the
    vertex was taken, and skips them."""
    degree = {v: len(nbrs) for v, nbrs in adj.items()}
    buckets: list[list] = [[] for _ in range(max(degree.values(), default=0) + 1)]
    for v, d in degree.items():
        buckets[d].append(v)
    order = []
    d = 0
    while degree:
        bucket = buckets[d]
        if not bucket:
            d += 1
            continue
        v = bucket.pop()
        if v not in degree:
            continue
        del degree[v]
        order.append(v)
        for u in adj[v]:
            du = degree.get(u)
            if du is not None:
                degree[u] = du - 1
                buckets[du - 1].append(u)
        if d:
            d -= 1
    return order


def maximal_cliques(
    adj: Mapping[Hashable, set], min_size: int = 1, leaves: Optional[Counter] = None
) -> Iterator[frozenset]:
    """Bron-Kerbosch with the pivot taken from P alone, outer loop in
    degeneracy order: yields the maximal cliques of at least `min_size`
    vertices, one outer vertex at a time, and adds one (held, pivots) pair per
    leaf to `leaves`. Its recursion is the pivot tree of Jain & Seshadhri
    (2020, "The Power of Pivoting for Exact Clique Counting"): below a node
    holding the clique `r`, whose first `held` vertices were branched on and
    the rest are pivots, each clique extends `r` by members of `p` and is the
    held vertices of exactly one leaf plus a subset of its pivots. `x` holds
    the vertices that extend `r` in the cliques of earlier branches, so a leaf
    that none of them extends is a maximal clique. A subtree whose cliques all
    have fewer than `min_size` vertices is skipped."""
    if leaves is None:
        leaves = Counter()

    def walk(r: list, held: int, p: set, x: set) -> None:
        while len(r) + len(p) >= min_size:
            if not p:
                leaves[held, len(r) - held] += 1
                if not x:
                    found.append(frozenset(r))
                return
            pivot = max(p, key=lambda u: len(adj[u] & p))
            nbrs = adj[pivot]
            for v in [u for u in p if u != pivot and u not in nbrs]:
                p.remove(v)
                walk(r + [v], held + 1, p & adj[v], x & adj[v])
                x.add(v)
            r.append(pivot)
            p &= nbrs
            x &= nbrs

    done: set = set()
    for v in degeneracy_order(adj):
        nbrs = adj[v]
        found: list[frozenset] = []
        walk([v], 1, nbrs - done, nbrs & done)
        done.add(v)
        yield from found


def triangle_edges(ug: UndirectedGraph) -> np.ndarray:
    """A boolean mask over `ug.keys`: the edges that lie in a triangle. Each
    edge points from the end of lower degree (then lower id) to the other, so
    a node has at most sqrt(2m) out-neighbours. Every pair of out-neighbours
    of a node, a wedge, is looked up among the sorted edge keys, WEDGE_CHUNK
    wedges at a time; a hit closes a triangle, found once, at its lowest node,
    and marks its three edges (Chiba & Nishizeki 1985, "Arboricity and
    Subgraph Listing Algorithms")."""
    n, m, keys = len(ug.nodes), len(ug.keys), ug.keys  # the keys are sorted
    u, v = np.divmod(keys, n)
    rank = np.empty(n, dtype=np.int64)
    degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    up = rank[u] < rank[v]
    src = np.where(up, u, v)
    out = np.where(up, v, u)
    del up, u, v
    order = np.argsort(src, kind="stable")  # edge ids grouped by their source
    per_source = np.bincount(src, minlength=n)
    del src
    out = out[order]  # the out-neighbour at each position
    later = np.repeat(np.cumsum(per_source), per_source)  # where each position's group ends
    later -= np.arange(1, m + 1)  # wedges that start at each position
    total = np.cumsum(later)
    triangle = np.zeros(m, dtype=bool)
    start = 0
    while start < m:
        done = int(total[start - 1]) if start else 0
        stop = max(int(np.searchsorted(total, done + WEDGE_CHUNK, side="right")), start + 1)
        per = later[start:stop]
        count = int(total[stop - 1]) - done
        if count:
            first = np.repeat(np.arange(start, stop), per)
            second = first + 1 + np.arange(count) - np.repeat(np.cumsum(per) - per, per)
            b, c = out[first], out[second]
            wedge = np.minimum(b, c) * n + np.maximum(b, c)
            at = np.minimum(np.searchsorted(keys, wedge), m - 1)
            hit = keys[at] == wedge
            triangle[order[first[hit]]] = True
            triangle[order[second[hit]]] = True
            triangle[at[hit]] = True
        start = stop
    return triangle


class MaximalCliques(list):
    """The maximal cliques of a graph that have at least `min_size` nodes,
    each a sorted tuple of names, and the leaves of the pivot tree that
    listed them, (held, pivots) -> how many. The k-cliques of smaller cliques
    are not in it, so `detect_communities` and `community_count_sweep` refuse
    a k below `min_size`."""

    def __init__(self, cliques: Iterable[tuple[str, ...]], min_size: int, leaves: Counter):
        super().__init__(cliques)
        self.min_size = min_size
        self.leaves = leaves


def maximal_clique_list(ug: UndirectedGraph, min_size: int = 1) -> MaximalCliques:
    """The maximal cliques of `ug` with at least `min_size` nodes: enumerate
    them once and hand the list to `detect_communities` and
    `community_count_sweep`. The enumeration runs on the node ids, which sort
    as the names do.

    From `min_size` 3 on it runs on T, the subgraph of the edges that lie in a
    triangle. The maximal cliques of 3 or more nodes are the same in `ug` and
    in T: every edge of such a clique lies in a triangle, so the clique lies in
    T, and a node that extends it in `ug` joins it by edges that lie in
    triangles, so it extends it in T too. T has no smaller maximal clique,
    since each of its edges lies in a triangle of T. Every clique of 3 or more
    nodes lies in T as well, so the walk's leaves count them all."""
    adj = ug.adjacency(triangle_edges(ug) if min_size >= 3 else None)
    names = ug.nodes
    leaves: Counter = Counter()
    cliques = [tuple([names[i] for i in sorted(mc)])
               for mc in maximal_cliques(adj, min_size, leaves)]
    return MaximalCliques(cliques, min_size, leaves)


def _clique_counts(
    maximal: MaximalCliques, k_min: int, k_max: int, max_cliques: Optional[int]
) -> dict[int, int]:
    """Distinct k-cliques for each k in k_min..k_max, from the pivot-tree
    leaves that listing `maximal` gave: a leaf with h held vertices and q
    pivots stands for C(q, k - h) k-cliques. Raises ValueError if the cliques
    were listed from more than k_min nodes on, and CliqueBudgetExceeded if a k
    has more than `max_cliques`."""
    if k_min < maximal.min_size:
        raise ValueError(f"the cliques were listed from {maximal.min_size} nodes on; "
                         f"k = {k_min} needs smaller ones")
    counts = {
        k: sum(n * math.comb(q, k - h) for (h, q), n in maximal.leaves.items() if h <= k)
        for k in range(k_min, k_max + 1)
    }
    for k, count in counts.items():
        if max_cliques is not None and count > max_cliques:
            raise CliqueBudgetExceeded(k, count, max_cliques)
    return counts


def enumerate_k_cliques(
    ug: UndirectedGraph, k: int, max_cliques: Optional[int] = None
) -> set[frozenset]:
    """All fully connected k-subsets, via expansion of maximal cliques. Raises
    CliqueBudgetExceeded, before listing any, if there are more than `max_cliques`."""
    if k < 2:
        raise ValueError("k must be >= 2")
    maximal = maximal_clique_list(ug, k)
    _clique_counts(maximal, k, k, max_cliques)
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
    return CommunityCover(k, _percolate(clique_list, k, rule), len(clique_list))


def detect_communities(
    maximal: MaximalCliques,
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
    count = _clique_counts(maximal, k, k, max_cliques)[k]
    active = sorted(mc for mc in maximal if len(mc) >= k)
    return CommunityCover(k, _percolate(active, k, rule), count)


def community_count_sweep(
    maximal: MaximalCliques,
    k_min: int,
    k_max: int,
    rule: str = "standard",
    max_cliques: Optional[int] = None,
) -> SweepResult:
    """Community and distinct k-clique count per k, given the graph's
    `maximal_clique_list`. The clique counts come from the leaves of the walk
    that listed the cliques and are checked against `max_cliques` before any
    level is percolated."""
    if not 2 <= k_min <= k_max:
        raise ValueError("need 2 <= k_min <= k_max")
    counts = _clique_counts(maximal, k_min, k_max, max_cliques)
    return SweepResult(
        {k: len(_percolate([c for c in maximal if len(c) >= k], k, rule))
         for k in range(k_min, k_max + 1)},
        counts,
    )
