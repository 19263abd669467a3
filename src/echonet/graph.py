"""Weighted retweet digraph, degree statistics, role scores, symmetrization.

Both graph types name each user once, in sorted order, so that a node's int
id (its index in `nodes`) orders it as its name does, and keep their edges,
weights and degrees in numpy int arrays. Names come back only where a file
is written.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from .records import RecordTable

CHUNK = 1 << 12  # array items turned into Python values at a time


@dataclass
class _Graph:
    """`nodes` are the names in sorted order. Row j of `edges` is a pair of
    node ids, the rows unique and in sorted order, and `weights[j]` is its weight."""

    nodes: list[str] = field(default_factory=list)
    edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


class RetweetGraph(_Graph):
    """Directed graph over users; the edge (u, v) counts the retweets of v by u."""


class UndirectedGraph(_Graph):
    """Undirected graph over users; each edge is given once, as u < v."""

    def adjacency(self, keep: np.ndarray | None = None) -> dict[int, set[int]]:
        """Each node's neighbour set, by id. With `keep`, a boolean mask over
        `edges`, only the kept edges count and only the nodes they touch appear."""
        edges = self.edges if keep is None else self.edges[keep]
        if keep is None:
            ids = range(len(self.nodes))
        else:
            ids = np.flatnonzero(np.bincount(edges.ravel(), minlength=len(self.nodes))).tolist()
        adj: dict[int, set[int]] = {i: set() for i in ids}
        for s in range(0, len(edges), CHUNK):
            rows = edges[s:s + CHUNK]
            for u, v in zip(rows[:, 0].tolist(), rows[:, 1].tolist()):
                adj[u].add(v)
                adj[v].add(u)
        return adj

    def named_edges(self) -> Iterator[tuple[str, str, int]]:
        """Each edge as (u, v, weight) by name, in the order of `edges`."""
        names = self.nodes
        for s in range(0, len(self.edges), CHUNK):
            rows = self.edges[s:s + CHUNK]
            for u, v, w in zip(rows[:, 0].tolist(), rows[:, 1].tolist(),
                               self.weights[s:s + CHUNK].tolist()):
                yield names[u], names[v], w


def _key_pairs(keys: np.ndarray, n: int) -> np.ndarray:
    """The (u, v) rows of the keys u * n + v."""
    return np.stack(np.divmod(keys, n), axis=1)


@dataclass
class DegreeStats:
    min: float
    max: float
    mean: float
    variance: float
    skew: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DegreeStats":
        x = np.asarray(values, dtype=float)
        mean = float(x.mean())
        centered = x - mean
        m2 = float((centered**2).mean())
        m3 = float((centered**3).mean())
        skew = m3 / m2**1.5 if m2 > 0 else 0.0
        return cls(
            min=float(x.min()),
            max=float(x.max()),
            mean=mean,
            variance=m2,
            skew=skew,
        )


@dataclass
class DegreeSummary:
    node_count: int
    unique_edge_count: int
    weighted_edge_sum: int
    out_weighted: DegreeStats
    in_weighted: DegreeStats
    out_unweighted: DegreeStats
    in_unweighted: DegreeStats

    def to_dict(self) -> dict:
        return {
            "node_count": self.node_count,
            "unique_edge_count": self.unique_edge_count,
            "weighted_edge_sum": self.weighted_edge_sum,
            # the unweighted pair is the one comparable to published mean
            # figures of the form unique_edge_count / node_count
            "unweighted": {"out": asdict(self.out_unweighted), "in": asdict(self.in_unweighted)},
            "weighted": {"out": asdict(self.out_weighted), "in": asdict(self.in_weighted)},
        }


def build_retweet_graph(table: RecordTable) -> RetweetGraph:
    """Aggregate retweet events into edge weights; self-retweets dropped. The
    table's 32-bit user codes are renumbered to int64 node ids in name order."""
    codes = table.user_codes
    nodes = sorted(codes)
    n = len(nodes)
    ids = np.empty(n, dtype=np.int64)  # user code -> id
    ids[np.fromiter(map(codes.__getitem__, nodes), dtype=np.int64, count=n)] = np.arange(n)
    users = np.frombuffer(table.user_id, dtype=np.intc)
    targets = np.frombuffer(table.retweet_of_user_id, dtype=np.intc)
    retweets = (targets >= 0) & (targets != users)
    keys, weights = np.unique(ids[users[retweets]] * n + ids[targets[retweets]],
                              return_counts=True)
    return RetweetGraph(nodes, _key_pairs(keys, n), weights)


@dataclass(frozen=True)
class NodeDegrees:
    """A digraph's nodes in sorted order, so that a node's index orders it as
    its name does, and its four degree vectors (int64) by that index."""

    nodes: list[str]
    out_weighted: np.ndarray
    in_weighted: np.ndarray
    out_unweighted: np.ndarray
    in_unweighted: np.ndarray


def node_degrees(g: RetweetGraph) -> NodeDegrees:
    """Count the degrees of `g` with `np.bincount`: the input of the degree reports."""
    n = len(g.nodes)
    src, dst = g.edges[:, 0], g.edges[:, 1]
    return NodeDegrees(
        g.nodes,
        np.bincount(src, weights=g.weights, minlength=n).astype(np.int64),
        np.bincount(dst, weights=g.weights, minlength=n).astype(np.int64),
        np.bincount(src, minlength=n),
        np.bincount(dst, minlength=n),
    )


def degree_summary(d: NodeDegrees) -> DegreeSummary:
    """Moments of the four degree distributions of `d`, a `node_degrees` result."""
    if not d.nodes:
        raise ValueError("degree_summary requires a nonempty graph")
    return DegreeSummary(
        node_count=len(d.nodes),
        unique_edge_count=int(d.out_unweighted.sum()),
        weighted_edge_sum=int(d.out_weighted.sum()),
        out_weighted=DegreeStats.from_values(d.out_weighted),
        in_weighted=DegreeStats.from_values(d.in_weighted),
        out_unweighted=DegreeStats.from_values(d.out_unweighted),
        in_unweighted=DegreeStats.from_values(d.in_unweighted),
    )


def degree_histogram(d: NodeDegrees) -> list[tuple[str, int, int, int]]:
    """Rows (weighting, degree, out_count, in_count) for distribution plots,
    for each degree some node has."""
    if not d.nodes:
        return []
    rows = []
    for weighting, out_d, in_d in (("weighted", d.out_weighted, d.in_weighted),
                                   ("unweighted", d.out_unweighted, d.in_unweighted)):
        size = int(max(out_d.max(), in_d.max())) + 1
        out_c, in_c = np.bincount(out_d, minlength=size), np.bincount(in_d, minlength=size)
        present = np.flatnonzero(out_c + in_c)
        rows += [(weighting, deg, o, i) for deg, o, i in
                 zip(present.tolist(), out_c[present].tolist(), in_c[present].tolist())]
    return rows


ROLE_LABELS = ("distributor", "mixed", "producer")  # at 1 + (score >= tau) - (score <= -tau)


def classify_roles(d: NodeDegrees, tau: float) -> Iterator[tuple[str, float, float, float, str]]:
    """Score = (in - out) / (in + out) over weighted degrees; +1 pure producer,
    -1 pure distributor. A score >= tau labels a producer, <= -tau a
    distributor, and any other mixed. The scores, their order (by |score|
    descending, then user id) and the labels are computed here, as arrays;
    the rows of roles.csv, (user, in_deg, out_deg, score, label), are made
    from them as the returned iterator is read."""
    if not 0 < tau <= 1:
        raise ValueError("tau must be in (0, 1]")
    in_w, out_w = d.in_weighted.astype(np.float64), d.out_weighted.astype(np.float64)
    total = in_w + out_w
    score = np.divide(in_w - out_w, total, out=np.zeros(len(total)), where=total != 0)
    order = np.argsort(-np.abs(score), kind="stable")  # ties stay in id order
    label = 1 + (score >= tau).astype(np.int8) - (score <= -tau).astype(np.int8)
    return _role_rows(d.nodes, order, in_w, out_w, score, label)


def _role_rows(names, order, in_w, out_w, score, label):
    for s in range(0, len(order), CHUNK):
        ids = order[s:s + CHUNK]
        for k, i, o, sc, lb in zip(ids.tolist(), in_w[ids].tolist(), out_w[ids].tolist(),
                                   score[ids].tolist(), label[ids].tolist()):
            yield names[k], i, o, sc, ROLE_LABELS[lb]


def symmetrize(g: RetweetGraph, min_weight: int = 1) -> UndirectedGraph:
    """Combined weight e_uv + e_vu; edges below min_weight dropped, nodes kept."""
    if min_weight < 1:
        raise ValueError("min_weight must be >= 1")
    n = len(g.nodes)
    src, dst = g.edges[:, 0], g.edges[:, 1]
    keys, pair = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst), return_inverse=True)
    weights = np.bincount(pair, weights=g.weights, minlength=len(keys)).astype(np.int64)
    kept = weights >= min_weight
    return UndirectedGraph(g.nodes, _key_pairs(keys[kept], n), weights[kept])
