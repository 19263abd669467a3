"""Weighted retweet digraph, degree statistics, role scores, symmetrization."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Hashable, Iterable, Mapping

import numpy as np

from .records import TweetRecord


@dataclass
class RetweetGraph:
    """Directed graph over users; edges[(u, v)] counts retweets of v by u."""

    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)


@dataclass
class UndirectedGraph:
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def adjacency(self, index: Mapping[str, Hashable] | None = None) -> dict:
        """Each node's neighbour set. With `index`, a map from every node to
        an id, the sets are keyed by id and hold ids."""
        if index is None:
            index = {v: v for v in self.nodes}
        adj: dict = {i: set() for i in index.values()}
        for u, v in self.edges:
            a, b = index[u], index[v]
            adj[a].add(b)
            adj[b].add(a)
        return adj


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


@dataclass
class RoleScore:
    user: str
    in_deg: float
    out_deg: float
    score: float
    label: str


def build_retweet_graph(records: Iterable[TweetRecord]) -> RetweetGraph:
    """Aggregate retweet events into edge weights; self-retweets dropped."""
    g = RetweetGraph()
    nodes, edges = g.nodes, g.edges
    for rec in records:
        user, target = rec.user_id, rec.retweet_of_user_id
        nodes.add(user)
        if target is None or target == user:
            continue
        nodes.add(target)
        key = (user, target)
        edges[key] = edges.get(key, 0) + 1
    return g


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
    """Intern the nodes of `g` in sorted order and count its degrees with
    `np.bincount`: the input of the degree reports."""
    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n, m = len(nodes), len(g.edges)
    ends = np.fromiter((index[v] for edge in g.edges for v in edge), dtype=np.intp, count=2 * m)
    weights = np.fromiter(g.edges.values(), dtype=np.float64, count=m)
    src, dst = ends[0::2], ends[1::2]
    return NodeDegrees(
        nodes,
        np.bincount(src, weights=weights, minlength=n).astype(np.int64),
        np.bincount(dst, weights=weights, minlength=n).astype(np.int64),
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


def classify_roles(d: NodeDegrees, tau: float) -> list[RoleScore]:
    """Score = (in - out) / (in + out) over weighted degrees; +1 pure producer,
    -1 pure distributor. Sorted by |score| descending, then user id."""
    if not 0 < tau <= 1:
        raise ValueError("tau must be in (0, 1]")
    if not d.nodes:
        return []
    in_w, out_w = d.in_weighted.astype(np.float64), d.out_weighted.astype(np.float64)
    total = in_w + out_w
    score = np.divide(in_w - out_w, total, out=np.zeros(len(total)), where=total != 0)
    order = np.argsort(-np.abs(score), kind="stable")  # ties stay in id order
    nodes = d.nodes
    roles = []
    for k, s, i, o in zip(order.tolist(), score[order].tolist(), in_w[order].tolist(),
                          out_w[order].tolist()):
        label = "producer" if s >= tau else "distributor" if s <= -tau else "mixed"
        roles.append(RoleScore(user=nodes[k], in_deg=i, out_deg=o, score=s, label=label))
    return roles


def symmetrize(g: RetweetGraph, min_weight: int = 1) -> UndirectedGraph:
    """Combined weight e_uv + e_vu; edges below min_weight dropped, nodes kept."""
    if min_weight < 1:
        raise ValueError("min_weight must be >= 1")
    combined: dict[tuple[str, str], int] = {}
    for (u, v), w in g.edges.items():
        key = (u, v) if u < v else (v, u)
        combined[key] = combined.get(key, 0) + w
    edges = {k: w for k, w in combined.items() if w >= min_weight}
    return UndirectedGraph(nodes=set(g.nodes), edges=edges)
