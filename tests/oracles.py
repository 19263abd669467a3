"""Independent brute-force implementations used as test oracles.

Deliberately naive: subset enumeration, pairwise adjacency checks, BFS over
clique overlap, and the numpy formulas the topics layer computes in a faster
order. Nothing here shares code with the package under test.
"""

import itertools
import random
from collections import deque

import numpy as np

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


class NumpyGibbsChain:
    """The collapsed Gibbs chain with numpy count arrays and one numpy formula
    per token; `GibbsSampler` must follow it bit for bit."""

    def __init__(self, corpus, vocab_size, n_topics, alpha, beta, seed):
        self.n_topics, self.alpha, self.beta = n_topics, alpha, beta
        self.rng = np.random.default_rng(seed)
        self.doc_ids = np.concatenate(
            [np.full(len(d.tokens), i, dtype=np.int64) for i, d in enumerate(corpus)]
        )
        self.words = np.concatenate([np.asarray(d.tokens, dtype=np.int64) for d in corpus])
        self.z = self.rng.integers(0, n_topics, size=self.words.size)
        self.ndk = np.zeros((len(corpus), n_topics), dtype=np.int64)
        self.nkw = np.zeros((n_topics, vocab_size), dtype=np.int64)
        self.nk = np.zeros(n_topics, dtype=np.int64)
        np.add.at(self.ndk, (self.doc_ids, self.z), 1)
        np.add.at(self.nkw, (self.z, self.words), 1)
        np.add.at(self.nk, self.z, 1)

    def sweep(self):
        vbeta = self.beta * self.nkw.shape[1]
        for i in range(self.words.size):
            d, w, t = self.doc_ids[i], self.words[i], self.z[i]
            self.ndk[d, t] -= 1
            self.nkw[t, w] -= 1
            self.nk[t] -= 1
            p = (self.ndk[d] + self.alpha) * (self.nkw[:, w] + self.beta) / (self.nk + vbeta)
            cum = np.cumsum(p)
            t = int(np.searchsorted(cum, self.rng.random() * cum[-1], side="right"))
            t = min(t, self.n_topics - 1)
            self.z[i] = t
            self.ndk[d, t] += 1
            self.nkw[t, w] += 1
            self.nk[t] += 1


def per_document_perplexity(model, held_out, passes=50):
    """Training-set perplexity with theta folded in one document at a time."""
    phi = model.topic_word_counts + model.beta
    phi = phi / phi.sum(axis=1, keepdims=True)
    total_log = 0.0
    total_tokens = 0
    t_alpha = model.n_topics * model.alpha
    for doc in held_out:
        words = np.array(
            [w for w in doc.tokens if 0 <= w < model.vocab_size], dtype=np.int64
        )
        if words.size == 0:
            continue
        theta = np.full(model.n_topics, 1.0 / model.n_topics)
        phi_w = phi[:, words]  # (T, n)
        for _ in range(passes):
            gamma = theta[:, None] * phi_w
            gamma /= gamma.sum(axis=0, keepdims=True)
            theta = (gamma.sum(axis=1) + model.alpha) / (words.size + t_alpha)
        p = theta @ phi_w
        total_log += float(np.log(p).sum())
        total_tokens += int(words.size)
    return float(np.exp(-total_log / total_tokens))
