"""Independent brute-force implementations used as test oracles.

Deliberately naive: subset enumeration, pairwise adjacency checks, BFS over
clique overlap, the numpy formulas the topics layer computes in a faster
order, dict-based degree reports, a record parser built on `json.loads`
with one helper per check, the dict a record's JSON line encodes, and scans
over a list of records for the topic corpora and the description terms.
Nothing here shares code with the package under test; it builds the
package's result types so results compare with `==`. The graph oracles take
and give graphs by name (`Named`); `named` and `package_graph` convert.
"""

import itertools
import json
import random
import re
from collections import Counter, deque
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from echonet.graph import DegreeStats, DegreeSummary, UndirectedGraph
from echonet.profiles import TermFrequencyTable
from echonet.records import RecordError, TweetRecord


@dataclass
class Named:
    """A graph by name: a set of names and a dict from name pairs to weights."""

    nodes: set
    edges: dict


def named(g):
    """A package graph by name."""
    n = len(g.nodes)
    edges = {(g.nodes[key // n], g.nodes[key % n]): w
             for key, w in zip(g.keys.tolist(), g.weights.tolist())}
    return Named(set(g.nodes), edges)


def package_graph(cls, nodes, edges):
    """The package graph of type `cls` (`RetweetGraph` or `UndirectedGraph`)
    on the names `nodes` plus the ends of `edges`, a dict from name pairs to
    weights; an undirected pair is given once, either way round."""
    names = sorted(set(nodes).union(*edges))
    index = {v: i for i, v in enumerate(names)}
    pairs = [(index[u], index[v]) for u, v in edges]
    if cls is UndirectedGraph:
        pairs = [(min(pair), max(pair)) for pair in pairs]
    rows = sorted((u * len(names) + v, w) for (u, v), w in zip(pairs, edges.values()))
    keys = np.array([key for key, _ in rows], dtype=np.int64)
    weights = np.array([w for _, w in rows], dtype=np.int64)
    return cls(names, keys, weights)


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
    """The communities of a package graph."""
    cliques = brute_force_k_cliques(ug.nodes, named(ug).edges, k)
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
    return package_graph(UndirectedGraph, nodes, edges)


def random_edge_set_graph(rng: random.Random, n: int = 8) -> UndirectedGraph:
    """Uniformly random edge subset over n labeled nodes."""
    return random_undirected_graph(rng, n, rng.random())


def complete_graph(n: int) -> UndirectedGraph:
    nodes = [f"v{i}" for i in range(n)]
    edges = {(u, v): 1 for u, v in itertools.combinations(sorted(nodes), 2)}
    return package_graph(UndirectedGraph, nodes, edges)


def brute_force_degeneracy(adj):
    """The largest k for which the graph has a nonempty k-core, found by
    peeling the vertices of degree below k for each k in turn."""
    k = 0
    while True:
        core = {v: set(nbrs) for v, nbrs in adj.items()}
        peeled = True
        while peeled:
            peeled = False
            for v in [v for v, nbrs in core.items() if len(nbrs) < k + 1]:
                for u in core.pop(v):
                    core[u].discard(v)
                peeled = True
        if not core:
            return k
        k += 1


# -- the graph layer's degree reports, one dict of degrees at a time, of a --
# -- `Named` digraph --------------------------------------------------------


def _degree_maps(g, weighted):
    out = {v: 0 for v in g.nodes}
    inn = {v: 0 for v in g.nodes}
    for (u, v), w in g.edges.items():
        out[u] += w if weighted else 1
        inn[v] += w if weighted else 1
    return out, inn


def degree_summary(g):
    if not g.nodes:
        raise ValueError("degree_summary requires a nonempty graph")
    order = sorted(g.nodes)
    out_w, in_w = _degree_maps(g, True)
    out_u, in_u = _degree_maps(g, False)
    as_vec = lambda d: np.array([d[v] for v in order], dtype=float)
    return DegreeSummary(
        node_count=len(g.nodes),
        unique_edge_count=len(g.edges),
        weighted_edge_sum=sum(g.edges.values()),
        out_weighted=DegreeStats.from_values(as_vec(out_w)),
        in_weighted=DegreeStats.from_values(as_vec(in_w)),
        out_unweighted=DegreeStats.from_values(as_vec(out_u)),
        in_unweighted=DegreeStats.from_values(as_vec(in_u)),
    )


def degree_histogram(g):
    rows = []
    for weighting, weighted in (("weighted", True), ("unweighted", False)):
        out_d, in_d = _degree_maps(g, weighted)
        out_c = Counter(out_d.values())
        in_c = Counter(in_d.values())
        for deg in sorted(set(out_c) | set(in_c)):
            rows.append((weighting, deg, out_c.get(deg, 0), in_c.get(deg, 0)))
    return rows


def classify_roles(g, tau):
    """The rows of roles.csv: (user, in_deg, out_deg, score, label), by
    |score| descending, then user."""
    out_w, in_w = _degree_maps(g, True)
    rows = []
    for user in g.nodes:
        i, o = float(in_w[user]), float(out_w[user])
        score = 0.0 if i + o == 0 else (i - o) / (i + o)
        if score >= tau:
            label = "producer"
        elif score <= -tau:
            label = "distributor"
        else:
            label = "mixed"
        rows.append((user, i, o, score, label))
    rows.sort(key=lambda r: (-abs(r[3]), r[0]))
    return rows


def symmetrize(g, min_weight):
    combined = {}
    for (u, v), w in g.edges.items():
        key = (u, v) if u < v else (v, u)
        combined[key] = combined.get(key, 0) + w
    edges = {k: w for k, w in combined.items() if w >= min_weight}
    return Named(set(g.nodes), edges)


# -- the record parser on json.loads, one helper per check, and the writer --


def _parse_created_at(raw):
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise RecordError(f"bad created_at: {raw!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def _clean_optional(value):
    if value is None:
        return None
    if not isinstance(value, str):
        raise RecordError("optional field must be a string")
    return value if value else None


def _require_node_id(value, name):
    if value is not None and ("\n" in value or "\r" in value or value.isspace()):
        raise RecordError(f"{name} must be one line and not only whitespace")


def _normalize_hashtags(raw):
    tags = []
    for tag in raw:
        if not isinstance(tag, str):
            raise RecordError("hashtag entries must be strings")
        tag = tag.lstrip("#").lower()
        if not tag or any(c.isspace() for c in tag) or "#" in tag:
            raise RecordError(f"bad hashtag token: {tag!r}")
        tags.append(tag)
    return tuple(tags)


def record_from_mapping(obj):
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    tweet_id, user_id = obj.get("tweet_id"), obj.get("user_id")
    created_at, text = obj.get("created_at"), obj.get("text")
    if not isinstance(tweet_id, str) or not tweet_id:
        raise RecordError("missing or invalid field: tweet_id")
    if not isinstance(user_id, str) or not user_id:
        raise RecordError("missing or invalid field: user_id")
    _require_node_id(user_id, "user_id")
    if not isinstance(created_at, str) or not created_at:
        raise RecordError("missing or invalid field: created_at")
    if not isinstance(text, str):
        raise RecordError("missing or invalid field: text")
    hashtags_raw = obj.get("hashtags")
    if hashtags_raw is None:
        hashtags = tuple(tag.lower() for tag in re.findall(r"#([A-Za-z0-9_]+)", text))
    elif isinstance(hashtags_raw, (list, tuple)):
        hashtags = _normalize_hashtags(hashtags_raw)
    else:
        raise RecordError("hashtags must be an array")
    retweet_of = _clean_optional(obj.get("retweet_of_user_id"))
    _require_node_id(retweet_of, "retweet_of_user_id")
    rec = TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at=_parse_created_at(created_at),
        text=text,
        hashtags=hashtags,
        retweet_of_user_id=retweet_of,
        user_description=_clean_optional(obj.get("user_description")),
    )
    for value in (rec.tweet_id, rec.user_id, rec.text, rec.retweet_of_user_id,
                  rec.user_description, *rec.hashtags):
        if value is not None and any("\ud800" <= c <= "\udfff" for c in value):
            raise RecordError("a field holds a lone surrogate")
    return rec


def parse_tweet_stream(lines, stats):
    """One record per well-formed line, counting the others in `stats`: the
    line is decoded strictly, stripped, skipped if empty, and given to
    `json.loads`. A line json.loads cannot decode, also for nesting past the
    recursion limit or an integer past the digit limit, is malformed, as is a
    record that an escape gave a string no UTF-8 file can hold."""
    for line in lines:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                stats.malformed += 1
                continue
        line = line.strip()
        if not line:
            continue
        try:
            rec = record_from_mapping(json.loads(line))
        except (ValueError, RecursionError):
            stats.malformed += 1
            continue
        stats.records += 1
        yield rec


def keyword_match(rec, keywords):
    """The keyword rule, one term at a time: a '#term' matches a hashtag equal
    to it after the '#', case aside, and a bare term any case-insensitive
    substring of the text."""
    for term in keywords:
        term = term.lower()
        if term[1:] in rec.hashtags if term.startswith("#") else term in rec.text.lower():
            return True
    return False


def record_to_dict(rec):
    """The JSON object of a record, as `record_to_json` writes it: the
    optional fields only when they are set."""
    out = {
        "tweet_id": rec.tweet_id,
        "user_id": rec.user_id,
        "created_at": rec.created_at.isoformat(),
        "text": rec.text,
        "hashtags": list(rec.hashtags),
    }
    if rec.retweet_of_user_id is not None:
        out["retweet_of_user_id"] = rec.retweet_of_user_id
    if rec.user_description is not None:
        out["user_description"] = rec.user_description
    return out


class NumpyGibbsChain:
    """The collapsed Gibbs chain with numpy count arrays and one numpy formula
    per token, drawing from `random.Random(seed).random()`: one draw per token
    for its initial topic, then one per token per sweep, in token order.
    `GibbsSampler` must follow it bit for bit."""

    def __init__(self, corpus, vocab_size, n_topics, alpha, beta, seed):
        self.n_topics, self.alpha, self.beta = n_topics, alpha, beta
        self.rng = random.Random(seed)
        self.doc_ids = np.concatenate(
            [np.full(len(d.tokens), i, dtype=np.int64) for i, d in enumerate(corpus)]
        )
        self.words = np.concatenate([np.asarray(d.tokens, dtype=np.int64) for d in corpus])
        self.z = np.array([int(self.rng.random() * n_topics) for _ in range(self.words.size)],
                          dtype=np.int64)
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


def community_corpus(records, community, stoptags, per_user=False):
    """A community's hashtag corpus by a scan of every record in `records`:
    (its vocabulary's tokens in index order, [(doc_id, token ids)]). One
    document per member tweet that keeps a tag after `stoptags`, in input
    order; with `per_user`, one per member with such a tweet, in name order,
    holding the kept tags of its tweets in input order. A token's index is
    the order of its first use."""
    members = set(community)
    docs, by_user = [], {}
    for rec in records:
        tags = [t for t in rec.hashtags if t not in stoptags]
        if rec.user_id not in members or not tags:
            continue
        if per_user:
            by_user.setdefault(rec.user_id, []).extend(tags)
        else:
            docs.append((rec.tweet_id, tags))
    if per_user:
        docs = sorted(by_user.items())
    vocab = []
    out = []
    for doc_id, tags in docs:
        for t in tags:
            if t not in vocab:
                vocab.append(t)
        out.append((doc_id, tuple(vocab.index(t) for t in tags)))
    return vocab, out


def description_terms(records, stoplist, top_n):
    """The `TermFrequencyTable` of the users' latest descriptions, recounted
    from `records`, or None if no description holds more than whitespace.
    Of two descriptions a user gave at the same instant, the first in input
    order is the latest."""
    latest = {}
    for r in records:
        if r.user_description and r.user_description.strip():
            if r.user_id not in latest or r.created_at > latest[r.user_id][0]:
                latest[r.user_id] = (r.created_at, r.user_description)
    if not latest:
        return None
    counts = Counter()
    for _, desc in latest.values():
        counts.update(tok for tok in set(re.findall(r"[a-z0-9_]+", desc.lower()))
                      if len(tok) >= 2 and tok not in stoplist)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return TermFrequencyTable([(t, c / len(latest)) for t, c in ranked], len(latest))
