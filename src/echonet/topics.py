"""Per-community hashtag corpora and LDA by collapsed Gibbs sampling."""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .records import RecordTable

# soft-assignment rounds that estimate theta in held_out_perplexity
FOLD_IN_PASSES = 50


class EmptyCorpusError(ValueError):
    """No usable documents remain for a community after filtering."""


class Document(NamedTuple):
    doc_id: str
    tokens: tuple[int, ...]


class TopicModel(NamedTuple):
    n_topics: int
    alpha: float
    beta: float
    topic_word_counts: np.ndarray  # (n_topics, V)
    doc_topic_counts: np.ndarray  # (D, n_topics)
    assignments: np.ndarray  # per-token topic label
    seed: int

    @property
    def vocab_size(self) -> int:
        return self.topic_word_counts.shape[1]

    @property
    def n_docs(self) -> int:
        return self.doc_topic_counts.shape[0]


def build_community_corpus(
    table: RecordTable,
    community: Iterable[str],
    per_user: bool = False,
    community_id: Optional[int] = None,
) -> tuple[list[str], list[Document]]:
    """One document per member tweet that carries a topic tag (or per member
    with such a tweet, with per_user) holding its topic tags: its hashtags
    minus `records.TOPIC_STOPTAGS`, which the table's tagged rows hold.
    Returns the vocabulary, each tag once in order of first use, and the
    documents, whose token `w` is the tag `vocab[w]`."""
    members = set(community)
    if not members:
        raise ValueError("community must be nonempty")
    tagged: list[tuple[str, Sequence[str]]] = []  # (doc id, its tags) per document
    per_user_tags: dict[int, list[str]] = {}  # user code -> tags
    for row in table.rows_of(members).tolist():
        tags = table.hashtags[row]
        if per_user:
            per_user_tags.setdefault(table.tagged_user_id[row], []).extend(tags)
        else:
            tagged.append((table.tweet_id[row], tags))
    if per_user:
        for user in sorted(members & table.user_codes.keys()):
            tags = per_user_tags.get(table.user_codes[user])
            if tags:
                tagged.append((user, tags))
    if not tagged:
        raise EmptyCorpusError(
            f"community {community_id if community_id is not None else sorted(members)[:3]}: "
            "no documents with hashtags after filtering"
        )
    vocab: dict[str, int] = {}  # tag -> token, in order of first use
    docs = [Document(doc_id, tuple([vocab.setdefault(tag, len(vocab)) for tag in tags]))
            for doc_id, tags in tagged]
    return list(vocab), docs


class GibbsSampler:
    """Collapsed Gibbs chain over token-topic assignments.

    Deterministic given (corpus, hyperparameters, seed); one sweep resamples
    every token once in document order. The chain state lives in Python
    lists: `ndk` (one row per document), `nwk` (one row per word, so the
    word's topic counts are one list), `nk`, `z`, `doc_ids` and `words`. For
    each token, a sweep computes the numpy formula

        p = (ndk[d] + alpha) * (nwk[w] + beta) / (nk + V * beta)
        t = searchsorted(cumsum(p), u * cumsum(p)[-1], side="right")

    one topic at a time in Python floats: the same IEEE operations in the same
    order, so the chain is the numpy formula's bit for bit, without numpy's
    per-call cost on arrays of n_topics elements.

    Every draw is one `random.Random(seed).random()`, taken in token order:
    one per token for its initial topic, int(u * n_topics), and one per token
    in each sweep. Python keeps the `random()` stream of an int seed the same
    across versions (`randrange` and the other methods make no such promise),
    and `random` is loaded with the interpreter, where `numpy.random` would
    load its extension modules for these uniforms alone.
    """

    def __init__(
        self,
        corpus: Sequence[Document],
        vocab_size: int,
        n_topics: int,
        alpha: float,
        beta: float,
        seed: int,
    ):
        if n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not corpus:
            raise ValueError("corpus must be nonempty")
        if seed < 0:  # Random(-s) would be Random(s)'s chain
            raise ValueError("seed must be >= 0")
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.rng = random.Random(seed)

        self.doc_ids = [i for i, d in enumerate(corpus) for _ in d.tokens]
        self.words = [w for d in corpus for w in d.tokens]
        if any(not 0 <= w < vocab_size for w in self.words):
            raise ValueError("token index outside vocabulary")
        rand = self.rng.random
        self.z = [int(rand() * n_topics) for _ in self.words]  # u < 1, so < n_topics
        self.ndk = [[0] * n_topics for _ in corpus]
        self.nwk = [[0] * n_topics for _ in range(vocab_size)]
        self.nk = [0] * n_topics
        for d, w, t in zip(self.doc_ids, self.words, self.z):
            self.ndk[d][t] += 1
            self.nwk[w][t] += 1
            self.nk[t] += 1

    @property
    def token_count(self) -> int:
        return len(self.words)

    def sweep(self) -> None:
        alpha, beta, ndk, nwk, nk, z = self.alpha, self.beta, self.ndk, self.nwk, self.nk, self.z
        vbeta = beta * len(nwk)
        last = self.n_topics - 1
        rand = self.rng.random
        for i, (d, w) in enumerate(zip(self.doc_ids, self.words)):
            doc, word, t = ndk[d], nwk[w], z[i]
            doc[t] -= 1
            word[t] -= 1
            nk[t] -= 1
            total = 0.0
            cum = []
            for a, b, c in zip(doc, word, nk):
                total += (a + alpha) * (b + beta) / (c + vbeta)
                cum.append(total)
            t = bisect_right(cum, rand() * total)
            if t > last:  # the draw times total can round up to total
                t = last
            z[i] = t
            doc[t] += 1
            word[t] += 1
            nk[t] += 1

    def counts_consistent(self) -> bool:
        n = self.token_count
        return sum(map(sum, self.ndk)) == n and sum(map(sum, self.nwk)) == n

    def state(self) -> tuple[int, ...]:
        return tuple(self.z)


def fit_lda(
    corpus: Sequence[Document],
    vocab: Sequence[str],
    n_topics: int,
    alpha: float,
    beta: float,
    iterations: int,
    seed: int,
) -> TopicModel:
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    sampler = GibbsSampler(corpus, len(vocab), n_topics, alpha, beta, seed)
    for _ in range(iterations):
        sampler.sweep()
    nwk = np.array(sampler.nwk, dtype=np.int64).reshape(len(vocab), n_topics)
    return TopicModel(n_topics, alpha, beta,
                      topic_word_counts=np.ascontiguousarray(nwk.T),
                      doc_topic_counts=np.array(sampler.ndk, dtype=np.int64),
                      assignments=np.array(sampler.z, dtype=np.int64), seed=seed)


def topic_word_distribution(model: TopicModel) -> np.ndarray:
    """Smoothed phi, rows summing to 1."""
    phi = model.topic_word_counts + model.beta
    return phi / phi.sum(axis=1, keepdims=True)


def topic_keywords(
    model: TopicModel, vocab: Sequence[str], top_n: int
) -> list[list[tuple[str, float]]]:
    """Per topic, its top_n (token, probability) pairs; ties broken by vocab index."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    phi = topic_word_distribution(model)
    topics = []
    for t in range(model.n_topics):
        ranked = sorted(range(model.vocab_size), key=lambda w: (-phi[t, w], w))
        topics.append([(vocab[w], float(phi[t, w])) for w in ranked[:top_n]])
    return topics


def doc_topic_distribution(model: TopicModel, doc_index: int) -> np.ndarray:
    if not 0 <= doc_index < model.n_docs:
        raise IndexError(f"doc_index {doc_index} out of range")
    counts = model.doc_topic_counts[doc_index]
    theta = counts + model.alpha
    return theta / theta.sum()


def held_out_perplexity(model: TopicModel, held_out: Sequence[Document]) -> float:
    """exp(-mean log p(w|d)) with theta estimated per document by
    FOLD_IN_PASSES rounds of soft assignment against frozen phi. Token indices
    outside the training vocabulary are skipped.

    Documents with the same number n of scorable tokens fold in together as
    one (D, T, n) array. Each (T, n) slab has the memory layout of
    phi[:, words], and numpy's summation order follows the layout, so every
    document gets the arithmetic of folding it in alone; p(w|d), its log-sum
    and the running total are then taken per document, in document order.

    The topics stage passes a community's own training documents, so its
    `perplexity` is training-set perplexity: fold-in sees the very words it
    scores."""
    if not held_out:
        raise ValueError("held_out must be nonempty")
    phi = topic_word_distribution(model)
    t_alpha = model.n_topics * model.alpha
    by_length: dict[int, list[tuple[int, list[int]]]] = {}
    for i, doc in enumerate(held_out):
        words = [w for w in doc.tokens if 0 <= w < model.vocab_size]
        if words:
            by_length.setdefault(len(words), []).append((i, words))
    folded = []
    for n, group in by_length.items():
        # phi.T[W] is C-ordered (D, n, T); transposed, each slab is laid out like phi[:, words]
        phi_w = phi.T[np.array([words for _, words in group])].transpose(0, 2, 1)
        theta = np.full((len(group), model.n_topics), 1.0 / model.n_topics)
        for _ in range(FOLD_IN_PASSES):
            gamma = theta[:, :, None] * phi_w
            gamma /= gamma.sum(axis=1, keepdims=True)
            theta = (gamma.sum(axis=2) + model.alpha) / (n + t_alpha)
        folded.extend((i, theta[j], phi_w[j]) for j, (i, _) in enumerate(group))
    if not folded:
        raise ValueError("no scorable tokens in held-out set")
    total_log = 0.0
    total_tokens = 0
    for _, theta, phi_w in sorted(folded, key=lambda item: item[0]):
        total_log += float(np.log(theta @ phi_w).sum())
        total_tokens += phi_w.shape[1]
    return float(np.exp(-total_log / total_tokens))
