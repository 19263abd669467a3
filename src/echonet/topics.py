"""Per-community hashtag corpora and LDA by collapsed Gibbs sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .records import TweetRecord

# collection-query hashtags appear in (nearly) every tweet by construction
DEFAULT_STOPTAGS = frozenset({"q", "qanon"})

# soft-assignment rounds that estimate theta in held_out_perplexity
FOLD_IN_PASSES = 50


class EmptyCorpusError(ValueError):
    """No usable documents remain for a community after filtering."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    tokens: tuple[int, ...]


class Vocabulary:
    """Bijection between hashtag strings and dense indices."""

    def __init__(self):
        self._index: dict[str, int] = {}
        self._tokens: list[str] = []

    def add(self, token: str) -> int:
        idx = self._index.get(token)
        if idx is None:
            idx = len(self._tokens)
            self._index[token] = idx
            self._tokens.append(token)
        return idx

    def token(self, index: int) -> str:
        return self._tokens[index]

    def __len__(self) -> int:
        return len(self._tokens)


@dataclass
class TopicModel:
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


@dataclass
class TopicSummary:
    topics: list[list[tuple[str, float]]]


def build_community_corpus(
    records: Iterable[TweetRecord],
    community: Iterable[str],
    stoptags: frozenset[str] = DEFAULT_STOPTAGS,
    per_user: bool = False,
    community_id: Optional[int] = None,
) -> tuple[Vocabulary, list[Document]]:
    """One document per member tweet (or per member, with per_user) holding its
    hashtags minus the stoplist."""
    members = set(community)
    if not members:
        raise ValueError("community must be nonempty")
    vocab = Vocabulary()
    docs: list[Document] = []
    per_user_tags: dict[str, list[str]] = {}
    for rec in records:
        if rec.user_id not in members:
            continue
        tags = [t for t in rec.hashtags if t not in stoptags]
        if not tags:
            continue
        if per_user:
            per_user_tags.setdefault(rec.user_id, []).extend(tags)
        else:
            docs.append(
                Document(doc_id=rec.tweet_id, tokens=tuple(vocab.add(t) for t in tags))
            )
    if per_user:
        for user in sorted(per_user_tags):
            tags = per_user_tags[user]
            docs.append(Document(doc_id=user, tokens=tuple(vocab.add(t) for t in tags)))
    if not docs:
        raise EmptyCorpusError(
            f"community {community_id if community_id is not None else sorted(members)[:3]}: "
            "no documents with hashtags after filtering"
        )
    return vocab, docs


class GibbsSampler:
    """Collapsed Gibbs chain over token-topic assignments.

    Deterministic given (corpus, hyperparameters, seed); one sweep resamples
    every token once in document order.
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
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.rng = np.random.default_rng(seed)

        self.doc_ids = np.concatenate(
            [np.full(len(d.tokens), i, dtype=np.int64) for i, d in enumerate(corpus)]
        )
        self.words = np.concatenate(
            [np.asarray(d.tokens, dtype=np.int64) for d in corpus]
        )
        if self.words.size and (self.words.min() < 0 or self.words.max() >= vocab_size):
            raise ValueError("token index outside vocabulary")
        n = self.words.size
        self.z = self.rng.integers(0, n_topics, size=n)
        self.ndk = np.zeros((len(corpus), n_topics), dtype=np.int64)
        self.nkw = np.zeros((n_topics, vocab_size), dtype=np.int64)
        self.nk = np.zeros(n_topics, dtype=np.int64)
        np.add.at(self.ndk, (self.doc_ids, self.z), 1)
        np.add.at(self.nkw, (self.z, self.words), 1)
        np.add.at(self.nk, self.z, 1)

    @property
    def token_count(self) -> int:
        return int(self.words.size)

    def sweep(self) -> None:
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

    def counts_consistent(self) -> bool:
        n = self.token_count
        return int(self.ndk.sum()) == n and int(self.nkw.sum()) == n

    def state(self) -> tuple[int, ...]:
        return tuple(int(t) for t in self.z)


def fit_lda(
    corpus: Sequence[Document],
    vocab: Vocabulary,
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
    # the sampler is dropped here, so the model takes its arrays without copies
    return TopicModel(n_topics, alpha, beta, topic_word_counts=sampler.nkw,
                      doc_topic_counts=sampler.ndk, assignments=sampler.z, seed=seed)


def topic_word_distribution(model: TopicModel) -> np.ndarray:
    """Smoothed phi, rows summing to 1."""
    phi = model.topic_word_counts + model.beta
    return phi / phi.sum(axis=1, keepdims=True)


def topic_keywords(model: TopicModel, vocab: Vocabulary, top_n: int) -> TopicSummary:
    """Per topic, top_n (token, probability) pairs; ties broken by vocab index."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    phi = topic_word_distribution(model)
    topics = []
    for t in range(model.n_topics):
        ranked = sorted(range(model.vocab_size), key=lambda w: (-phi[t, w], w))
        topics.append([(vocab.token(w), float(phi[t, w])) for w in ranked[:top_n]])
    return TopicSummary(topics=topics)


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

    The topics stage passes a community's own training documents, so its
    `perplexity` is training-set perplexity: fold-in sees the very words it
    scores."""
    if not held_out:
        raise ValueError("held_out must be nonempty")
    phi = topic_word_distribution(model)
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
        for _ in range(FOLD_IN_PASSES):
            gamma = theta[:, None] * phi_w
            gamma /= gamma.sum(axis=0, keepdims=True)
            theta = (gamma.sum(axis=1) + model.alpha) / (words.size + t_alpha)
        p = theta @ phi_w
        total_log += float(np.log(p).sum())
        total_tokens += int(words.size)
    if total_tokens == 0:
        raise ValueError("no scorable tokens in held-out set")
    return float(np.exp(-total_log / total_tokens))
