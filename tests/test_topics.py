import csv
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_record
import oracles
from oracles import NumpyGibbsChain, community_corpus, per_document_perplexity
from echonet.topics import (
    Document,
    EmptyCorpusError,
    GibbsSampler,
    TopicModel,
    Vocabulary,
    build_community_corpus,
    doc_topic_distribution,
    fit_lda,
    held_out_perplexity,
    topic_keywords,
    topic_word_distribution,
)
from echonet.records import TOPIC_STOPTAGS, ParseStats, RecordTable, read_records


def vocab_of(tokens):
    v = Vocabulary()
    for t in tokens:
        v.add(t)
    return v


# ---------------------------------------------------------------- corpus


def test_corpus_member_tweets_only():
    records = [
        make_record("t1", "a", "#x #y"),
        make_record("t2", "a", "no tags"),
        make_record("t3", "c", "#z"),
    ]
    vocab, docs = build_community_corpus(RecordTable.from_records(records), {"a"})
    assert [d.tokens for d in docs] == [(0, 1)]
    assert vocab.token(0) == "x" and vocab.token(1) == "y"


def test_corpus_stoplist_forces_empty_error():
    records = [make_record("t1", "a", "#qanon")]
    with pytest.raises(EmptyCorpusError):
        build_community_corpus(RecordTable.from_records(records), {"a"})


def test_corpus_requires_nonempty_community():
    with pytest.raises(ValueError):
        build_community_corpus(RecordTable(), set())


_AUTHORS = ["a", "b", "c", "d"]
_TWEETS = st.lists(st.tuples(st.sampled_from(_AUTHORS),
                             st.none() | st.sampled_from(["a", "b", "target"]),
                             st.lists(st.sampled_from(["alpha", "beta", "gamma", "q", "qanon"]),
                                      max_size=3)),
                   max_size=30)


@settings(max_examples=200, deadline=None)
@given(tweets=_TWEETS, members=st.sets(st.sampled_from(_AUTHORS)), per_user=st.booleans())
@example(tweets=[("b", None, ["beta"]), ("a", "b", ["alpha", "beta"])], members={"a", "b"},
         per_user=True)  # first appearance is not name order
def test_corpus_matches_the_scan_oracle(tweets, members, per_user):
    # "stop" tweets only stoptags, "target" is only retweeted, "absent" is in no record
    records = [make_record("t0", "stop", hashtags=["qanon", "q"])]
    records += [make_record(f"t{i + 1}", user, retweet_of=target, hashtags=tags)
                for i, (user, target, tags) in enumerate(tweets)]
    records.append(make_record("tz", "d", retweet_of="target", hashtags=["gamma"]))
    community = members | {"stop", "target", "absent"}
    expected_vocab, expected_docs = community_corpus(records, community, TOPIC_STOPTAGS,
                                                     per_user)
    table = RecordTable.from_records(records)
    if not expected_docs:
        with pytest.raises(EmptyCorpusError):
            build_community_corpus(table, community, per_user=per_user)
        return
    vocab, docs = build_community_corpus(table, community, per_user=per_user)
    assert [vocab.token(i) for i in range(len(vocab))] == expected_vocab
    assert [(d.doc_id, d.tokens) for d in docs] == expected_docs


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_corpus_doc_ids_of_a_file_with_non_ascii_tweet_ids_match_the_scan_oracle(tmp_path,
                                                                                 suffix):
    ids = ["ü1", "推文", "\U0001f600", "t\u00a0x", "naïve", "ſ", "Ω"]
    rows = [(tweet_id, "ab"[i % 2], f"#tag{i % 3} #x") for i, tweet_id in enumerate(ids)]
    path = tmp_path / f"tweets{suffix}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if suffix == ".csv":
            writer = csv.writer(fh)
            writer.writerow(["tweet_id", "user_id", "created_at", "text"])
            writer.writerows([tweet_id, user, "2018-07-01T00:00:00Z", text]
                             for tweet_id, user, text in rows)
        else:
            fh.writelines(json.dumps({"tweet_id": tweet_id, "user_id": user, "text": text,
                                      "created_at": "2018-07-01T00:00:00Z"}) + "\n"
                          for tweet_id, user, text in rows)
    lines = []
    table = read_records(str(path), None, None, lines.append)
    records = list(oracles.parse_tweet_stream(lines, ParseStats()))
    assert [rec.tweet_id for rec in records] == ids
    for community in ({"a"}, {"b"}, {"a", "b"}):
        _, expected_docs = community_corpus(records, community, TOPIC_STOPTAGS)
        _, docs = build_community_corpus(table, community)
        assert [d.doc_id for d in docs] == [doc_id for doc_id, _ in expected_docs]


def test_corpus_per_user_aggregation():
    records = [
        make_record("t1", "a", "#x"),
        make_record("t2", "a", "#y"),
        make_record("t3", "b", "#z"),
    ]
    vocab, docs = build_community_corpus(RecordTable.from_records(records), {"a", "b"},
                                         per_user=True)
    by_id = {d.doc_id: [vocab.token(w) for w in d.tokens] for d in docs}
    assert by_id == {"a": ["x", "y"], "b": ["z"]}


# ---------------------------------------------------------------- sampler


def test_single_topic_all_zero():
    vocab = vocab_of("ab")
    corpus = [Document("d0", (0, 1, 0)), Document("d1", (1,))]
    model = fit_lda(corpus, vocab, 1, 1.0, 0.1, 5, seed=3)
    assert set(model.assignments.tolist()) == {0}
    assert np.allclose(doc_topic_distribution(model, 0), [1.0])
    assert np.allclose(doc_topic_distribution(model, 1), [1.0])


def test_fit_precondition_errors():
    vocab = vocab_of("a")
    corpus = [Document("d", (0,))]
    with pytest.raises(ValueError):
        fit_lda(corpus, vocab, 0, 1.0, 0.1, 10, 0)
    with pytest.raises(ValueError):
        fit_lda(corpus, vocab, 2, -1.0, 0.1, 10, 0)
    with pytest.raises(ValueError):
        fit_lda(corpus, vocab, 2, 1.0, 0.0, 10, 0)
    with pytest.raises(ValueError):
        fit_lda(corpus, vocab, 2, 1.0, 0.1, 0, 0)
    with pytest.raises(ValueError):
        fit_lda([], vocab, 2, 1.0, 0.1, 10, 0)
    with pytest.raises(ValueError):  # Random(-1) would run Random(1)'s chain
        fit_lda(corpus, vocab, 2, 1.0, 0.1, 10, -1)


def test_conservation_and_determinism():
    rng = random.Random(1)
    vocab = vocab_of([f"w{i}" for i in range(30)])
    corpus = [
        Document(f"d{i}", tuple(rng.randrange(30) for _ in range(rng.randint(1, 8))))
        for i in range(60)
    ]
    total = sum(len(d.tokens) for d in corpus)
    sampler = GibbsSampler(corpus, 30, 4, 0.5, 0.05, seed=9)
    for _ in range(20):
        sampler.sweep()
        assert sampler.counts_consistent()
        assert sum(sampler.nk) == total
    a = fit_lda(corpus, vocab, 4, 0.5, 0.05, 25, seed=123)
    b = fit_lda(corpus, vocab, 4, 0.5, 0.05, 25, seed=123)
    assert np.array_equal(a.assignments, b.assignments)
    assert np.array_equal(a.topic_word_counts, b.topic_word_counts)
    assert np.array_equal(a.doc_topic_counts, b.doc_topic_counts)


@pytest.mark.parametrize("n_topics", [1, 2, 8, 9, 17])
def test_sweep_matches_numpy_chain(n_topics):
    rng = random.Random(n_topics)
    vocab = vocab_of([f"w{i}" for i in range(25)])
    corpus = [
        Document(f"d{i}", tuple(rng.randrange(25) for _ in range(rng.randint(1, 12))))
        for i in range(40)
    ]
    sampler = GibbsSampler(corpus, 25, n_topics, 0.3, 0.02, seed=n_topics + 10)
    chain = NumpyGibbsChain(corpus, 25, n_topics, 0.3, 0.02, seed=n_topics + 10)
    assert sampler.state() == tuple(chain.z.tolist())
    for _ in range(6):
        sampler.sweep()
        chain.sweep()
        assert sampler.state() == tuple(chain.z.tolist())
        assert sampler.ndk == chain.ndk.tolist()
        assert sampler.nwk == chain.nkw.T.tolist()
        assert sampler.nk == chain.nk.tolist()
    model = fit_lda(corpus, vocab, n_topics, 0.3, 0.02, 6, seed=n_topics + 10)
    for got, want in ((model.assignments, chain.z), (model.doc_topic_counts, chain.ndk),
                      (model.topic_word_counts, chain.nkw)):
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


def collapsed_posterior(corpus_tokens, doc_ids, T, V, alpha, beta):
    """Exact collapsed posterior over assignment vectors, by enumeration."""
    n = len(corpus_tokens)
    D = max(doc_ids) + 1
    log_probs = {}
    for z in itertools.product(range(T), repeat=n):
        ndk = [[0] * T for _ in range(D)]
        nkw = [[0] * V for _ in range(T)]
        for d, w, t in zip(doc_ids, corpus_tokens, z):
            ndk[d][t] += 1
            nkw[t][w] += 1
        lp = 0.0
        for d in range(D):
            nd = sum(ndk[d])
            lp += sum(math.lgamma(ndk[d][t] + alpha) for t in range(T))
            lp -= math.lgamma(nd + T * alpha)
        for t in range(T):
            nt = sum(nkw[t])
            lp += sum(math.lgamma(nkw[t][w] + beta) for w in range(V))
            lp -= math.lgamma(nt + V * beta)
        log_probs[z] = lp
    m = max(log_probs.values())
    total = sum(math.exp(lp - m) for lp in log_probs.values())
    return {z: math.exp(lp - m) / total for z, lp in log_probs.items()}


def gibbs_state_distribution(seed, burn_in=500, samples=12_000):
    corpus = [Document("d0", (0, 1)), Document("d1", (0,))]
    sampler = GibbsSampler(corpus, vocab_size=2, n_topics=2, alpha=1.0, beta=1.0, seed=seed)
    for _ in range(burn_in):
        sampler.sweep()
    counts = {}
    for _ in range(samples):
        sampler.sweep()
        s = sampler.state()
        counts[s] = counts.get(s, 0) + 1
    return {s: c / samples for s, c in counts.items()}


def test_exact_posterior_total_variation():
    exact = collapsed_posterior([0, 1, 0], [0, 0, 1], T=2, V=2, alpha=1.0, beta=1.0)
    empirical = gibbs_state_distribution(seed=4)
    tv = 0.5 * sum(
        abs(exact.get(z, 0.0) - empirical.get(z, 0.0))
        for z in set(exact) | set(empirical)
    )
    assert tv < 0.05


def test_topic_separation_small():
    corpus = [Document(f"a{i}", (0, 1)) for i in range(10)] + [
        Document(f"b{i}", (2, 3)) for i in range(10)
    ]
    vocab = vocab_of("ABCD")
    hits = 0
    for seed in range(20):
        model = fit_lda(corpus, vocab, 2, 0.1, 0.01, 200, seed=seed)
        keywords = topic_keywords(model, vocab, 2)
        tops = {frozenset(tok for tok, _ in topic) for topic in keywords}
        if tops == {frozenset("AB"), frozenset("CD")}:
            hits += 1
    assert hits >= 18


# ---------------------------------------------------------------- outputs


def test_keywords_count_ratio():
    vocab = vocab_of("xxy")
    corpus = [Document("d", (0, 0, 1))]
    model = fit_lda(corpus, vocab, 1, 1.0, 1e-6, 20, seed=0)
    keywords = topic_keywords(model, vocab, 5)
    (w1, p1), (w2, p2) = keywords[0]
    assert (w1, w2) == ("x", "y")
    assert p1 == pytest.approx(2 / 3, abs=1e-3)
    assert p2 == pytest.approx(1 / 3, abs=1e-3)


def test_keywords_top_n_exceeds_vocab():
    vocab = vocab_of("ab")
    model = fit_lda([Document("d", (0, 1))], vocab, 2, 1.0, 0.1, 10, seed=0)
    keywords = topic_keywords(model, vocab, 99)
    for topic in keywords:
        assert len(topic) == 2
        probs = [p for _, p in topic]
        assert probs == sorted(probs, reverse=True)
        assert all(0 < p <= 1 for p in probs)


def test_phi_theta_rows_sum_to_one():
    rng = random.Random(2)
    vocab = vocab_of([f"w{i}" for i in range(12)])
    corpus = [
        Document(f"d{i}", tuple(rng.randrange(12) for _ in range(rng.randint(1, 6))))
        for i in range(25)
    ]
    model = fit_lda(corpus, vocab, 3, 0.7, 0.02, 30, seed=8)
    phi = topic_word_distribution(model)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-12)
    for i in range(len(corpus)):
        assert abs(doc_topic_distribution(model, i).sum() - 1.0) < 1e-12


def test_doc_topic_formula():
    # single-token document assigned to topic 0: theta = (counts + alpha)/(len + T*alpha)
    vocab = vocab_of("a")
    corpus = [Document("d", (0,))]
    model = fit_lda(corpus, vocab, 2, 1.0, 0.1, 50, seed=0)
    t = int(model.assignments[0])
    theta = doc_topic_distribution(model, 0)
    expected = [1.0 / 3, 1.0 / 3]
    expected[t] = 2.0 / 3
    assert np.allclose(theta, expected)


def test_doc_topic_index_range():
    vocab = vocab_of("a")
    model = fit_lda([Document("d", (0,))], vocab, 1, 1.0, 0.1, 5, seed=0)
    with pytest.raises(IndexError):
        doc_topic_distribution(model, 1)


def test_doc_topic_matches_raw_counts():
    rng = random.Random(6)
    vocab = vocab_of([f"w{i}" for i in range(9)])
    corpus = [
        Document(f"d{i}", tuple(rng.randrange(9) for _ in range(rng.randint(1, 7))))
        for i in range(15)
    ]
    model = fit_lda(corpus, vocab, 3, 0.4, 0.05, 20, seed=2)
    for i, doc in enumerate(corpus):
        counts = model.doc_topic_counts[i]
        expected = (counts + 0.4) / (len(doc.tokens) + 3 * 0.4)
        assert np.allclose(doc_topic_distribution(model, i), expected)


def test_relabeling_invariance():
    rng = random.Random(10)
    vocab = vocab_of([f"w{i}" for i in range(8)])
    corpus = [
        Document(f"d{i}", tuple(rng.randrange(8) for _ in range(4))) for i in range(12)
    ]
    model = fit_lda(corpus, vocab, 3, 0.5, 0.05, 15, seed=5)
    perm = [2, 0, 1]
    permuted = fit_lda(corpus, vocab, 3, 0.5, 0.05, 15, seed=5)
    permuted.topic_word_counts = model.topic_word_counts[perm]
    permuted.doc_topic_counts = model.doc_topic_counts[:, perm]
    a = topic_keywords(model, vocab, 8)
    b = topic_keywords(permuted, vocab, 8)
    assert sorted(map(tuple, a)) == sorted(map(tuple, b))


# ---------------------------------------------------------------- perplexity


def test_perplexity_uniform_model_equals_vocab_size():
    vocab = vocab_of("abcde")
    model = fit_lda([Document("d", (0,))], vocab, 2, 1.0, 0.1, 5, seed=0)
    # force uniform phi
    model.topic_word_counts = np.zeros_like(model.topic_word_counts)
    held_out = [Document("h", (0, 2, 4, 4))]
    assert held_out_perplexity(model, held_out) == pytest.approx(5.0, rel=1e-9)


def test_perplexity_at_least_one():
    rng = random.Random(3)
    vocab = vocab_of([f"w{i}" for i in range(6)])
    corpus = [
        Document(f"d{i}", tuple(rng.randrange(6) for _ in range(3))) for i in range(10)
    ]
    model = fit_lda(corpus, vocab, 2, 0.5, 0.05, 20, seed=1)
    assert held_out_perplexity(model, corpus) >= 1.0


def test_perplexity_single_topic_closed_form():
    vocab = vocab_of("xxy")
    corpus = [Document("d", (0, 0, 1))]
    model = fit_lda(corpus, vocab, 1, 1.0, 0.5, 10, seed=0)
    # T=1 so theta = [1]; p(w|d) = phi[w] computed by hand
    phi_x = (2 + 0.5) / (3 + 1.0)
    phi_y = (1 + 0.5) / (3 + 1.0)
    held_out = [Document("h", (0, 1, 0))]
    expected = math.exp(-(2 * math.log(phi_x) + math.log(phi_y)) / 3)
    assert held_out_perplexity(model, held_out) == pytest.approx(expected, rel=1e-12)


def test_perplexity_two_topic_independent_recompute():
    vocab = vocab_of("abc")
    corpus = [Document("d0", (0, 0, 1)), Document("d1", (2, 2))]
    model = fit_lda(corpus, vocab, 2, 0.8, 0.3, 30, seed=7)
    held_out = [Document("h", (0, 2))]
    # independent plain-python fold-in with the same definition
    counts = model.topic_word_counts.tolist()
    phi = []
    for row in counts:
        denom = sum(row) + 0.3 * 3
        phi.append([(c + 0.3) / denom for c in row])
    theta = [0.5, 0.5]
    words = [0, 2]
    for _ in range(50):
        sums = [0.0, 0.0]
        for w in words:
            raw = [theta[t] * phi[t][w] for t in range(2)]
            norm = sum(raw)
            for t in range(2):
                sums[t] += raw[t] / norm
        theta = [(sums[t] + 0.8) / (2 + 2 * 0.8) for t in range(2)]
    log_total = sum(
        math.log(sum(theta[t] * phi[t][w] for t in range(2))) for w in words
    )
    expected = math.exp(-log_total / 2)
    assert held_out_perplexity(model, held_out) == pytest.approx(expected, rel=1e-9)


def test_perplexity_skips_oov_and_errors_when_nothing_scorable():
    vocab = vocab_of("ab")
    model = fit_lda([Document("d", (0, 1))], vocab, 1, 1.0, 0.1, 5, seed=0)
    # token 99 is outside the two-word vocabulary, so only token 0 is scored
    with_oov = held_out_perplexity(model, [Document("h", (0, 99))])
    assert with_oov == held_out_perplexity(model, [Document("h", (0,))])
    assert with_oov >= 1.0
    with pytest.raises(ValueError):
        held_out_perplexity(model, [Document("h", (99,))])
    with pytest.raises(ValueError):
        held_out_perplexity(model, [])


@pytest.mark.parametrize("n_topics", [1, 2, 3, 8, 9, 10, 16, 17, 33])
def test_fold_in_matches_per_document(n_topics):
    """Grouping documents by length must not change a bit of the result."""
    rng = np.random.default_rng(n_topics)
    vocab_size = 40
    for _ in range(3):
        model = TopicModel(
            n_topics, float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.001, 1.0)),
            topic_word_counts=rng.integers(0, 50, size=(n_topics, vocab_size)),
            doc_topic_counts=np.zeros((1, n_topics), dtype=np.int64),
            assignments=np.zeros(0, dtype=np.int64), seed=0,
        )
        lengths = [1, 1, 2, 7, 7, 7, 8, 9, 33, 33, 128, 129, 300, 300]
        lengths += rng.integers(1, 301, size=6).tolist()
        rng.shuffle(lengths)
        # indices past vocab_size are out of vocabulary and get skipped
        held_out = [
            Document(f"h{i}", tuple(rng.integers(0, vocab_size + 3, size=n).tolist()))
            for i, n in enumerate(lengths)
        ]
        held_out.append(Document("oov", (vocab_size, vocab_size + 1)))
        assert held_out_perplexity(model, held_out) == per_document_perplexity(model, held_out)
