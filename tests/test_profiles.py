import random
import re

import pytest

from conftest import make_record
from echonet.profiles import (
    DEFAULT_STOPLIST,
    description_term_proportions,
)
from echonet.records import RecordTable


def proportions(records, stoplist, top_n):
    """`description_term_proportions` of the table that holds `records`."""
    return description_term_proportions(RecordTable.from_records(records), stoplist, top_n)


def test_basic_proportion():
    records = [
        make_record("t1", "a", description="MAGA all the way"),
        make_record("t2", "b", description="just here"),
        make_record("t3", "c", description="hello world"),
        make_record("t4", "d", description="nothing much"),
    ]
    table = proportions(records, frozenset(), 20)
    assert table.user_base == 4
    assert ("maga", 0.25) in table.terms


def test_per_user_dedup_within_description():
    records = [make_record("t1", "a", description="MAGA maga Maga")]
    table = proportions(records, frozenset(), 5)
    assert table.terms == [("maga", 1.0)]


def test_latest_description_wins():
    records = [
        make_record("t1", "a", description="old words", created="2018-07-01T00:00:00"),
        make_record("t2", "a", description="new stuff", created="2018-07-02T00:00:00"),
    ]
    table = proportions(records, frozenset(), 5)
    assert dict(table.terms) == {"new": 1.0, "stuff": 1.0}


def test_duplication_invariance():
    records = [
        make_record("t1", "a", description="patriot forever"),
        make_record("t2", "b", description="love my country"),
    ]
    base = proportions(records, frozenset(), 10)
    doubled = proportions(records + records, frozenset(), 10)
    assert base == doubled


def test_order_invariance():
    rng = random.Random(1)
    records = [
        make_record(
            f"t{i}",
            f"u{i % 7}",
            description=f"bio words {i % 3}",
            created=f"2018-07-{(i % 28) + 1:02d}T00:00:00",
        )
        for i in range(28)
    ]
    base = proportions(records, frozenset(), 10)
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert proportions(shuffled, frozenset(), 10) == base


def test_stoplist_and_short_tokens_excluded():
    records = [make_record("t1", "a", description="I am the proud NRA patriot x")]
    table = proportions(records, DEFAULT_STOPLIST, 10)
    terms = dict(table.terms)
    assert "the" not in terms and "am" not in terms and "x" not in terms
    assert {"proud", "nra", "patriot"} <= set(terms)


def test_no_descriptions_error():
    with pytest.raises(ValueError):
        proportions([make_record("t1", "a")], frozenset(), 5)
    with pytest.raises(ValueError):
        proportions([make_record("t1", "a", description="   ")], frozenset(), 5)


def test_top_n_and_tie_break():
    records = [
        make_record("t1", "a", description="zebra apple"),
        make_record("t2", "b", description="zebra apple"),
        make_record("t3", "c", description="banana"),
    ]
    table = proportions(records, frozenset(), 2)
    assert [t for t, _ in table.terms] == ["apple", "zebra"]


def test_brute_force_recount_oracle():
    token_re = re.compile(r"[a-z0-9_]+")
    words = ["maga", "trump", "love", "god", "nra", "proud", "the", "of"]
    for trial in range(100):
        rng = random.Random(trial)
        records = []
        for i in range(rng.randint(3, 40)):
            user = f"u{rng.randrange(12)}"
            desc = (
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))
                if rng.random() < 0.8
                else None
            )
            records.append(
                make_record(
                    f"t{i}",
                    user,
                    description=desc,
                    created=f"2018-07-01T{i % 24:02d}:{i % 60:02d}:00",
                )
            )
        stop = frozenset({"the", "of"})
        # brute-force recount
        latest = {}
        for r in records:
            if r.user_description and r.user_description.strip():
                if r.user_id not in latest or r.created_at > latest[r.user_id][0]:
                    latest[r.user_id] = (r.created_at, r.user_description)
        if not latest:
            with pytest.raises(ValueError):
                proportions(records, stop, 50)
            continue
        counts = {}
        for _, desc in latest.values():
            for tok in set(token_re.findall(desc.lower())):
                if len(tok) >= 2 and tok not in stop:
                    counts[tok] = counts.get(tok, 0) + 1
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
        table = proportions(records, stop, 50)
        assert table.user_base == len(latest)
        assert table.terms == [(t, c / len(latest)) for t, c in expected]
        assert all(0 < p <= 1 for _, p in table.terms)
        props = [p for _, p in table.terms]
        assert props == sorted(props, reverse=True)
