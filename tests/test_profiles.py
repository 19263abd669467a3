import csv
import json
import os
import random
import tempfile
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_record
from oracles import description_terms
from echonet.profiles import (
    DEFAULT_STOPLIST,
    NoDescriptionsError,
    description_term_proportions,
)
from echonet.records import CSV_COLUMNS, RecordTable, read_records


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
        expected = description_terms(records, stop, 50)
        if expected is None:
            with pytest.raises(ValueError):
                proportions(records, stop, 50)
            continue
        table = proportions(records, stop, 50)
        assert table == expected
        assert all(0 < p <= 1 for _, p in table.terms)
        props = [p for _, p in table.terms]
        assert props == sorted(props, reverse=True)


@pytest.mark.parametrize("first, second", [
    ("2018-07-01T12:00:00+00:00", "2018-07-01T12:00:00+00:00"),
    ("2018-07-01T13:00:00+01:00", "2018-07-01T12:00:00+00:00"),
], ids=["same-text", "across-offsets"])
def test_of_two_descriptions_at_one_instant_the_first_in_input_order_wins(first, second):
    for one, two in (("alpha", "omega"), ("omega", "alpha")):
        records = [make_record("t1", "a", description=one, created=first),
                   make_record("t2", "a", description=two, created=second)]
        table = proportions(records, frozenset(), 5)
        assert table == description_terms(records, frozenset(), 5)
        assert table.terms == [(one, 1.0)]


_INSTANTS = [datetime(2020, 6, 1, 12, minute, tzinfo=timezone.utc) for minute in range(3)]
_ZONES = [timezone.utc, timezone(timedelta(hours=-5)), timezone(timedelta(hours=2, minutes=30))]
# words, stopwords, one-letter tokens, and whitespace that only str.isspace calls blank
_BIOS = st.lists(st.sampled_from(["maga", "proud", "mom", "the", "of", "a", "x1", " ", "\t",
                                  "\n", "　"]), max_size=5).map("".join)


@st.composite
def _description_objects(draw):
    """Input objects from two authors and two users seen only as retweet
    targets, at three instants, each written in one of three offsets: ties at
    one instant, blank, absent and repeated descriptions, and later records
    without one."""
    objs = []
    for i in range(draw(st.integers(0, 14))):
        obj = {"tweet_id": f"t{i}", "user_id": draw(st.sampled_from(["a", "b"])), "text": "rt",
               "created_at": draw(st.sampled_from(_INSTANTS))
                             .astimezone(draw(st.sampled_from(_ZONES))).isoformat()}
        target = draw(st.sampled_from([None, "a", "b", "r0", "r1"]))
        if target is not None:
            obj["retweet_of_user_id"] = target
        # a few fixed bios, so that one user often repeats a text out of time order
        description = draw(st.none() | st.sampled_from(["maga mom", "proud x1", " "]) | _BIOS)
        if description is not None:
            obj["user_description"] = description
        objs.append(obj)
    return objs


@given(_description_objects(), st.sampled_from(["jsonl", "csv"]))
@example([{"tweet_id": f"t{i}", "user_id": "a", "text": "rt", "user_description": bio,
           "created_at": f"2020-06-01T12:0{minute}:00+00:00"}
          for i, (bio, minute) in enumerate([("maga mom", 0), ("maga mom", 2), ("proud x1", 1)])],
         "jsonl")
@settings(max_examples=150, deadline=None)
def test_the_per_user_fold_gives_the_oracle_terms_and_counts(objs, form):
    records = [oracles.record_from_mapping(obj) for obj in objs]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"tweets.{form}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if form == "csv":
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
                writer.writeheader()
                writer.writerows(objs)
            else:
                fh.writelines(json.dumps(obj) + "\n" for obj in objs)
        table = read_records(path)
    assert len(table) == len(records)
    assert table.records_with_description == sum(
        1 for r in records if r.user_description and r.user_description.strip())
    expected = description_terms(records, DEFAULT_STOPLIST, 50)
    if expected is None:
        with pytest.raises(NoDescriptionsError):
            description_term_proportions(table, DEFAULT_STOPLIST, 50)
    else:
        assert description_term_proportions(table, DEFAULT_STOPLIST, 50) == expected
