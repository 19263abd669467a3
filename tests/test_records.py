import json
import random
from datetime import timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_record
from echonet.records import (
    ParseStats,
    corpus_summary,
    extract_hashtags,
    keyword_filter,
    parse_tweet_csv,
    parse_tweet_stream,
    read_records,
    TweetRecord,
    record_from_mapping,
    record_to_dict,
    record_to_json,
)

GOOD_LINE = json.dumps(
    {
        "tweet_id": "t1",
        "user_id": "u1",
        "created_at": "2018-07-01T12:00:00Z",
        "text": "Save the children #QAnon #WWG1WGA",
    }
)


def test_hashtags_derived_from_text():
    records = list(parse_tweet_stream([GOOD_LINE]))
    assert len(records) == 1
    assert records[0].hashtags == ("qanon", "wwg1wga")


def test_empty_source():
    assert list(parse_tweet_stream([])) == []


def test_malformed_lines_counted():
    rng = random.Random(7)
    good = [
        json.dumps(
            {
                "tweet_id": f"t{i}",
                "user_id": f"u{i % 40}",
                "created_at": "2018-07-01T12:00:00Z",
                "text": f"tweet number {i} #tag{i % 5}",
            }
        )
        for i in range(1000)
    ]
    bad = ["{broken", '{"user_id": "x"}', "[]", "42", '{"tweet_id": ""}', "nope", "{}"]
    lines = good + bad
    rng.shuffle(lines)
    # independent recount: a line is well-formed iff it parses and has the
    # required string fields
    def well_formed(line):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return False
        return isinstance(obj, dict) and all(
            isinstance(obj.get(k), str) and (obj[k] or k == "text")
            for k in ("tweet_id", "user_id", "created_at", "text")
        )

    expected_bad = sum(not well_formed(line) for line in lines)
    assert expected_bad == 7

    stats = ParseStats()
    records = list(parse_tweet_stream(lines, stats))
    assert len(records) == 1000
    assert stats.malformed == 7
    assert stats.records == 1000


def test_keyword_filter_hashtag_token():
    rec = make_record("1", "a", "Big news #QAnon today")
    assert keyword_filter(rec, ["qanon", "#q", "#qanon"])


def test_keyword_filter_exact_q_token():
    rec = make_record("1", "a", "the #q drop is real")
    assert rec.hashtags == ("q",)
    assert keyword_filter(rec, ["#q"])


def test_keyword_filter_no_substring_match_for_hash_terms():
    rec = make_record("1", "a", "quantum anomaly research")
    assert not keyword_filter(rec, ["qanon", "#q", "#qanon"])


def test_keyword_filter_requires_keywords():
    with pytest.raises(ValueError):
        keyword_filter(make_record("1", "a", "x"), [])


@given(st.text(alphabet="qanodrp #QANODRP", max_size=40))
def test_keyword_filter_case_invariant(text):
    keywords = ["qanon", "#q", "#qanon"]
    rec_lower = make_record("1", "a", text.lower())
    rec_upper = make_record("1", "a", text.upper())
    assert keyword_filter(rec_lower, keywords) == keyword_filter(rec_upper, keywords)


def test_corpus_summary_basic():
    records = [
        make_record("1", "a"),
        make_record("2", "a", retweet_of="b"),
        make_record("3", "b"),
    ]
    stats = corpus_summary(records)
    assert (stats.tweet_count, stats.unique_user_count, stats.retweet_count) == (3, 2, 1)


def test_corpus_summary_empty():
    stats = corpus_summary([])
    assert stats.to_dict() == {
        "tweet_count": 0,
        "unique_user_count": 0,
        "retweet_count": 0,
        "records_with_description": 0,
    }


def test_corpus_summary_recount_oracle():
    rng = random.Random(11)
    records = [
        make_record(
            f"t{i}",
            f"u{rng.randrange(500)}",
            retweet_of=f"u{rng.randrange(500)}" if rng.random() < 0.4 else None,
            description="a bio" if rng.random() < 0.3 else None,
        )
        for i in range(10_000)
    ]
    stats = corpus_summary(records)
    # independent hash-set recount
    assert stats.tweet_count == len(records)
    assert stats.unique_user_count == len({r.user_id for r in records})
    assert stats.retweet_count == sum(1 for r in records if r.retweet_of_user_id)
    assert stats.records_with_description == sum(
        1 for r in records if r.user_description
    )


@given(st.permutations(list(range(8))))
def test_corpus_summary_permutation_invariant(perm):
    records = [
        make_record(f"t{i}", f"u{i % 3}", retweet_of="u0" if i % 2 else None)
        for i in range(8)
    ]
    base = corpus_summary(records)
    shuffled = corpus_summary([records[i] for i in perm])
    assert base == shuffled


_record_strategy = st.builds(
    make_record,
    tweet_id=st.text(min_size=1, max_size=8),
    user_id=st.text(min_size=1, max_size=8),
    text=st.text(max_size=60),
    retweet_of=st.one_of(st.none(), st.text(min_size=1, max_size=8)),
    description=st.one_of(st.none(), st.text(min_size=1, max_size=30)),
)


@given(_record_strategy)
def test_serialize_parse_round_trip(rec):
    parsed = list(parse_tweet_stream([record_to_json(rec)]))
    assert parsed == [rec]


# characters json.dumps escapes (or, with ensure_ascii=False, does not) mixed
# with any others
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\b\t\n\x1f\x7f\u2028\u2029éß😀'), st.characters()),
    max_size=12,
)
_OFFSET = st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                        max_value=timedelta(hours=23, minutes=59))


@given(st.builds(
    TweetRecord,
    tweet_id=_JSON_TEXT,
    user_id=_JSON_TEXT,
    created_at=st.datetimes(timezones=st.builds(timezone, _OFFSET)),
    text=_JSON_TEXT,
    hashtags=st.one_of(st.just(()), st.tuples(_JSON_TEXT), st.lists(_JSON_TEXT).map(tuple)),
    retweet_of_user_id=st.none() | _JSON_TEXT,
    user_description=st.none() | _JSON_TEXT,
))
def test_record_to_json_is_the_json_dumps_line(rec):
    assert record_to_json(rec) == json.dumps(record_to_dict(rec), ensure_ascii=False,
                                             sort_keys=True)


def test_csv_parsing(tmp_path):
    path = tmp_path / "tweets.csv"
    path.write_text(
        "tweet_id,user_id,created_at,text,retweet_of_user_id,user_description,hashtags\n"
        't1,u1,2018-07-01T00:00:00+00:00,"hello #QAnon",,a bio,qanon|wwg1wga\n'
        "t2,u2,2018-07-01T00:01:00+00:00,plain tweet,u1,,\n"
    )
    with open(path, newline="") as fh:
        records = list(parse_tweet_csv(fh))
    assert records[0].hashtags == ("qanon", "wwg1wga")
    assert records[0].user_description == "a bio"
    assert records[1].retweet_of_user_id == "u1"
    # hashtags column absent -> derived from text
    assert records[1].hashtags == ()


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_read_records_with_keep_holds_only_accepted_records(tmp_path, suffix):
    path = tmp_path / f"tweets{suffix}"
    if suffix == ".csv":
        path.write_text(
            "tweet_id,user_id,created_at,text\n"
            "t1,u1,2018-07-01T00:00:00Z,#QAnon here\n"
            "t2,u2,not a date,qanon\n"
            "t3,u3,2018-07-01T00:02:00Z,off topic\n"
        )
    else:
        path.write_text("\n".join([GOOD_LINE, "{broken", GOOD_LINE.replace("#QAnon", "")]))
    stats = ParseStats()
    kept = read_records(str(path), stats, lambda r: keyword_filter(r, ["#qanon"]))
    everything = read_records(str(path))
    assert kept == [r for r in everything if keyword_filter(r, ["#qanon"])] != []
    assert (stats.records, stats.malformed) == (2, 1)


def test_provided_hashtags_normalized():
    rec = record_from_mapping(
        {
            "tweet_id": "1",
            "user_id": "a",
            "created_at": "2018-07-01T00:00:00Z",
            "text": "x",
            "hashtags": ["#MAGA", "Trump"],
        }
    )
    assert rec.hashtags == ("maga", "trump")


def test_extract_hashtags_boundaries():
    assert extract_hashtags("#a_b1 stop#here, #x#y ##z") == ("a_b1", "here", "x", "y", "z")


def test_lone_surrogate_in_any_string_field_is_malformed(tmp_path):
    base = {"tweet_id": "t", "user_id": "u1", "created_at": "2018-07-01T12:00:00Z",
            "text": "qanon"}
    lone = {"tweet_id": "t\ud800", "user_id": "u\udfff", "created_at": "2018-07-01T12:00:00\ud800",
            "text": "qanon \uDBFF", "retweet_of_user_id": "u\ud800",
            "user_description": "\udc00 bio", "hashtags": ["q\ud800"]}
    lines = [json.dumps({**base, field: value}) for field, value in lone.items()]
    lines.append(json.dumps(base).replace('"qanon"', '"qanon \\uD800"'))  # upper-case hex
    kept = {
        "pair": {**base, "tweet_id": "pair", "text": "qanon 😀"},  # one astral char
        "escaped": {**base, "tweet_id": "escaped", "text": "qanon \\ud800"},  # a backslash
        "plain": {**base, "tweet_id": "plain", "user_description": "Ünï bio"},
    }
    lines += [json.dumps(obj) for obj in kept.values()]
    assert all("\\ud" in line.lower() for line in lines[:-1])
    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stats = ParseStats()
    records = read_records(str(path), stats)
    assert (stats.malformed, stats.records) == (len(lone) + 1, len(kept))
    assert [r.tweet_id for r in records] == list(kept)
    assert records[0].text == "qanon \U0001f600" and records[1].text == "qanon \\ud800"
    for rec in records:
        record_to_json(rec).encode("utf-8")
