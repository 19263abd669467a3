import codecs
import csv
import gc
import io
import itertools
import json
import os
import random
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import columns, make_record, table_of
from echonet.records import (
    CSV_COLUMNS,
    DEFAULT_KEYWORDS,
    ParseStats,
    RecordError,
    RecordTable,
    _csv_mappings,
    corpus_summary,
    created_us,
    extract_hashtags,
    keyword_filter,
    read_records,
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


def _tweet(text, **fields):
    """An input mapping of a tweet with `text`, the other fields given or made up."""
    return {"tweet_id": "1", "user_id": "a", "created_at": "2018-07-01T00:00:00Z", "text": text,
            **fields}


def _oracle_line(obj):
    """The `filtered.jsonl` line of the input mapping `obj`, as the `json.loads`
    oracle reads it and `json.dumps` writes it."""
    return json.dumps(oracles.record_to_dict(oracles.record_from_mapping(obj)),
                      ensure_ascii=False, sort_keys=True)


def _instant(text):
    """The aware datetime that a created_at text names, no offset read as UTC."""
    when = datetime.fromisoformat(text.replace("Z", "+00:00"))
    return when if when.tzinfo else when.replace(tzinfo=timezone.utc)


def test_hashtags_derived_from_text():
    assert json.loads(record_to_json(json.loads(GOOD_LINE)))["hashtags"] == ["qanon", "wwg1wga"]
    # tags are found before lowering: the Kelvin sign and "\u0130" lower into ASCII
    text = "#\u212aelvin #\u0130stanbul #OK"
    assert json.loads(record_to_json(_tweet(text)))["hashtags"] == ["ok"]


def test_empty_source(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_bytes(b"")
    stats = ParseStats()
    assert len(read_records(str(path), stats)) == 0
    assert stats == ParseStats()


def test_malformed_lines_counted(tmp_path):
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

    path = tmp_path / "tweets.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    stats = ParseStats()
    assert len(read_records(str(path), stats)) == 1000
    assert stats.malformed == 7
    assert stats.records == 1000


def test_keyword_filter_hashtag_token():
    assert keyword_filter(_tweet("Big news #QAnon today"), ["qanon", "#q", "#qanon"])


def test_keyword_filter_exact_q_token():
    obj = _tweet("the #q drop is real")
    assert json.loads(record_to_json(obj))["hashtags"] == ["q"]
    assert keyword_filter(obj, ["#q"])


def test_keyword_filter_no_substring_match_for_hash_terms():
    assert not keyword_filter(_tweet("quantum anomaly research"), ["qanon", "#q", "#qanon"])


def test_keyword_filter_requires_keywords():
    with pytest.raises(ValueError):
        keyword_filter(_tweet("x"), [])


@given(st.text(alphabet="qanodrp #QANODRP", max_size=40))
def test_keyword_filter_case_invariant(text):
    keywords = ["qanon", "#q", "#qanon"]
    assert (keyword_filter(_tweet(text.lower()), keywords)
            == keyword_filter(_tweet(text.upper()), keywords))


def test_corpus_summary_basic():
    records = [
        make_record("1", "a"),
        make_record("2", "a", retweet_of="b"),
        make_record("3", "b"),
    ]
    stats = corpus_summary(table_of(records))
    assert stats == {"tweet_count": 3, "unique_user_count": 2, "retweet_count": 1,
                     "records_with_description": 0}


def test_corpus_summary_empty():
    stats = corpus_summary(RecordTable())
    assert stats == {
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
            # blank bios count for nothing, as in `profiles`
            description=rng.choice(["a bio", " \t", "\u3000"]) if rng.random() < 0.3 else None,
        )
        for i in range(10_000)
    ]
    stats = corpus_summary(table_of(records))
    # independent hash-set recount
    assert stats["tweet_count"] == len(records)
    assert stats["unique_user_count"] == len({r.user_id for r in records})
    assert stats["retweet_count"] == sum(1 for r in records if r.retweet_of_user_id)
    assert stats["records_with_description"] == sum(
        1 for r in records if r.user_description and r.user_description.strip()
    )


@given(st.permutations(list(range(8))))
def test_corpus_summary_permutation_invariant(perm):
    records = [
        make_record(f"t{i}", f"u{i % 3}", retweet_of="u0" if i % 2 else None)
        for i in range(8)
    ]
    base = corpus_summary(table_of(records))
    shuffled = corpus_summary(table_of(records[i] for i in perm))
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
    obj = oracles.record_to_dict(rec)
    # a user id must fit on one line of nodes.txt, and no UTF-8 file can hold
    # a lone surrogate, or the record is malformed
    ids = [i for i in (rec.user_id, rec.retweet_of_user_id) if i is not None]
    one_line = all("\n" not in i and "\r" not in i and not i.isspace() for i in ids)
    encodable = all(not any("\ud800" <= c <= "\udfff" for c in value)
                    for value in (*ids, rec.tweet_id, rec.text, rec.user_description or ""))
    if not (one_line and encodable):
        with pytest.raises(RecordError):
            record_to_json(obj)
        return
    line = record_to_json(obj)
    assert oracles.record_from_mapping(json.loads(line)) == rec
    assert record_to_json(json.loads(line)) == line


# characters json.dumps escapes (or, with ensure_ascii=False, does not) mixed
# with any others
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\b\t\n\x1f\x7f\u2028\u2029éß😀'), st.characters()),
    max_size=12,
)
_OFFSET = st.timedeltas(min_value=timedelta(hours=-23, minutes=-59),
                        max_value=timedelta(hours=23, minutes=59))
# hashtag tokens: no whitespace or '#', and characters JSON escapes
_JSON_TAG = st.text(st.sampled_from('"\\/\x00\b\x1f\x7f\u2028éß😀_aZ0'), min_size=1,
                    max_size=6)


@given(st.fixed_dictionaries(
    {"tweet_id": _JSON_TEXT, "user_id": _JSON_TEXT,
     "created_at": st.datetimes(timezones=st.builds(timezone, _OFFSET)).map(datetime.isoformat),
     "text": _JSON_TEXT},
    optional={"hashtags": st.lists(_JSON_TAG, max_size=3), "retweet_of_user_id": _JSON_TEXT,
              "user_description": _JSON_TEXT},
))
def test_record_to_json_is_the_json_dumps_line(obj):
    assert _outcome(record_to_json, obj) == _outcome(_oracle_line, obj)


def test_csv_parsing(tmp_path):
    path = tmp_path / "tweets.csv"
    path.write_text(
        "tweet_id,user_id,created_at,text,retweet_of_user_id,user_description,hashtags\n"
        't1,u1,2018-07-01T00:00:00+00:00,"hello #QAnon",,a bio,qanon|wwg1wga\n'
        "t2,u2,2018-07-01T00:01:00+00:00,plain tweet,u1,,\n"
    )
    written = []
    read_records(str(path), None, None, written.append)
    first, second = map(json.loads, written)
    assert first["hashtags"] == ["qanon", "wwg1wga"]
    assert first["user_description"] == "a bio"
    assert second["retweet_of_user_id"] == "u1"
    # hashtags field empty -> derived from text
    assert second["hashtags"] == []


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_read_records_with_keywords_holds_only_accepted_records(tmp_path, suffix):
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
    kept = read_records(str(path), stats, ["#qanon"])
    assert (stats.records, stats.malformed) == (2, 1)
    with open(path, encoding="utf-8", newline="") as fh:
        lines = ([json.dumps({k: v for k, v in row.items() if v}) for row in csv.DictReader(fh)]
                 if suffix == ".csv" else fh.readlines())
    accepted = [r for r in oracles.parse_tweet_stream(lines, ParseStats())
                if oracles.keyword_match(r, ["#qanon"])]
    assert columns(kept) == oracles.table_columns(accepted)
    assert len(kept) == 1


def read_with_records(path, stats):
    """The table `read_records` reads from `path`, and the records it put in
    it, which hold the text that the table does not carry: the lines it wrote
    for them, read back by the `json.loads` oracle."""
    lines = []
    table = read_records(str(path), stats, None, lines.append)
    return table, list(oracles.parse_tweet_stream(lines, ParseStats()))


def test_provided_hashtags_normalized():
    line = record_to_json(_tweet("x", hashtags=["#MAGA", "Trump"]))
    assert json.loads(line)["hashtags"] == ["maga", "trump"]


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
    table, records = read_with_records(path, stats)
    assert (stats.malformed, stats.records) == (len(lone) + 1, len(kept))
    assert len(table) == len(records) and [r.tweet_id for r in records] == list(kept)
    assert records[0].text == "qanon \U0001f600" and records[1].text == "qanon \\ud800"
    for rec in records:
        json.dumps(oracles.record_to_dict(rec), ensure_ascii=False).encode("utf-8")


def test_csv_row_with_a_field_over_the_size_limit_is_malformed(tmp_path):
    path = tmp_path / "tweets.csv"
    path.write_text(
        "tweet_id,user_id,created_at,text\n"
        "t1,u1,2018-07-01T00:00:00Z,#QAnon here\n"
        f"t2,u2,2018-07-01T00:01:00Z,{'q' * 150_000}\n"
        "t3,u3,2018-07-01T00:02:00Z,qanon again\n"
    )
    stats = ParseStats()
    table, records = read_with_records(path, stats)
    assert len(table) == len(records) and [r.tweet_id for r in records] == ["t1", "t3"]
    assert (stats.records, stats.malformed) == (2, 1)


@pytest.mark.parametrize("bad_row", [
    b"t2,u2,2018-07-01T00:01:00Z,qanon \xff here\n",
    b't2,u2,2018-07-01T00:01:00Z,"qanon\n\xff and \xfe"\n',  # one field over two lines
], ids=["plain", "multi-line-quoted"])
def test_csv_row_with_a_byte_that_is_not_utf8_is_malformed(tmp_path, bad_row):
    path = tmp_path / "tweets.csv"
    path.write_bytes(b"tweet_id,user_id,created_at,text\n"
                     + "t1,u1,2018-07-01T00:00:00Z,#QAnon \u00dcn\u00ef\n".encode("utf-8")
                     + bad_row
                     + b"t3,u3,2018-07-01T00:02:00Z,qanon again\n")
    stats = ParseStats()
    table, records = read_with_records(path, stats)
    assert len(table) == len(records) and [r.tweet_id for r in records] == ["t1", "t3"]
    assert records[0].text == "#QAnon \u00dcn\u00ef"
    assert (stats.records, stats.malformed) == (2, 1)


def test_csv_starting_with_a_byte_order_mark_keeps_every_row(tmp_path):
    path = tmp_path / "tweets.csv"
    path.write_bytes(b"\xef\xbb\xbftweet_id,user_id,created_at,text\n"
                     b"t1,u1,2018-07-01T00:00:00Z,qanon\n"
                     b"t2,u2,2018-07-01T00:01:00Z,qanon again\n")
    stats = ParseStats()
    table, records = read_with_records(path, stats)
    names = list(table.user_codes)
    assert [(r.tweet_id, names[u]) for r, u in zip(records, table.user_id)] == [("t1", "u1"),
                                                                                ("t2", "u2")]
    assert (stats.records, stats.malformed) == (2, 0)


# values of one input field that the record checks tell apart
_FAULTS = [None, "", " ", "a\nb", "a\rb", "x", "not a date", "2018-13-01T00:00:00Z",
           "2018-07-01T12:00:00", "2018-07-01 12:00+02:00", 7, 1.5, [], ["#Tag"], ["a b"],
           ["#"], [3], {}, "a\udfff"]
_FIELD = st.one_of(st.sampled_from(_FAULTS), st.text(max_size=8), st.integers(),
                   st.lists(st.one_of(st.text(max_size=5), st.integers()), max_size=3))
_FIELDS = ("tweet_id", "user_id", "created_at", "text", "hashtags",
           "retweet_of_user_id", "user_description")
_ANY_MAPPING = st.dictionaries(st.sampled_from(_FIELDS), _FIELD)
# created_at texts: the first four are in the form isoformat() gives back and
# are written as they are; the others are written through isoformat(), or make
# the record malformed where fromisoformat rejects them (hour 24 on Python 3.11,
# the week date and the basic forms before 3.11)
_CREATED_AT = st.sampled_from([
    "2020-06-01T00:00:07+00:00", "2020-06-01T23:59:07-04:30", "0001-01-01T00:00:00+23:59",
    "9999-12-31T23:59:59-23:59",
    "2018-07-01T12:00:00Z", "2018-07-01T12:00:00.5+05:30", "2020-06-01T00:00:07",
    "2020-06-01T00:00:07-00:00", "2020-06-01T00:00:07.000000+00:00",
    "2020-06-01T00:00:07+05:30:15", "2020-W23-1T00:00:00+00:00", "2020-06-01 00:00:07+00:00",
    "20200601T000007+00:00", "20200601T000007+0000", "2020-06-01T00:00:07+05:60",
    "2020-06-01T24:00:00+00:00",
])
_GOOD_MAPPING = st.fixed_dictionaries(
    {"tweet_id": st.text(min_size=1, max_size=6), "user_id": st.sampled_from(["u1", "u2", "Ü"]),
     "created_at": _CREATED_AT,
     "text": st.text(max_size=20)},
    optional={"retweet_of_user_id": st.sampled_from(["u1", "u3", ""]),
              "user_description": st.text(max_size=10),
              "hashtags": st.lists(st.sampled_from(["#QAnon", "maga", "q"]), max_size=2)},
)


def _outcome(build, obj):
    try:
        return "record", build(obj)
    except RecordError as exc:
        return "error", str(exc)


_RULE_TERMS = ("#q", "#maga", "qanon", "x")


def _package(obj):
    return record_to_json(obj), keyword_filter(obj, _RULE_TERMS)


def _oracle(obj):
    rec = oracles.record_from_mapping(obj)
    return _oracle_line(obj), oracles.keyword_match(rec, _RULE_TERMS)


def _check_record(obj):
    """`obj` gives the oracle's line and keyword verdict, or its first error
    from `record_to_json` and `keyword_filter` alike."""
    want = _outcome(_oracle, obj)
    assert _outcome(_package, obj) == want, obj
    if want[0] == "error":
        assert _outcome(lambda o: keyword_filter(o, _RULE_TERMS), obj) == want, obj


# a good mapping with a few fields replaced, so that the later checks are reached
_FAULTY_MAPPING = st.builds(lambda good, faults: {**good, **faults}, _GOOD_MAPPING,
                            st.dictionaries(st.sampled_from(_FIELDS), _FIELD, max_size=3))


@settings(max_examples=300)
@given(st.one_of(_FAULTY_MAPPING, _ANY_MAPPING, st.lists(st.integers(), max_size=1)))
def test_record_checks_give_the_oracles_record_or_first_error(obj):
    _check_record(obj)


def test_record_checks_name_the_oracles_first_error_for_every_two_faults():
    good = {"tweet_id": "t1", "user_id": "u1", "created_at": "2018-07-01T12:00:00Z",
            "text": "#QAnon", "hashtags": ["#q"], "retweet_of_user_id": "u2",
            "user_description": "bio"}
    for a, b in itertools.combinations(_FIELDS, 2):
        for x, y in itertools.product(_FAULTS, repeat=2):
            _check_record({**good, a: x, b: y})


def _line_variants(obj):
    """A JSON line made from `obj`, and ways of breaking it that each reach a
    different verdict of json.loads."""
    line = json.dumps(obj)
    return st.sampled_from([
        line, json.dumps(obj, ensure_ascii=False), f"  {line}\t", f"\x0c{line}\xa0", line[: len(line) // 2],
        line + " x", line + "{}", "\ufeff" + line, line.replace('"', "'", 2),
        line[:-1] + ', "n": NaN}', line[:-1] + ', "n": ' + "9" * 5000 + "}",
        line[:-1] + ', "text": "bad \\ud800"}' if obj else "{}",
        "[" * 3000 + "]" * 3000, '{"a": ' * 3000 + "1" + "}" * 3000,
        "NaN", "   ", "\t\u3000", "",
    ]).flatmap(lambda text: st.sampled_from([
        text, _utf8(text), b"\xff" + _utf8(text), _utf8(text)[:-1] + b"\xe2",
    ]))


def _utf8(text):
    """`text` as UTF-8, a lone surrogate as bytes that no strict decoder reads."""
    return text.encode("utf-8", "surrogatepass")


def _check_jsonl(lines, bom, keywords):
    """`read_records` of a file of `lines` gives the lines, columns and counts
    of the `json.loads` oracle."""
    data = b"\n".join(line if isinstance(line, bytes) else _utf8(line) for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tweets.jsonl")
        with open(path, "wb") as fh:
            fh.write(codecs.BOM_UTF8 * bom + data)
        got_stats, written = ParseStats(), []
        table = read_records(path, got_stats, keywords, written.append)
        with open(path, "rb") as fh:
            raw = fh.readlines()
    if raw:  # a byte order mark is skipped at the start of the file only
        raw[0] = raw[0].removeprefix(codecs.BOM_UTF8)
    want_stats = ParseStats()
    want_lines, want_columns = _reference(raw, want_stats, keywords)
    assert written == want_lines
    assert columns(table) == want_columns
    assert got_stats == want_stats


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_GOOD_MAPPING, _FAULTY_MAPPING).flatmap(_line_variants),
                max_size=10))
def test_parser_gives_the_json_loads_oracles_records_and_counts(lines):
    _check_jsonl(lines, False, None)


# texts for the parity corpora: hits and misses of '#' and bare keyword terms, and
# texts that are not ASCII whose lowercase is ASCII ("\u212a", the Kelvin sign,
# lowers to "k") or longer ("\u0130" lowers to "i" and a combining dot)
_PARITY_TEXT = st.sampled_from(["", "QAnon rising", "the #Q drop", "save #MAGA now", "quantum",
                                "#qanonx", "#Save_ours", "#\u212aelvin", "#\u0130stanbul"]
                               ) | st.text(max_size=8)
_PARITY_MAPPING = st.fixed_dictionaries(
    {"tweet_id": st.text(min_size=1, max_size=4), "user_id": st.sampled_from(["u1", "u2", "Ü"]),
     "created_at": _CREATED_AT, "text": _PARITY_TEXT},
    optional={"retweet_of_user_id": st.sampled_from(["u1", "u4", ""]),
              "user_description": st.sampled_from(["", " ", "a bio", "Ünï \"x\""]),
              "hashtags": st.lists(st.sampled_from(["#QAnon", "maga", "q", "Save"]), max_size=2)},
)
_PARITY_KEYWORDS = st.none() | st.lists(
    st.sampled_from(["qanon", "#q", "#qanon", "#maga", "save", "Q", "#save"]), min_size=1,
    max_size=3)
# string values a CSV field can hold that some record check rejects
_CSV_FAULTS = st.dictionaries(st.sampled_from(_FIELDS), st.sampled_from(
    ["", " ", "a\nb", "x", "not a date", "2018-13-01T00:00:00Z", "a\udcff", "#a b", "#"]),
    max_size=2)


def _reference(lines, stats, keywords):
    """The lines and table columns that parsing `lines` with the `json.loads`
    oracle, keeping what the oracle's keyword rule keeps and writing each kept
    record with `json.dumps` gives."""
    kept = [rec for rec in oracles.parse_tweet_stream(lines, stats)
            if keywords is None or oracles.keyword_match(rec, keywords)]
    return ([json.dumps(oracles.record_to_dict(rec), ensure_ascii=False, sort_keys=True) + "\n"
             for rec in kept], oracles.table_columns(kept))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(_PARITY_MAPPING, _FAULTY_MAPPING).flatmap(_line_variants)
                      | st.sampled_from(["", "  ", b"\t"]), max_size=12),
       bom=st.booleans(), keywords=_PARITY_KEYWORDS)
# one user's two descriptions at one instant, written two ways: the first stays
@example(lines=[json.dumps(_tweet("qanon", tweet_id=tweet_id, created_at=created,
                                  user_description=bio))
                for tweet_id, created, bio in [("a", "2020-06-01T00:00:07+00:00", "a bio"),
                                               ("b", "2020-06-01T00:00:07", "Ünï")]],
         bom=False, keywords=None)
# a record written as a plain line, with no escape, and the same record with a
# quote added to its text, whose line holds one escape, "\""
@example(lines=[json.dumps(_tweet(text, user_id="Ünï", retweet_of_user_id="u1",
                                  user_description="Ünï bio"), ensure_ascii=False)
                for text in ("QAnon #Save_ours", 'QAnon #Save_ours "x"')],
         bom=False, keywords=["qanon"])
def test_read_records_gives_the_oracles_lines_columns_and_counts(lines, bom, keywords):
    _check_jsonl(lines, bom, keywords)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.builds(lambda good, faults: {**good, **faults}, _PARITY_MAPPING,
                               _CSV_FAULTS), max_size=10),
       bom=st.booleans(), keywords=_PARITY_KEYWORDS)
def test_read_records_of_a_csv_gives_the_oracles_lines_columns_and_counts(rows, bom, keywords):
    rows = [{k: "|".join(v) if isinstance(v, list) else v for k, v in row.items()}
            for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tweets.csv")
        # a lone surrogate is written as the byte that is not UTF-8 it reads back as
        with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="") as fh:
            fh.write("\ufeff" * bom)
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows([row.get(column, "") for column in CSV_COLUMNS] for row in rows)
        got_stats, written = ParseStats(), []
        table = read_records(path, got_stats, keywords, written.append)
    # each row as the JSON object of its nonempty fields, the hashtags split at '|'
    objs = [{k: v.split("|") if k == "hashtags" else v for k, v in row.items() if v}
            for row in rows]
    want_stats = ParseStats()
    want_lines, want_columns = _reference([json.dumps(obj) for obj in objs], want_stats,
                                          keywords)
    assert written == want_lines
    assert columns(table) == want_columns
    assert got_stats == want_stats


def _dict_reader_mappings(fileobj, stats):
    """The input mapping of each row that `csv.DictReader` gives: its nonempty
    fields of `CSV_COLUMNS`, the hashtags split at '|'; a row the csv module
    rejects is counted in `stats.malformed`."""
    reader = csv.DictReader(fileobj)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error:
            stats.malformed += 1
            continue
        obj = {k: v for k, v in row.items() if k in CSV_COLUMNS and v not in (None, "")}
        if "hashtags" in obj:
            obj["hashtags"] = obj["hashtags"].split("|")
        yield obj


# CSV lines: headers and rows of any length, some naming a column twice, blank
# lines, and a field over `csv.field_size_limit()`, which the csv module rejects
_CSV_LINE = st.one_of(
    st.lists(st.sampled_from([*CSV_COLUMNS, "", "x", "a|b", '"q,\nr"']), max_size=9).map(",".join),
    st.just("q" * (csv.field_size_limit() + 1)))


@given(st.lists(_CSV_LINE, max_size=8))
@example(["", "tweet_id,text", "t1,x"])
@example(["q" * (csv.field_size_limit() + 1), "tweet_id,text,tweet_id", "t1,x", "", "t2,y,t3,z"])
def test_csv_rows_give_the_mappings_a_dict_reader_gives(lines):
    text = "\r\n".join(lines) + "\r\n"
    got_stats, want_stats = ParseStats(), ParseStats()
    got = list(_csv_mappings(io.StringIO(text, newline=""), got_stats))
    want = list(_dict_reader_mappings(io.StringIO(text, newline=""), want_stats))
    assert got == want
    assert got_stats == want_stats


_SHAPED_TIME = st.builds(
    "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}{}{:02d}:{:02d}".format,
    st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32), st.integers(0, 24),
    st.integers(0, 60), st.integers(0, 60), st.sampled_from("+-"), st.integers(0, 24),
    st.integers(0, 60))
_ISO_TIME = st.builds(lambda local, minutes: local.replace(
    tzinfo=timezone(timedelta(minutes=minutes))).isoformat(),
    st.datetimes(), st.integers(-(24 * 60 - 1), 24 * 60 - 1))
_MUTATED_TIME = st.builds(lambda text, at, char: text[:at] + char + text[at + 1:], _ISO_TIME,
                          st.integers(0, 32), st.sampled_from("0123456789+-:.TWZ "))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_CREATED_AT, _SHAPED_TIME, _ISO_TIME, _MUTATED_TIME), min_size=1,
                max_size=30))
@example(["2020-06-01T24:00:00+00:00", "2020-06-01T00:00:00+05:60", "2020-06-01T00:00:00-00:00",
          "2020-W23-1T00:00:00+00:00", "2020-06-01T00:00:00+00:00"])
def test_written_created_at_is_the_isoformat_of_the_instant_read(texts):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tweets.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"tweet_id": str(i), "user_id": "u", "created_at": text,
                                      "text": ""}) + "\n" for i, text in enumerate(texts))
        written = []
        read_records(path, None, None, written.append)
    created = {obj["tweet_id"]: obj["created_at"] for obj in map(json.loads, written)}
    for i, text in enumerate(texts):
        try:
            instant = _instant(text)
        except ValueError:
            assert str(i) not in created
            continue
        assert created[str(i)] == instant.isoformat(), text


_MINUTES = st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(lambda m: timedelta(minutes=m))


@st.composite
def _created_at_texts(draw):
    """created_at values as an input file may write them: naive, with Z, or
    with an offset, some of them naming one instant in several ways."""
    instant = draw(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)))
    texts = []
    for _ in range(draw(st.integers(2, 6))):
        form = draw(st.sampled_from(["naive", "Z", "offset"]))
        local = draw(st.just(instant) | st.datetimes())
        if form == "naive":
            texts.append(local.isoformat())
        elif form == "Z":
            texts.append(local.isoformat() + "Z")
        else:
            offset = draw(_MINUTES)
            if local is instant and draw(st.booleans()):
                local += offset  # the instant itself, written in another zone
            texts.append(local.replace(tzinfo=timezone(offset)).isoformat())
    return texts


@given(_created_at_texts())
@example(["0001-01-01T00:00:00+23:59", "0001-01-01T00:00:00Z", "0001-01-01T00:00:00",
          "0001-01-01T23:59:00+23:59", "9999-12-31T23:59:59.999999",
          "9999-12-31T00:00:59.999999-23:59", "9999-12-31T23:59:59.999998Z"])
@example(["1970-01-01T00:00:00.000001Z", "1969-12-31T23:59:59.999999+00:00",
          "1970-01-01T01:00:00+01:00", "1970-01-01T00:00:00"])
def test_created_us_orders_and_ties_as_the_aware_datetimes_do(texts):
    stamps = [_instant(text) for text in texts]
    micros = [created_us(stamp) for stamp in stamps]
    for (a, x), (b, y) in itertools.product(zip(stamps, micros), repeat=2):
        assert (a < b, a == b, a > b) == (x < y, x == y, x > y)


@pytest.mark.parametrize("users", [[], ["nobody"]])
def test_rows_of_no_known_member_is_empty(users):
    table = table_of([make_record("t1", "u1", "#maga")])
    rows = table.rows_of(users)
    assert rows.size == 0 and rows.dtype.kind == "i"
    assert table.rows_of(["u1", *users]).tolist() == [0]


# nonempty, of any character but a lone surrogate, which no checked record holds
_IDS = st.lists(st.text(st.characters(codec="utf-8"), min_size=1))


@given(_IDS)
@example(["Ünï", "\U0001f600", "a\x00b", "a\nb", "t1"])
def test_tweet_id_column_gives_back_every_id_in_order(ids):
    table = table_of(make_record(tweet_id, "u", hashtags=["topic"]) for tweet_id in ids)
    col = table.tweet_id
    assert len(col) == len(table) == len(ids)
    assert list(col) == ids
    assert [col[row] for row in range(len(ids))] == ids
    assert [col[row] for row in range(-len(ids), 0)] == ids
    for row in (len(ids), -len(ids) - 1):
        with pytest.raises(IndexError):
            col[row]


_BIO_WORDS = ("patriot mom dad truth freedom veteran nurse teacher family faith country "
              "music proud blessed news dog lover constitution liberty farmer writer").split()
_TAGS = ("maga", "wwg1wga", "trump", "news", "greatawakening", "kag", "trend1", "trend2")


def test_read_records_holds_under_85_bytes_per_kept_record(tmp_path):
    """A memory guard. About 20,000 of 24,000 seeded records pass the default
    keyword filter: 19-digit tweet ids, 2,000 users who each carry a profile
    description, 70% retweets, and up to three hashtags each. The table that
    `read_records` returns must retain under 85 bytes per kept record, as
    tracemalloc counts them."""
    rng = random.Random(14)
    users = [str(rng.randrange(10**9, 10**10)) for _ in range(2000)]
    bios = {user: " ".join(rng.sample(_BIO_WORDS, rng.randint(3, 7))) for user in users}
    start = datetime(2020, 6, 1, tzinfo=timezone.utc)
    path = tmp_path / "tweets.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(24_000):
            user = rng.choice(users)
            words = rng.choices(_BIO_WORDS, k=rng.randint(4, 12))
            words += ["#" + tag for tag in rng.sample(_TAGS, rng.randint(0, 3))]
            if rng.random() < 0.85:
                words.insert(rng.randrange(len(words)), rng.choice(DEFAULT_KEYWORDS))
            obj = {"tweet_id": str(10**18 + rng.randrange(10**18)), "user_id": user,
                   "created_at": (start + timedelta(seconds=7 * i)).isoformat(),
                   "text": " ".join(words), "user_description": bios[user]}
            if rng.random() < 0.7:
                obj["retweet_of_user_id"] = rng.choice(users)
            fh.write(json.dumps(obj) + "\n")

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = read_records(str(path), None, DEFAULT_KEYWORDS)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 19_000 <= len(table) <= 21_000
    assert retained / len(table) < 85, retained / len(table)


def test_read_records_holds_under_40_bytes_per_kept_record_when_few_carry_a_topic_tag(tmp_path):
    """A memory guard on a corpus shaped like the paper's, where nearly every
    kept record carries a query tag and about 3% also another one. About
    20,000 of 24,000 seeded records pass the default keyword filter: 19-digit
    tweet ids, 2,000 users who each carry a profile description and 70%
    retweets. The table that `read_records` returns keeps no tweet id or tag
    of a record without a topic tag, so it must retain under 40 bytes per
    kept record, as tracemalloc counts them; one that keeps every record's
    id and tags holds about 67."""
    rng = random.Random(23)
    users = [str(rng.randrange(10**9, 10**10)) for _ in range(2000)]
    bios = {user: " ".join(rng.sample(_BIO_WORDS, rng.randint(3, 7))) for user in users}
    start = datetime(2020, 6, 1, tzinfo=timezone.utc)
    path = tmp_path / "tweets.jsonl"
    tagged = 0
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(24_000):
            user = rng.choice(users)
            words = rng.choices(_BIO_WORDS, k=rng.randint(4, 12))
            if rng.random() < 0.85:
                words.append(rng.choice(("#q", "#qanon", "#QAnon", "qanon")))
                if rng.random() < 0.03:
                    words.append("#" + rng.choice(_TAGS))
                    tagged += 1
            obj = {"tweet_id": str(10**18 + rng.randrange(10**18)), "user_id": user,
                   "created_at": (start + timedelta(seconds=7 * i)).isoformat(),
                   "text": " ".join(words), "user_description": bios[user]}
            if rng.random() < 0.7:
                obj["retweet_of_user_id"] = rng.choice(users)
            fh.write(json.dumps(obj) + "\n")

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = read_records(str(path), None, DEFAULT_KEYWORDS)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 19_000 <= len(table) <= 21_000
    assert retained / len(table) < 40, retained / len(table)
    assert len(table.tweet_id) == len(table.hashtags) == tagged
