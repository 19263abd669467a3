"""Tweet record ingestion: JSONL/CSV parsing, keyword filtering, corpus stats.

`read_records` reads a record file in one loop, `_ingest`: each line is
decoded, scanned and checked once, kept or dropped by the keyword rule,
written as its line of `filtered.jsonl` and added to one `RecordTable`, a
column per field that a stage after `ingest` reads, so a record costs two
array slots, and one that carries a topic tag also a list slot, two more
array slots and the bytes of its id, not an object of its own with a datetime
and its text. A parsed line is a `TweetRecord` only where a caller asks for
one: the single-record functions (`record_from_mapping`, `keyword_filter`,
`record_to_json`) and the record streams run the same loop, so each rule is
written once.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import json
import re
from array import array
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

HASHTAG_RE = re.compile(r"#([A-Za-z0-9_]+)")

# a JSON string literal, escaped as json.dumps(..., ensure_ascii=False) escapes it
_encode = json.encoder.encode_basestring
# the scanner json.loads runs: (value, end index) of the JSON text at an index
_scan_json = json.decoder.JSONDecoder().scan_once
_fromisoformat = datetime.fromisoformat
# The texts that `isoformat()` gives back unchanged once `fromisoformat` has
# read them: whole seconds and an offset of whole minutes, in ASCII digits.
# "-00:00" comes back as "+00:00", offset minutes past 59 are carried into the
# hours, and hour 24, should an interpreter read it as the next midnight,
# would come back as 00, so none of them is in the form.
_canonical_time = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-9]{2}:[0-9]{2}"
    r"(?:\+[0-9]{2}|-(?!00:00)[0-9]{2}):[0-5][0-9]").fullmatch

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

DEFAULT_KEYWORDS = ("qanon", "#q", "#qanon")

# collection-query hashtags appear in (nearly) every tweet by construction, so
# they say nothing of a topic: `RecordTable` keeps every other tag, the topic tags
TOPIC_STOPTAGS = frozenset({"q", "qanon"})

CSV_COLUMNS = (
    "tweet_id",
    "user_id",
    "created_at",
    "text",
    "retweet_of_user_id",
    "user_description",
    "hashtags",
)


class RecordError(ValueError):
    """A single input record violates the expected schema."""


class TweetRecord(NamedTuple):
    tweet_id: str
    user_id: str
    created_at: datetime
    text: str
    hashtags: tuple[str, ...]
    retweet_of_user_id: Optional[str] = None
    user_description: Optional[str] = None


@dataclass
class CorpusStats:
    tweet_count: int = 0
    unique_user_count: int = 0
    retweet_count: int = 0
    records_with_description: int = 0


@dataclass
class ParseStats:
    """Mutable counters handed to the streaming parser."""

    malformed: int = 0
    records: int = 0  # well-formed records yielded


def created_us(created_at: datetime) -> int:
    """An aware datetime as exact int microseconds since the Unix epoch; the
    ints order and tie as the datetimes compare."""
    return (created_at - EPOCH) // _MICROSECOND


class TweetIds:
    """A column of strings held as one UTF-8 buffer, `data`, and the int64
    offset in it where each string ends, `ends`: a string costs its bytes and
    8, not a str object and a list slot. Strings are encoded with
    "surrogatepass", so each one, a lone surrogate included, reads back as it
    was written. The loop that fills a `RecordTable` writes both fields;
    `col[row]`, `len` and iteration read the strings."""

    __slots__ = ("data", "ends")

    def __init__(self) -> None:
        self.data = bytearray()
        self.ends = array("q")

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, row: int) -> str:
        ends = self.ends
        row = range(len(ends))[row]  # a negative row counts from the end
        return self.data[ends[row - 1] if row else 0:ends[row]].decode("utf-8", "surrogatepass")

    def __iter__(self) -> Iterator[str]:
        data, start = self.data, 0
        for end in self.ends:
            yield data[start:end].decode("utf-8", "surrogatepass")
            start = end


class RecordTable:
    """Records in input order, one column per field that a stage after
    `ingest` reads; `text` is not carried. Every record is a row of
    `user_id` and `retweet_of_user_id`, 32-bit int arrays of user codes (-1:
    no target). A record's hashtags minus `TOPIC_STOPTAGS` are its topic
    tags, the ones `topics` reads; a record that carries one is also a row of
    three parallel columns, the tagged rows: `tweet_id`, a `TweetIds`,
    `hashtags`, its topic tags, and `tagged_user_id`, its author's code. A
    record without one keeps neither its id nor its tags. `user_codes` names
    each author and target once, mapped to its code, its rank in order of
    first appearance. A user's profile is kept once, by code, not once per
    record: `latest_description[code]` is the description of the user's
    latest record whose description is not blank (None if there is none),
    the first in input order of those at that instant, and
    `latest_description_us[code]` its `created_us(created_at)`.
    `records_with_description` counts the records whose description is not
    blank, the ones `profiles` reads. Equal hashtags and topic tag tuples are
    one object, shared through a dict that lives only while one call of
    `read_records` or `from_records` fills the table."""

    COLUMNS = ("user_id", "retweet_of_user_id", "tweet_id", "hashtags", "tagged_user_id",
               "latest_description", "latest_description_us")
    __slots__ = COLUMNS + ("user_codes", "records_with_description")

    def __init__(self) -> None:
        self.user_id = array("i")
        self.retweet_of_user_id = array("i")
        self.tweet_id = TweetIds()  # by tagged row, as are the next two
        self.hashtags: list[tuple[str, ...]] = []
        self.tagged_user_id = array("i")
        self.latest_description: list[Optional[str]] = []  # by user code
        self.latest_description_us = array("q")  # by user code
        self.user_codes: dict[str, int] = {}
        self.records_with_description = 0

    @classmethod
    def from_records(cls, records: Iterable[TweetRecord]) -> RecordTable:
        """The table of `records`, in order, taken as they are: no check runs."""
        table = cls()
        _ingest(records, "records", table)
        return table

    def __len__(self) -> int:
        return len(self.user_id)

    def rows_of(self, users: Iterable[str]) -> np.ndarray:
        """The tagged rows of the records that `users` wrote, in input order."""
        codes = np.array([self.user_codes[user] for user in users if user in self.user_codes],
                         dtype=np.int64)
        # a lookup table by code: with few tagged rows np.isin would otherwise
        # sort, and its np.unique imports numpy.ma, 1.3 MB, into the run
        return np.flatnonzero(np.isin(np.frombuffer(self.tagged_user_id, dtype=np.intc), codes,
                                      kind="table"))


def extract_hashtags(text: str) -> tuple[str, ...]:
    """Hashtags are maximal [A-Za-z0-9_]+ runs after '#', lowercased."""
    return tuple([tag.lower() for tag in HASHTAG_RE.findall(text)])


def _not_one_line(name: str) -> RecordError:
    """The error for a user id that cannot be one line of nodes.txt: a line
    break would split it and a blank line is skipped when the file is read."""
    return RecordError(f"{name} must be one line and not only whitespace")


def _normalize_hashtags(raw) -> tuple[str, ...]:
    tags = []
    for tag in raw:
        if not isinstance(tag, str):
            raise RecordError("hashtag entries must be strings")
        tag = tag.lstrip("#").lower()
        if not tag or any(c.isspace() for c in tag) or "#" in tag:
            raise RecordError(f"bad hashtag token: {tag!r}")
        tags.append(tag)
    return tuple(tags)


def _require_utf8(hashtags: Sequence[str], *fields: Optional[str]) -> None:
    """Raise RecordError if a string field holds a lone surrogate (JSON can
    escape one, as in "\\ud800", and a CSV byte that is not UTF-8 decodes to
    one): UTF-8 cannot encode it, so no bundle file could hold the record."""
    for value in (*fields, *hashtags):
        if value is None:
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError("a field holds a lone surrogate") from None


def _keyword_terms(keywords: Sequence[str]) -> tuple[frozenset[str], tuple[str, ...]]:
    """The '#term' keywords as a set of hashtags, and the bare ones, lowercased."""
    if not keywords:
        raise ValueError("keywords must be nonempty")
    terms = [term.lower() for term in keywords]
    return (frozenset(t[1:] for t in terms if t.startswith("#")),
            tuple(t for t in terms if not t.startswith("#")))


def _ingest(
    items: Iterable,
    source: str,
    into: RecordTable | list[TweetRecord],
    stats: Optional[ParseStats] = None,
    keywords: Optional[Sequence[str]] = None,
    write: Optional[Callable[[str], object]] = None,
) -> None:
    """The one loop that reads records; every reader and single-record
    function runs it.

    `source` names what `items` holds: "lines", JSON text lines, str or
    bytes; "mappings", input mappings, such as the rows `_csv_mappings`
    makes; or "records", TweetRecords, which are taken as they are.

    - A line is decoded strictly, stripped and skipped if blank; the rest
      must be one JSON value, as `json.loads` reads it. A mapping must then
      pass the checks `record_from_mapping` documents, in their order. A
      line or mapping that fails is counted in `stats.malformed`, or, if
      `stats` is None, raises its error. `stats.records` counts the others.
    - With `keywords`, a record is kept only if the keyword rule that
      `keyword_filter` documents accepts it; the terms are resolved once.
    - Each kept record is written to `write`, if given, as its line of
      `filtered.jsonl`, newline included (see `record_to_json`).
    - It is then added to `into`: appended as a TweetRecord to a list, or
      filled into the columns of a RecordTable, as the table documents."""
    lines, checked = source == "lines", source != "records"
    if keywords is not None:
        tag_terms, text_terms = _keyword_terms(keywords)
    to_list = into.__class__ is list
    if to_list:
        keep = into.append
    else:
        codes = into.user_codes
        code_of = codes.get
        authors, targets = into.user_id.append, into.retweet_of_user_id.append
        id_bytes, id_ends = into.tweet_id.data, into.tweet_id.ends.append
        topic_tags, tagged_authors = into.hashtags.append, into.tagged_user_id.append
        latest, stamps = into.latest_description, into.latest_description_us
        new_latest, new_stamp = latest.append, stamps.append
        shared: dict = {}  # one object per distinct tag and tag tuple
        share = shared.setdefault
        described = 0
    parsed = malformed = 0
    for item in items:
        if not checked:
            tweet_id, user_id, created, text, hashtags, retweet_of, description = item
            created_at = ""  # no input text: `created.isoformat()` is written
        else:
            try:
                if lines:
                    if item.__class__ is bytes:
                        line = item.decode("utf-8").strip()
                        # decoded strictly: only an escape gives a lone surrogate
                        suspect = "\\ud" in line or "\\uD" in line
                    else:
                        line, suspect = item.strip(), True
                    if not line:
                        continue
                    # json.loads(line) on a stripped line: one value that ends the line
                    obj, end = _scan_json(line, 0)
                    if end != len(line):
                        raise RecordError("extra data after the JSON value")
                else:
                    obj, suspect = item, True
                if not isinstance(obj, dict):
                    raise RecordError("record is not an object")
                get = obj.get
                tweet_id, user_id, created_at, text = (
                    get("tweet_id"), get("user_id"), get("created_at"), get("text"))
                if not isinstance(tweet_id, str) or not tweet_id:
                    raise RecordError("missing or invalid field: tweet_id")
                if not isinstance(user_id, str) or not user_id:
                    raise RecordError("missing or invalid field: user_id")
                if "\n" in user_id or "\r" in user_id or user_id.isspace():
                    raise _not_one_line("user_id")
                if not isinstance(created_at, str) or not created_at:
                    raise RecordError("missing or invalid field: created_at")
                if not isinstance(text, str):  # empty text is legal
                    raise RecordError("missing or invalid field: text")
                hashtags = get("hashtags")
                if hashtags is None:
                    hashtags = extract_hashtags(text)
                elif isinstance(hashtags, (list, tuple)):
                    hashtags = _normalize_hashtags(hashtags)
                else:
                    raise RecordError("hashtags must be an array")
                retweet_of = get("retweet_of_user_id")
                if retweet_of is not None:
                    if not isinstance(retweet_of, str):
                        raise RecordError("optional field must be a string")
                    if not retweet_of:
                        retweet_of = None
                    elif "\n" in retweet_of or "\r" in retweet_of or retweet_of.isspace():
                        raise _not_one_line("retweet_of_user_id")
                try:
                    created = _fromisoformat(created_at.replace("Z", "+00:00"))
                except ValueError as exc:
                    raise RecordError(f"bad created_at: {created_at!r}") from exc
                if created.tzinfo is None:
                    created = created.replace(tzinfo=timezone.utc)
                description = get("user_description")
                if description is not None:
                    if not isinstance(description, str):
                        raise RecordError("optional field must be a string")
                    description = description or None
                if suspect:
                    _require_utf8(hashtags, tweet_id, user_id, text, retweet_of, description)
            except (StopIteration, ValueError, RecursionError):
                # ValueError covers JSONDecodeError, UnicodeDecodeError,
                # RecordError and the digit limit
                if stats is None:
                    raise
                malformed += 1
                continue
            parsed += 1
        if keywords is not None and tag_terms.isdisjoint(hashtags):
            lowered = text.lower()
            for term in text_terms:
                if term in lowered:
                    break
            else:
                continue
        if write is not None:
            # keys in sorted order, default separators; created_at is written as
            # created.isoformat(), which is the input text when that is in the
            # form isoformat() gives back, and holds no character JSON escapes
            write("".join((
                '{"created_at": "',
                created_at if _canonical_time(created_at) else created.isoformat(),
                '", "hashtags": [', ", ".join(map(_encode, hashtags)) if hashtags else "",
                "]" if retweet_of is None else '], "retweet_of_user_id": ' + _encode(retweet_of),
                ', "text": ', _encode(text), ', "tweet_id": ', _encode(tweet_id),
                "" if description is None else ', "user_description": ' + _encode(description),
                ', "user_id": ', _encode(user_id), "}\n",
            )))
        if to_list:
            # the fields in declaration order, without the keyword handling of TweetRecord()
            keep(tuple.__new__(TweetRecord, (tweet_id, user_id, created, text, hashtags,
                                             retweet_of, description)))
            continue
        author = code_of(user_id)
        if author is None:  # a user not yet named: its code and per-user slots
            author = codes[user_id] = len(codes)
            new_latest(None)
            new_stamp(0)
        authors(author)
        if hashtags:
            tags = shared.get(hashtags)  # its topic tags
            if tags is None:
                tags = shared[hashtags] = tuple([share(tag, tag) for tag in hashtags
                                                 if tag not in TOPIC_STOPTAGS])
            if tags:
                id_bytes += tweet_id.encode("utf-8", "surrogatepass")
                id_ends(len(id_bytes))
                topic_tags(tags)
                tagged_authors(author)
        if retweet_of is None:
            targets(-1)
        else:
            target = code_of(retweet_of)
            if target is None:
                target = codes[retweet_of] = len(codes)
                new_latest(None)
                new_stamp(0)
            targets(target)
        if description and not description.isspace():
            described += 1
            stamp = created_us(created)
            kept = latest[author]
            # strict: of two descriptions at one instant, the first in input order stays
            if kept is None or stamp > stamps[author]:
                # an equal text keeps the string already held: swapping a bio
                # repeated on every record for each fresh copy scatters the
                # survivors over the heap and raises the peak RSS
                if description != kept:
                    latest[author] = description
                stamps[author] = stamp
    if not to_list:
        into.records_with_description += described
    if stats is not None:
        stats.records += parsed
        stats.malformed += malformed


def record_from_mapping(obj: dict) -> TweetRecord:
    """Build a validated TweetRecord from a parsed input mapping, or raise the
    RecordError of the first check it fails, in this order: it is a dict;
    `tweet_id` and `user_id` are nonempty strings, and `user_id` is one line
    and not only whitespace; `created_at` is a nonempty string and `text` a
    string; `hashtags`, if present, is an array of strings, each a token
    after its leading '#'s are dropped (absent: the hashtags of the text);
    `retweet_of_user_id` is a string, one line if not empty (empty: none);
    `created_at` is read by `datetime.fromisoformat`, "Z" as UTC and no
    offset as UTC; `user_description` is a string (empty: none); and no
    string field holds a lone surrogate."""
    records: list[TweetRecord] = []
    _ingest((obj,), "mappings", records)
    return records[0]


def record_to_json(rec: TweetRecord) -> str:
    """The line `json.dumps(record_to_dict(rec), ensure_ascii=False,
    sort_keys=True)` gives, with the reference `record_to_dict` of
    tests/oracles.py, without its newline."""
    out: list[str] = []
    _ingest((rec,), "records", [], write=out.append)
    return out[0][:-1]


def keyword_filter(record: TweetRecord, keywords: Sequence[str]) -> bool:
    """True iff any term matches: '#term' as exact hashtag token, bare term as
    case-insensitive substring of the text."""
    kept: list[TweetRecord] = []
    _ingest((record,), "records", kept, keywords=keywords)
    return bool(kept)


def parse_tweet_stream(
    lines: Iterable[str | bytes], stats: Optional[ParseStats] = None
) -> Iterator[TweetRecord]:
    """Yield one TweetRecord per well-formed JSON line, skipping malformed ones.
    A line is malformed when `json.loads` rejects it, also for nesting deeper
    than the recursion limit or an integer longer than
    `sys.get_int_max_str_digits()`, or when its record fails validation
    (`record_from_mapping`), a lone surrogate in a string field included;
    bytes lines are decoded strictly, so there only a JSON escape can
    produce one."""
    if stats is None:
        stats = ParseStats()
    records: list[TweetRecord] = []
    for line in lines:
        _ingest((line,), "lines", records, stats)
        yield from records
        records.clear()


def _csv_mappings(fileobj: io.TextIOBase, stats: ParseStats) -> Iterator[dict]:
    """The input mapping of each CSV row: its nonempty fields of
    `CSV_COLUMNS`, the hashtags column split at '|'. A row the csv module
    rejects, such as one with a field longer than `csv.field_size_limit()`,
    is counted in `stats.malformed`, and reading goes on at the next line."""
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


def parse_tweet_csv(
    fileobj: io.TextIOBase, stats: Optional[ParseStats] = None
) -> Iterator[TweetRecord]:
    """CSV variant of the stream parser; hashtags column is '|'-separated. A
    row the csv module rejects is malformed (see `_csv_mappings`), and so is
    a row whose record fails `record_from_mapping`, whose last check is for a
    lone surrogate: what `read_records` reads a byte that is not UTF-8 as."""
    if stats is None:
        stats = ParseStats()
    records: list[TweetRecord] = []
    for obj in _csv_mappings(fileobj, stats):
        _ingest((obj,), "mappings", records, stats)
        yield from records
        records.clear()


def read_records(
    path: str,
    stats: Optional[ParseStats] = None,
    keywords: Optional[Sequence[str]] = None,
    write: Optional[Callable[[str], object]] = None,
) -> RecordTable:
    """Read a JSONL (default) or .csv record file into a RecordTable, in one
    pass with no record object built on the way. With `keywords`, only the
    records the keyword rule (`keyword_filter`) keeps are held; with `write`,
    each record held is also written to it as its line of `filtered.jsonl`,
    newline included. Either file may start with a UTF-8 byte order mark,
    which is skipped. A CSV file is read as UTF-8, each byte that is not
    UTF-8 as a lone surrogate."""
    if stats is None:
        stats = ParseStats()
    table = RecordTable()
    with open(path, "rb") as fh:
        if str(path).endswith(".csv"):
            text = io.TextIOWrapper(fh, encoding="utf-8-sig", errors="surrogateescape", newline="")
            _ingest(_csv_mappings(text, stats), "mappings", table, stats, keywords, write)
        else:
            first = fh.readline().removeprefix(codecs.BOM_UTF8)
            _ingest(itertools.chain((first,), fh), "lines", table, stats, keywords, write)
    return table


def corpus_summary(table: RecordTable) -> CorpusStats:
    records_by_author = np.bincount(np.frombuffer(table.user_id, dtype=np.intc))
    return CorpusStats(
        tweet_count=len(table),
        unique_user_count=int(np.count_nonzero(records_by_author)),
        retweet_count=len(table) - table.retweet_of_user_id.count(-1),
        records_with_description=table.records_with_description,
    )
