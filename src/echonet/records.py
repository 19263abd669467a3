"""Tweet record ingestion: JSONL/CSV parsing, keyword filtering, corpus stats.

A parsed line is a `TweetRecord`. The records a file holds, or those a
filter kept, are read into one `RecordTable`: a column per field that a stage
after `ingest` reads, so a record costs a few array and list slots and the
bytes of its id, not an object of its own with a datetime and its text.
"""

from __future__ import annotations

import codecs
import csv
import functools
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

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)

DEFAULT_KEYWORDS = ("qanon", "#q", "#qanon")

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
    was written. `RecordTable.append` writes both fields; `col[row]`, `len`
    and iteration read the strings."""

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
    `ingest` reads: `text` is not carried, `tweet_id` is a `TweetIds`, and
    `user_id` and `retweet_of_user_id` are 32-bit int arrays of user codes
    (-1: no target). `user_codes` names each author and target once, mapped
    to its code, its rank in order of first appearance. A user's profile is
    kept once, by code, not once per record: `latest_description[code]` is
    the description of the user's latest record whose description is not
    blank (None if there is none), the first in input order of those at that
    instant, and `latest_description_us[code]` its `created_us(created_at)`.
    `records_with_description` counts the records whose description is not
    blank, the ones `profiles` reads. Equal hashtags and hashtag tuples are one
    object, shared through a dict that lives only while `from_records` fills
    the table."""

    COLUMNS = ("tweet_id", "user_id", "hashtags", "retweet_of_user_id",
               "latest_description", "latest_description_us")
    __slots__ = COLUMNS + ("user_codes", "records_with_description", "_shared")

    def __init__(self) -> None:
        self.tweet_id = TweetIds()
        self.user_id = array("i")
        self.hashtags: list[tuple[str, ...]] = []
        self.retweet_of_user_id = array("i")
        self.latest_description: list[Optional[str]] = []  # by user code
        self.latest_description_us = array("q")  # by user code
        self.user_codes: dict[str, int] = {}
        self.records_with_description = 0
        self._shared: dict = {}

    @classmethod
    def from_records(cls, records: Iterable[TweetRecord]) -> RecordTable:
        table = cls()
        for rec in records:
            table.append(rec)
        table._shared.clear()  # the columns hold what they share
        return table

    def _new_code(self, user: str) -> int:
        """Make the code of a user not yet named, with its slot in each per-user column."""
        code = self.user_codes[user] = len(self.user_codes)
        self.latest_description.append(None)
        self.latest_description_us.append(0)
        return code

    def append(self, rec: TweetRecord) -> None:
        shared, codes = self._shared, self.user_codes
        tweet_id, user_id, created_at, _, hashtags, retweet_of, description = rec
        ids = self.tweet_id
        data = ids.data
        data += tweet_id.encode("utf-8", "surrogatepass")
        ids.ends.append(len(data))
        user = codes.get(user_id)
        if user is None:
            user = self._new_code(user_id)
        self.user_id.append(user)
        tags = shared.get(hashtags)
        if tags is None:
            share = shared.setdefault
            tags = shared[hashtags] = tuple([share(tag, tag) for tag in hashtags])
        self.hashtags.append(tags)
        target = -1 if retweet_of is None else codes.get(retweet_of)
        if target is None:
            target = self._new_code(retweet_of)
        self.retweet_of_user_id.append(target)
        if description and not description.isspace():
            self.records_with_description += 1
            latest, stamps = self.latest_description, self.latest_description_us
            stamp = created_us(created_at)
            kept = latest[user]
            # strict: of two descriptions at one instant, the first in input order stays
            if kept is None or stamp > stamps[user]:
                # an equal text keeps the string already held: swapping a bio
                # repeated on every record for each fresh copy scatters the
                # survivors over the heap and raises the peak RSS
                if description != kept:
                    latest[user] = description
                stamps[user] = stamp

    def __len__(self) -> int:
        return len(self.user_id)

    def rows_of(self, users: Iterable[str]) -> np.ndarray:
        """The positions of the records that `users` wrote, in input order."""
        codes = [self.user_codes[user] for user in users if user in self.user_codes]
        return np.flatnonzero(np.isin(np.frombuffer(self.user_id, dtype=np.intc), codes))


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


def record_from_mapping(obj: dict) -> TweetRecord:
    """Build a validated TweetRecord from a parsed input mapping. This runs
    once per input record, so the checks are written out inline rather than
    in helpers, in a fixed order: the first one a record fails names the error."""
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
    # the fields in declaration order, without the keyword handling of TweetRecord()
    return tuple.__new__(TweetRecord, (tweet_id, user_id, created, text, hashtags,
                                       retweet_of, description))


def _require_utf8(rec: TweetRecord) -> None:
    """Raise RecordError if a string field holds a lone surrogate (JSON can
    escape one, as in "\\ud800", and a CSV byte that is not UTF-8 decodes to
    one): UTF-8 cannot encode it, so no bundle file could hold the record."""
    for value in (rec.tweet_id, rec.user_id, rec.text, rec.retweet_of_user_id,
                  rec.user_description, *rec.hashtags):
        if value is None:
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError("a field holds a lone surrogate") from None


def record_to_json(rec: TweetRecord) -> str:
    """The line `json.dumps(record_to_dict(rec), ensure_ascii=False,
    sort_keys=True)` gives, with the reference `record_to_dict` of
    tests/oracles.py, joined from the encoded strings directly: keys in sorted
    order, default separators, no dict built on the way."""
    tweet_id, user_id, created_at, text, hashtags, retweet_of, description = rec
    return "".join((
        '{"created_at": ', _encode(created_at.isoformat()),
        ', "hashtags": [', ", ".join(map(_encode, hashtags)) if hashtags else "", "]",
        "" if retweet_of is None else ', "retweet_of_user_id": ' + _encode(retweet_of),
        ', "text": ', _encode(text), ', "tweet_id": ', _encode(tweet_id),
        "" if description is None else ', "user_description": ' + _encode(description),
        ', "user_id": ', _encode(user_id), "}",
    ))


def parse_tweet_stream(
    lines: Iterable[str | bytes], stats: Optional[ParseStats] = None
) -> Iterator[TweetRecord]:
    """Yield one TweetRecord per well-formed JSON line, skipping malformed ones.
    A line is malformed when `json.loads` rejects it, also for nesting deeper
    than the recursion limit or an integer longer than
    `sys.get_int_max_str_digits()`, or when its record fails validation. A
    record with a lone surrogate in a string field is malformed; bytes lines
    are decoded strictly, so there only a JSON escape can produce one."""
    if stats is None:
        stats = ParseStats()
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
            # json.loads(line) on a stripped line: one value that ends the line
            obj, end = _scan_json(line, 0)
            if end != len(line):
                raise RecordError("extra data after the JSON value")
            rec = record_from_mapping(obj)
            if "\\ud" in line or "\\uD" in line:  # only an escape decodes to a surrogate
                _require_utf8(rec)
        except (StopIteration, ValueError, RecursionError):
            # ValueError covers JSONDecodeError, RecordError and the digit limit
            stats.malformed += 1
            continue
        stats.records += 1
        yield rec


def parse_tweet_csv(
    fileobj: io.TextIOBase, stats: Optional[ParseStats] = None
) -> Iterator[TweetRecord]:
    """CSV variant of the stream parser; hashtags column is '|'-separated. A
    row the csv module rejects, such as one with a field longer than
    `csv.field_size_limit()`, is malformed, and reading goes on at the next
    line; so is a row whose record holds a lone surrogate (see `read_records`)."""
    if stats is None:
        stats = ParseStats()
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
        try:
            rec = record_from_mapping(obj)
            _require_utf8(rec)
        except RecordError:
            stats.malformed += 1
            continue
        stats.records += 1
        yield rec


def read_records(
    path: str,
    stats: Optional[ParseStats] = None,
    keep: Optional[Callable[[TweetRecord], bool]] = None,
) -> RecordTable:
    """Read a JSONL (default) or .csv record file into a RecordTable. With
    `keep`, only the records it accepts are held; each record is dropped or
    appended to the table as it is parsed, so no list of records is built.
    Either file may start with a UTF-8 byte order mark, which is skipped. A
    CSV file is read as UTF-8, each byte that is not UTF-8 as a lone surrogate."""
    with open(path, "rb") as fh:
        if str(path).endswith(".csv"):
            text = io.TextIOWrapper(fh, encoding="utf-8-sig", errors="surrogateescape", newline="")
            records = parse_tweet_csv(text, stats)
        else:
            first = fh.readline().removeprefix(codecs.BOM_UTF8)
            records = parse_tweet_stream(itertools.chain((first,), fh), stats)
        return RecordTable.from_records(records if keep is None else filter(keep, records))


@functools.lru_cache(maxsize=8)
def _keyword_terms(keywords: tuple[str, ...]) -> tuple[frozenset[str], tuple[str, ...]]:
    """The '#term' keywords as a set of hashtags, and the bare ones, lowercased."""
    terms = [term.lower() for term in keywords]
    return (frozenset(t[1:] for t in terms if t.startswith("#")),
            tuple(t for t in terms if not t.startswith("#")))


def keyword_filter(record: TweetRecord, keywords: Sequence[str]) -> bool:
    """True iff any term matches: '#term' as exact hashtag token, bare term as
    case-insensitive substring of the text."""
    if not keywords:
        raise ValueError("keywords must be nonempty")
    tags, substrings = _keyword_terms(tuple(keywords))
    if not tags.isdisjoint(record.hashtags):
        return True
    text_lower = record.text.lower()
    for term in substrings:
        if term in text_lower:
            return True
    return False


def corpus_summary(table: RecordTable) -> CorpusStats:
    records_by_author = np.bincount(np.frombuffer(table.user_id, dtype=np.intc))
    return CorpusStats(
        tweet_count=len(table),
        unique_user_count=int(np.count_nonzero(records_by_author)),
        retweet_count=len(table) - table.retweet_of_user_id.count(-1),
        records_with_description=table.records_with_description,
    )
