"""Tweet record ingestion: JSONL/CSV parsing, keyword filtering, corpus stats.

`read_records` reads a record file in one loop, `_ingest`: each line or CSV
row is decoded, scanned and checked once, kept or dropped by the keyword
rule, written as its line of `filtered.jsonl` and added to one `RecordTable`,
a column per field that a stage after `ingest` reads, so a record costs two
array slots, and one that carries a topic tag also a list slot, two more
array slots and the bytes of its id, not an object of its own with a datetime
and its text. No record object is built on the way. `keyword_filter` and
`record_to_json` run the same loop on one input mapping, so each rule is
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
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

HASHTAG_RE = re.compile(r"#([A-Za-z0-9_]+)")
_find_hashtags = HASHTAG_RE.findall

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


@dataclass
class ParseStats:
    malformed: int = 0  # lines and CSV rows that failed a check
    records: int = 0  # well-formed records read


def created_us(created_at: datetime) -> int:
    """An aware datetime as exact int microseconds since the Unix epoch; the
    ints order and tie as the datetimes compare."""
    return (created_at - EPOCH) // _MICROSECOND


class TweetIds:
    """A column of strings held as one UTF-8 buffer, `data`, and the int64
    offset in it where each string ends, `ends`: a string costs its bytes and
    8, not a str object and a list slot. The loop that fills a `RecordTable`
    writes both fields, and only from checked records, which hold no lone
    surrogate; `col[row]`, `len` and iteration (through `col[row]`) read the
    strings."""

    __slots__ = ("data", "ends")

    def __init__(self) -> None:
        self.data = bytearray()
        self.ends = array("q")

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, row: int) -> str:
        ends = self.ends
        row = range(len(ends))[row]  # a negative row counts from the end
        return self.data[ends[row - 1] if row else 0:ends[row]].decode("utf-8")


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
    `_ingest` fills the table."""

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
    table: RecordTable,
    stats: Optional[ParseStats] = None,
    keywords: Optional[Sequence[str]] = None,
    write: Optional[Callable[[str], object]] = None,
) -> None:
    """The one loop that reads records; `read_records`, `keyword_filter` and
    `record_to_json` run it.

    `source` names what `items` holds: "lines", JSON text lines as bytes, or
    "mappings", input mappings, such as the rows `_csv_mappings` makes.

    - A line is decoded strictly, stripped and skipped if blank; the rest
      must be one JSON value, as `json.loads` reads it. A mapping must then
      pass the checks `record_to_json` documents, in their order. A line or
      mapping that fails is counted in `stats.malformed`, or, if `stats` is
      None, raises its error. `stats.records` counts the others.
    - With `keywords`, a record is kept only if the keyword rule that
      `keyword_filter` documents accepts it; the terms are resolved once.
    - Each kept record is written to `write`, if given, as its line of
      `filtered.jsonl`, newline included (see `record_to_json`).
    - It is then filled into the columns of `table`, as the table documents."""
    lines = source == "lines"
    if keywords is not None:
        tag_terms, text_terms = _keyword_terms(keywords)
    codes = table.user_codes
    code_of = codes.get
    authors, targets = table.user_id.append, table.retweet_of_user_id.append
    id_bytes, id_ends = table.tweet_id.data, table.tweet_id.ends.append
    topic_tags, tagged_authors = table.hashtags.append, table.tagged_user_id.append
    latest, stamps = table.latest_description, table.latest_description_us
    new_latest, new_stamp = latest.append, stamps.append
    shared: dict = {}  # one object per distinct tag and tag tuple
    share = shared.setdefault
    described = parsed = malformed = 0
    for item in items:
        try:
            if lines:
                line = item.decode("utf-8").strip()
                if not line:
                    continue
                # Decoded strictly, a line holds a lone surrogate only through
                # an escape, and an escape only where it holds a backslash; the
                # scanner refuses a control character inside a string. So no
                # string of a line without a backslash holds a character that
                # JSON escapes: a quote, a backslash or a control character.
                escaped = "\\" in line
                suspect = escaped and ("\\ud" in line or "\\uD" in line)
                # json.loads(line) on a stripped line: one value that ends the line
                obj, end = _scan_json(line, 0)
                if end != len(line):
                    raise RecordError("extra data after the JSON value")
            else:
                obj, escaped, suspect = item, True, True
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
            lowered = None
            if hashtags is None:
                if "#" not in text:
                    hashtags = ()
                elif text.isascii():
                    # lower() changes only A-Z in ASCII text, so the tags of
                    # the lowered text are the lowered tags; a text that is not
                    # ASCII may lower into new ones, as "\u212a" into "k"
                    lowered = text.lower()
                    hashtags = tuple(_find_hashtags(lowered))
                else:
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
            # a lone surrogate (a JSON escape such as "\\ud800", or a CSV byte
            # that is not UTF-8) has no UTF-8 form, so no bundle file could hold it
            if suspect:
                try:
                    "".join((tweet_id, user_id, text, retweet_of or "", description or "",
                             *hashtags)).encode("utf-8")
                except UnicodeEncodeError:
                    raise RecordError("a field holds a lone surrogate") from None
        except (StopIteration, ValueError, RecursionError):
            # ValueError covers JSONDecodeError, UnicodeDecodeError,
            # RecordError and the digit limit
            if stats is None:
                raise
            malformed += 1
            continue
        parsed += 1
        if keywords is not None and tag_terms.isdisjoint(hashtags):
            if lowered is None:
                lowered = text.lower()
            for term in text_terms:
                if term in lowered:
                    break
            else:
                continue
        if write is not None:
            # One template for both kinds of line: on a line with no backslash
            # each string is written between quotes q as read (see above); on
            # any other, as `_encode` writes it, quotes included, and q is empty.
            if escaped:
                q, tags = "", [*map(_encode, hashtags)]
                body, tid, uid = _encode(text), _encode(tweet_id), _encode(user_id)
                rt, bio = retweet_of and _encode(retweet_of), description and _encode(description)
            else:
                q, tags, body, tid, uid = '"', hashtags, text, tweet_id, user_id
                rt, bio = retweet_of, description
            # keys in sorted order, default separators; created_at is written as
            # created.isoformat(), which is the input text when that is in the
            # form isoformat() gives back, and holds no character JSON escapes
            write("".join((
                '{"created_at": "',
                created_at if _canonical_time(created_at) else created.isoformat(),
                '", "hashtags": [', q + (q + ", " + q).join(tags) + q if tags else "",
                "]" if rt is None else '], "retweet_of_user_id": ' + q + rt + q,
                ', "text": ', q, body, q, ', "tweet_id": ', q, tid, q,
                "" if bio is None else ', "user_description": ' + q + bio + q,
                ', "user_id": ', q, uid, q, "}\n",
            )))
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
                id_bytes += tweet_id.encode("utf-8")
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
    table.records_with_description += described
    if stats is not None:
        stats.records += parsed
        stats.malformed += malformed


def record_to_json(obj: dict) -> str:
    """The line of `filtered.jsonl` that the input mapping `obj` is written
    as, without its newline: `json.dumps(record_to_dict(rec),
    ensure_ascii=False, sort_keys=True)` of its record, with the reference
    `record_to_dict` of tests/oracles.py. Raises the RecordError of the
    first check `obj` fails, in this order: it is a dict; `tweet_id` and
    `user_id` are nonempty strings, and `user_id` is one line and not only
    whitespace; `created_at` is a nonempty string and `text` a string;
    `hashtags`, if present, is an array of strings, each a token after its
    leading '#'s are dropped (absent: the hashtags of the text);
    `retweet_of_user_id` is a string, one line if not empty (empty: none);
    `created_at` is read by `datetime.fromisoformat`, "Z" as UTC and no
    offset as UTC; `user_description` is a string (empty: none); and no
    string field holds a lone surrogate."""
    out: list[str] = []
    _ingest((obj,), "mappings", RecordTable(), write=out.append)
    return out[0][:-1]


def keyword_filter(obj: dict, keywords: Sequence[str]) -> bool:
    """True iff any term matches the record of the input mapping `obj`:
    '#term' as exact hashtag token, bare term as case-insensitive substring
    of the text. Raises as `record_to_json` does for a mapping that fails
    its checks."""
    table = RecordTable()
    _ingest((obj,), "mappings", table, keywords=keywords)
    return len(table) == 1


def _csv_mappings(fileobj: io.TextIOBase, stats: ParseStats) -> Iterator[dict]:
    """The input mapping of each CSV row: its nonempty fields of
    `CSV_COLUMNS`, the hashtags column split at '|'. The header is the first
    row read, even a blank one; a column it names twice is read from the
    later one. Blank rows after it are skipped, a short row lacks the
    columns it does not reach, and fields past the header are dropped. A row
    the csv module rejects, such as one with a field longer than
    `csv.field_size_limit()`, is counted in `stats.malformed`, and reading
    goes on at the next line: after a header row that is rejected, the next
    row is the header."""
    reader = csv.reader(fileobj)
    at = None  # (column name, field position) of each column read
    while True:
        try:
            if at is None:
                at = tuple({name: i for i, name in enumerate(next(reader))
                            if name in CSV_COLUMNS}.items())
            for row in reader:
                if row:
                    n = len(row)
                    obj = {name: row[i] for name, i in at if i < n and row[i]}
                    tags = obj.get("hashtags")
                    if tags is not None:
                        obj["hashtags"] = tags.split("|")
                    yield obj
            return
        except StopIteration:
            return
        except csv.Error:  # the reader's: an error in the caller's loop is not thrown in here
            stats.malformed += 1


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


def corpus_summary(table: RecordTable) -> dict[str, int]:
    """The record counts of `table` that `ingest_stats.json` holds."""
    records_by_author = np.bincount(np.frombuffer(table.user_id, dtype=np.intc))
    return {
        "tweet_count": len(table),
        "unique_user_count": int(np.count_nonzero(records_by_author)),
        "retweet_count": len(table) - table.retweet_of_user_id.count(-1),
        "records_with_description": table.records_with_description,
    }
