"""Tweet record ingestion: JSONL/CSV parsing, keyword filtering, corpus stats."""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator, Optional, Sequence

HASHTAG_RE = re.compile(r"#([A-Za-z0-9_]+)")

# a JSON string literal, escaped as json.dumps(..., ensure_ascii=False) escapes it
_encode = json.encoder.encode_basestring

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


@dataclass(frozen=True, slots=True)
class TweetRecord:
    tweet_id: str
    user_id: str
    created_at: datetime
    text: str
    hashtags: tuple[str, ...]
    retweet_of_user_id: Optional[str] = None
    user_description: Optional[str] = None

    @property
    def is_retweet(self) -> bool:
        return self.retweet_of_user_id is not None


@dataclass
class CorpusStats:
    tweet_count: int = 0
    unique_user_count: int = 0
    retweet_count: int = 0
    records_with_description: int = 0

    def to_dict(self) -> dict:
        return {
            "tweet_count": self.tweet_count,
            "unique_user_count": self.unique_user_count,
            "retweet_count": self.retweet_count,
            "records_with_description": self.records_with_description,
        }


@dataclass
class ParseStats:
    """Mutable counters handed to the streaming parser."""

    malformed: int = 0
    records: int = 0  # well-formed records yielded


def extract_hashtags(text: str) -> tuple[str, ...]:
    """Hashtags are maximal [A-Za-z0-9_]+ runs after '#', lowercased."""
    return tuple([sys.intern(tag.lower()) for tag in HASHTAG_RE.findall(text)])


def _parse_created_at(raw: str) -> datetime:
    try:
        dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError as exc:
        raise RecordError(f"bad created_at: {raw!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt


def _clean_optional(value) -> Optional[str]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise RecordError("optional field must be a string")
    return sys.intern(value) if value else None


def _require_node_id(value: Optional[str], name: str) -> None:
    """Raise RecordError if a user id cannot be one line of nodes.txt: a line
    break would split it and a blank line is skipped when the file is read."""
    if value is not None and ("\n" in value or "\r" in value or value.isspace()):
        raise RecordError(f"{name} must be one line and not only whitespace")


def _normalize_hashtags(raw) -> tuple[str, ...]:
    tags = []
    for tag in raw:
        if not isinstance(tag, str):
            raise RecordError("hashtag entries must be strings")
        tag = tag.lstrip("#").lower()
        if not tag or any(c.isspace() for c in tag) or "#" in tag:
            raise RecordError(f"bad hashtag token: {tag!r}")
        tags.append(sys.intern(tag))
    return tuple(tags)


def record_from_mapping(obj: dict) -> TweetRecord:
    """Build a validated TweetRecord from a parsed input mapping. User ids,
    descriptions and hashtags repeat across records, so they are interned:
    a corpus held in memory keeps one copy of each."""
    if not isinstance(obj, dict):
        raise RecordError("record is not an object")
    get = obj.get
    tweet_id, user_id, created_at, text = (
        get("tweet_id"), get("user_id"), get("created_at"), get("text"))
    if not isinstance(tweet_id, str) or not tweet_id:
        raise RecordError("missing or invalid field: tweet_id")
    if not isinstance(user_id, str) or not user_id:
        raise RecordError("missing or invalid field: user_id")
    _require_node_id(user_id, "user_id")
    if not isinstance(created_at, str) or not created_at:
        raise RecordError("missing or invalid field: created_at")
    if not isinstance(text, str):  # empty text is legal
        raise RecordError("missing or invalid field: text")
    hashtags_raw = get("hashtags")
    if hashtags_raw is None:
        hashtags = extract_hashtags(text)
    elif isinstance(hashtags_raw, (list, tuple)):
        hashtags = _normalize_hashtags(hashtags_raw)
    else:
        raise RecordError("hashtags must be an array")
    retweet_of = _clean_optional(get("retweet_of_user_id"))
    _require_node_id(retweet_of, "retweet_of_user_id")
    return TweetRecord(
        tweet_id,
        sys.intern(user_id),
        _parse_created_at(created_at),
        text,
        hashtags,
        retweet_of,
        _clean_optional(get("user_description")),
    )


def _require_utf8(rec: TweetRecord) -> None:
    """Raise RecordError if a string field holds a lone surrogate (JSON can
    escape one, as in "\\ud800"): UTF-8 cannot encode it, so no bundle file
    could hold the record."""
    for value in (rec.tweet_id, rec.user_id, rec.text, rec.retweet_of_user_id,
                  rec.user_description, *rec.hashtags):
        if value is None:
            continue
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise RecordError("a field holds a lone surrogate") from None


def record_to_dict(rec: TweetRecord) -> dict:
    out = {
        "tweet_id": rec.tweet_id,
        "user_id": rec.user_id,
        "created_at": rec.created_at.isoformat(),
        "text": rec.text,
        "hashtags": list(rec.hashtags),
    }
    if rec.retweet_of_user_id is not None:
        out["retweet_of_user_id"] = rec.retweet_of_user_id
    if rec.user_description is not None:
        out["user_description"] = rec.user_description
    return out


def record_to_json(rec: TweetRecord) -> str:
    """The line `json.dumps(record_to_dict(rec), ensure_ascii=False,
    sort_keys=True)` gives, joined from the encoded strings directly: keys in
    sorted order, default separators, no dict built on the way."""
    parts = ['{"created_at": ', _encode(rec.created_at.isoformat()),
             ', "hashtags": [', ", ".join(map(_encode, rec.hashtags)), "]"]
    if rec.retweet_of_user_id is not None:
        parts += (', "retweet_of_user_id": ', _encode(rec.retweet_of_user_id))
    parts += (', "text": ', _encode(rec.text), ', "tweet_id": ', _encode(rec.tweet_id))
    if rec.user_description is not None:
        parts += (', "user_description": ', _encode(rec.user_description))
    parts += (', "user_id": ', _encode(rec.user_id), "}")
    return "".join(parts)


def parse_tweet_stream(
    lines: Iterable[str | bytes], stats: Optional[ParseStats] = None
) -> Iterator[TweetRecord]:
    """Yield one TweetRecord per well-formed JSON line, skipping malformed ones.
    A record with a lone surrogate in a string field is malformed; bytes lines
    are decoded strictly, so there only a JSON escape can produce one."""
    for line in lines:
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                if stats is not None:
                    stats.malformed += 1
                continue
        line = line.strip()
        if not line:
            continue
        try:
            rec = record_from_mapping(json.loads(line))
            if "\\ud" in line or "\\uD" in line:  # only an escape decodes to a surrogate
                _require_utf8(rec)
        except (json.JSONDecodeError, RecordError):
            if stats is not None:
                stats.malformed += 1
            continue
        if stats is not None:
            stats.records += 1
        yield rec


def parse_tweet_csv(
    fileobj: io.TextIOBase, stats: Optional[ParseStats] = None
) -> Iterator[TweetRecord]:
    """CSV variant of the stream parser; hashtags column is '|'-separated."""
    reader = csv.DictReader(fileobj)
    for row in reader:
        obj = {k: v for k, v in row.items() if k in CSV_COLUMNS and v not in (None, "")}
        if "hashtags" in obj:
            obj["hashtags"] = obj["hashtags"].split("|")
        try:
            rec = record_from_mapping(obj)
        except RecordError:
            if stats is not None:
                stats.malformed += 1
            continue
        if stats is not None:
            stats.records += 1
        yield rec


def read_records(
    path: str,
    stats: Optional[ParseStats] = None,
    keep: Optional[Callable[[TweetRecord], bool]] = None,
) -> list[TweetRecord]:
    """Read a JSONL (default) or .csv record file into memory. With `keep`,
    only the records it accepts are held; the others are dropped as they are
    parsed, so the whole file is never in memory at once."""
    if str(path).endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            records = parse_tweet_csv(fh, stats)
            return list(records if keep is None else filter(keep, records))
    with open(path, "rb") as fh:
        records = parse_tweet_stream(fh, stats)
        return list(records if keep is None else filter(keep, records))


def keyword_filter(record: TweetRecord, keywords: Sequence[str]) -> bool:
    """True iff any term matches: '#term' as exact hashtag token, bare term as
    case-insensitive substring of the text."""
    if not keywords:
        raise ValueError("keywords must be nonempty")
    text_lower = record.text.lower()
    for term in keywords:
        term = term.lower()
        if term.startswith("#"):
            if term[1:] in record.hashtags:
                return True
        elif term in text_lower:
            return True
    return False


def corpus_summary(records: Iterable[TweetRecord]) -> CorpusStats:
    stats = CorpusStats()
    users = set()
    for rec in records:
        stats.tweet_count += 1
        users.add(rec.user_id)
        if rec.is_retweet:
            stats.retweet_count += 1
        if rec.user_description:
            stats.records_with_description += 1
    stats.unique_user_count = len(users)
    return stats
