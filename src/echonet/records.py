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
    return tuple(sys.intern(m.group(1).lower()) for m in HASHTAG_RE.finditer(text))


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
    for key in ("tweet_id", "user_id", "created_at", "text"):
        if not isinstance(obj.get(key), str) or obj[key] == "":
            if key == "text" and isinstance(obj.get(key), str):
                continue  # empty text is legal
            raise RecordError(f"missing or invalid field: {key}")
    hashtags_raw = obj.get("hashtags")
    if hashtags_raw is None:
        hashtags = extract_hashtags(obj["text"])
    elif isinstance(hashtags_raw, (list, tuple)):
        hashtags = _normalize_hashtags(hashtags_raw)
    else:
        raise RecordError("hashtags must be an array")
    return TweetRecord(
        tweet_id=obj["tweet_id"],
        user_id=sys.intern(obj["user_id"]),
        created_at=_parse_created_at(obj["created_at"]),
        text=obj["text"],
        hashtags=hashtags,
        retweet_of_user_id=_clean_optional(obj.get("retweet_of_user_id")),
        user_description=_clean_optional(obj.get("user_description")),
    )


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
    return json.dumps(record_to_dict(rec), ensure_ascii=False, sort_keys=True)


def parse_tweet_stream(
    lines: Iterable[str | bytes], stats: Optional[ParseStats] = None
) -> Iterator[TweetRecord]:
    """Yield one TweetRecord per well-formed JSON line, skipping malformed ones."""
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
