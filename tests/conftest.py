import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import json
import os
import tempfile
from datetime import datetime, timezone

import oracles
from echonet.records import ParseStats, RecordTable, extract_hashtags, read_records


def make_record(
    tweet_id,
    user_id,
    text="",
    retweet_of=None,
    description=None,
    created="2018-07-01T00:00:00+00:00",
    hashtags=None,
):
    if isinstance(created, str):
        created = datetime.fromisoformat(created)
    if created.tzinfo is None:
        created = created.replace(tzinfo=timezone.utc)
    return oracles.TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at=created,
        text=text,
        hashtags=extract_hashtags(text) if hashtags is None else tuple(hashtags),
        retweet_of_user_id=retweet_of,
        user_description=description,
    )


def table_of(records) -> RecordTable:
    """The table `read_records` reads from `records` (`oracles.TweetRecord`s)
    written as JSONL lines; each record must pass the checks."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(oracles.record_to_dict(rec), ensure_ascii=False) + "\n")
        stats = ParseStats()
        table = read_records(path, stats)
    assert stats.malformed == 0, "a record failed the checks"
    return table


def columns(table: RecordTable) -> dict[str, list]:
    """Every column a RecordTable carries, by name, as a list, the user names
    its codes stand for, in code order, and its `records_with_description`."""
    return {"user_codes": list(table.user_codes),
            **{name: list(getattr(table, name)) for name in RecordTable.COLUMNS},
            "records_with_description": table.records_with_description}
