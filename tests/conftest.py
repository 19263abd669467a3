import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from datetime import datetime, timezone

from echonet.records import RecordTable, TweetRecord, extract_hashtags


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
    return TweetRecord(
        tweet_id=tweet_id,
        user_id=user_id,
        created_at=created,
        text=text,
        hashtags=extract_hashtags(text) if hashtags is None else tuple(hashtags),
        retweet_of_user_id=retweet_of,
        user_description=description,
    )


def columns(table: RecordTable) -> dict[str, list]:
    """Every column a RecordTable carries, by name, as a list, and the user
    names its codes stand for, in code order."""
    return {"user_codes": list(table.user_codes),
            **{name: list(getattr(table, name)) for name in RecordTable.COLUMNS}}
