"""Most frequent terms in user profile descriptions."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .records import TweetRecord

TOKEN_RE = re.compile(r"[a-z0-9_]+")

# small English function-word list; enough to keep glue words out of the table
DEFAULT_STOPLIST = frozenset(
    """a about all am an and are as at be been but by can do for from had has
    have he her him his i if in is it its just me my no not of on or our she
    so than that the their them they this to up was we were what when who
    will with you your""".split()
)


class NoDescriptionsError(ValueError):
    """No user in the records has a nonempty profile description."""


@dataclass
class TermFrequencyTable:
    terms: list[tuple[str, float]]  # (term, proportion), non-increasing
    user_base: int

    def to_rows(self) -> list[tuple[int, str, float, int]]:
        return [
            (rank + 1, term, prop, round(prop * self.user_base))
            for rank, (term, prop) in enumerate(self.terms)
        ]


def description_term_proportions(
    records: Iterable[TweetRecord],
    stoplist: frozenset[str] = DEFAULT_STOPLIST,
    top_n: int = 10,
) -> TermFrequencyTable:
    """Proportion of users whose latest profile description contains each term.

    One description per user (latest created_at); each user counts at most
    once per term; tokens shorter than 2 characters and stoplisted tokens are
    excluded. Ties broken lexicographically.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    latest: dict[str, tuple] = {}
    for rec in records:
        if rec.user_description is None or not rec.user_description.strip():
            continue
        prev = latest.get(rec.user_id)
        if prev is None or rec.created_at > prev[0]:
            latest[rec.user_id] = (rec.created_at, rec.user_description)
    if not latest:
        raise NoDescriptionsError("no users with nonempty descriptions")
    user_base = len(latest)
    term_users: dict[str, int] = {}
    for _, description in latest.values():
        tokens = set(TOKEN_RE.findall(description.lower()))
        for tok in tokens:
            if len(tok) < 2 or tok in stoplist:
                continue
            term_users[tok] = term_users.get(tok, 0) + 1
    ranked = sorted(term_users.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return TermFrequencyTable(
        terms=[(term, count / user_base) for term, count in ranked],
        user_base=user_base,
    )
