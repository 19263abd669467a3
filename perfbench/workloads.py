"""Seeded synthetic tweet corpora for the benchmark workloads.

One process generates a workload from a seed. The program under test sees
only the JSONL file; the generator also returns its own ground truth
(counts, planted groups, tag pools), computed from the generated events and
never from echonet, for the output checks to compare a bundle against.

    python3 perfbench/workloads.py --workload clique-sweep --seed 7 --out DIR

writes DIR/input.jsonl and DIR/truth.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from datetime import datetime, timedelta, timezone

# Run flags per workload; `--iters` keeps the few topic tokens of the first
# two workloads from turning `topics` into a cost centre there.
FLAGS = {
    "retweet-scale": ["--k", "4", "--rule", "loose", "--k-min", "3", "--k-max", "12",
                      "--iters", "20"],
    "clique-sweep": ["--k", "9", "--rule", "standard", "--k-min", "3", "--k-max", "12",
                     "--iters", "20"],
    "topic-fit": ["--k", "4", "--n-topics", "8", "--iters", "30"],
}

# "full" is what the benchmark times; "smoke" finishes in about a second.
SIZES = {
    "retweet-scale": {
        "full": {"users": 4_000, "edges_per_user": 4.3, "topic_share": 0.03},
        "smoke": {"users": 400, "edges_per_user": 4.3, "topic_share": 0.05},
    },
    "clique-sweep": {
        "full": {"groups": (11, 12, 13, 14, 15), "background": 2000, "background_degree": 2.5},
        "smoke": {"groups": (9, 10, 11), "background": 200, "background_degree": 2.5},
    },
    "topic-fit": {
        "full": {"groups": 4, "group_size": 12, "tweets_per_user": 8},
        "smoke": {"groups": 4, "group_size": 12, "tweets_per_user": 4},
    },
}

WORKLOADS = tuple(FLAGS)

BASE_TIME = datetime(2020, 6, 1, tzinfo=timezone.utc)
MALFORMED_PER_WORKLOAD = 25
DESCRIPTION_WORDS = (
    "patriot mom dad christian truth freedom maga veteran nurse teacher retired "
    "family faith country music proud american grandma blessed awake research "
    "digital soldier news dog lover husband wife constitution liberty hunter "
    "fisher farmer texas florida ohio writer artist coffee football baseball "
    "conservative independent citizen journalist engineer mother father"
).split()
FILLER_WORDS = (
    "today watch read share thread video breaking look new story why how "
    "people know think see big plan trust"
).split()
OFFTOPIC_TAGS = ("news", "weather", "sports", "music", "food")
TRICKLE_TAGS = tuple(f"trend{i}" for i in range(10))


class CorpusWriter:
    """Collects records and the ground truth the checks compare against."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.records: list[dict] = []
        self.descriptions: dict[str, str] = {}
        self.kept: list[tuple[str, str | None]] = []
        self.malformed: list[bytes] = []

    def description(self, user: str) -> str:
        desc = self.descriptions.get(user)
        if desc is None:
            words = self.rng.sample(DESCRIPTION_WORDS, self.rng.randint(3, 7))
            words.insert(self.rng.randrange(len(words) + 1), "and")
            desc = " ".join(words)
            self.descriptions[user] = desc
        return desc

    def _filler(self, n: int) -> str:
        return " ".join(self.rng.choice(FILLER_WORDS) for _ in range(n))

    def matching(self, user: str, retweet_of: str | None = None, tags=()) -> None:
        """A record the default keyword filter keeps."""
        stop = self.rng.choice(("#q", "#qanon", "qanon"))
        body = " ".join([self._filler(self.rng.randint(2, 6)), stop] + [f"#{t}" for t in tags])
        text = f"RT @{retweet_of}: {body}" if retweet_of else body
        self._add(user, text, retweet_of)
        self.kept.append((user, retweet_of))

    def offtopic(self, user: str, retweet_of: str | None = None) -> None:
        """A well-formed record the keyword filter drops."""
        text = f"{self._filler(self.rng.randint(3, 8))} #{self.rng.choice(OFFTOPIC_TAGS)}"
        self._add(user, text, retweet_of)

    def _add(self, user: str, text: str, retweet_of: str | None) -> None:
        rec = {"user_id": user, "text": text, "user_description": self.description(user)}
        if retweet_of is not None:
            rec["retweet_of_user_id"] = retweet_of
        self.records.append(rec)

    def add_malformed(self, count: int) -> None:
        good = {"tweet_id": "x", "user_id": "u", "created_at": BASE_TIME.isoformat(),
                "text": "qanon"}
        kinds = (
            lambda: json.dumps(good)[: self.rng.randint(5, 30)].encode(),
            lambda: json.dumps({k: v for k, v in good.items() if k != "user_id"}).encode(),
            lambda: json.dumps(dict(good, created_at="not-a-date")).encode(),
            lambda: b"\xff\xfe" + json.dumps(good).encode(),
            lambda: b"[1, 2, 3]",
        )
        self.malformed.extend(kinds[i % len(kinds)]() for i in range(count))

    def serialize(self) -> bytes:
        """Shuffle, stamp ids and times in file order, and encode as JSONL."""
        lines: list[object] = list(self.records) + list(self.malformed)
        self.rng.shuffle(lines)
        out = []
        for i, item in enumerate(lines):
            if isinstance(item, bytes):
                out.append(item)
                continue
            stamped = dict(item, tweet_id=f"t{i}",
                           created_at=(BASE_TIME + timedelta(seconds=7 * i)).isoformat())
            out.append(json.dumps(stamped, sort_keys=True).encode())
        return b"\n".join(out) + b"\n"

    def truth(self) -> dict:
        retweets = [(u, t) for u, t in self.kept if t is not None]
        return {
            "input_lines": len(self.records) + len(self.malformed),
            "input_records": len(self.records),
            "malformed_lines": len(self.malformed),
            "tweet_count": len(self.kept),
            "unique_user_count": len({u for u, _ in self.kept}),
            "retweet_count": len(retweets),
            "records_with_description": len(self.kept),
            "node_count": len({u for u, _ in self.kept} | {t for _, t in retweets}),
            "unique_edge_count": len(set(retweets)),
            "weighted_edge_sum": len(retweets),
        }


def scale_free_events(n_nodes: int, n_edges: int, m: int, rng: random.Random):
    """Preferential-attachment edge list padded with random extra edges."""
    repeated: list[int] = []
    edges: set[tuple[int, int]] = set()
    targets = list(range(m))
    for v in range(m, n_nodes):
        for u in targets:
            edges.add((v, u))
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    while len(edges) < n_edges:
        u, v = rng.choice(repeated), rng.choice(repeated)
        if u != v:
            edges.add((u, v))
    return sorted(edges)


def _retweet_scale(rng: random.Random, size: dict) -> tuple[CorpusWriter, dict]:
    """Preferential-attachment retweets (m=4); 20% of records are off-topic."""
    w = CorpusWriter(rng)
    users = size["users"]
    events = scale_free_events(users, int(users * size["edges_per_user"]), 4, rng)
    for a, b in events:
        repeats = 2 if rng.random() < 0.1 else 1
        for _ in range(repeats):
            tags = (rng.choice(TRICKLE_TAGS),) if rng.random() < size["topic_share"] else ()
            w.matching(f"u{a}", f"u{b}", tags)
    for _ in range(users // 20):
        w.matching(f"u{rng.randrange(users)}")
    n_offtopic = len(w.records) // 4
    for _ in range(n_offtopic):
        a, b = rng.randrange(users), rng.randrange(users)
        w.offtopic(f"u{a}", f"u{b}" if a != b else None)
    return w, {}


def _planted_group_retweets(w: CorpusWriter, members: list[str]) -> None:
    for a in members:
        for b in members:
            if a != b:
                w.matching(a, b)


def _clique_sweep(rng: random.Random, size: dict) -> tuple[CorpusWriter, dict]:
    """All-pairs retweet groups bridged into a bipartite (triangle-free)
    background, so that no k-clique for k >= 3 exists outside the groups."""
    w = CorpusWriter(rng)
    n_bg = size["background"]
    left = [f"b{i}" for i in range(n_bg // 2)]
    right = [f"b{i}" for i in range(n_bg // 2, n_bg)]
    pairs: set[tuple[str, str]] = set()
    while len(pairs) < int(n_bg * size["background_degree"]):
        a, b = rng.choice(left), rng.choice(right)
        pairs.add((a, b) if rng.random() < 0.5 else (b, a))
    for a, b in sorted(pairs):
        w.matching(a, b)
    groups = []
    free_bg = rng.sample(left + right, 3 * len(size["groups"]))
    for gi, n in enumerate(size["groups"]):
        members = [f"g{gi}m{j}" for j in range(n)]
        groups.append(members)
        _planted_group_retweets(w, members)
        # each bridge uses its own member and its own background user, so
        # bridges close no triangle
        for j in range(3):
            w.matching(members[j], free_bg.pop())
        for m in members:
            w.matching(m, tags=rng.sample(TRICKLE_TAGS, 2))
    for _ in range(len(w.records) // 30):
        w.offtopic(rng.choice(left + right))
    return w, {"groups": groups, "background_clique_number": 2}


def _topic_fit(rng: random.Random, size: dict) -> tuple[CorpusWriter, dict]:
    """Planted retweet groups whose members tag 80% from their own pool."""
    w = CorpusWriter(rng)
    shared = [f"shared{j}" for j in range(20)]
    groups, pools = [], []
    for gi in range(size["groups"]):
        members = [f"g{gi}m{j}" for j in range(size["group_size"])]
        own = [f"g{gi}tag{j}" for j in range(40)]
        groups.append(members)
        pools.append(own)
        _planted_group_retweets(w, members)
        for m in members:
            for _ in range(size["tweets_per_user"]):
                tags = [rng.choice(own) if rng.random() < 0.8 else rng.choice(shared)
                        for _ in range(5)]
                w.matching(m, tags=tags)
            w.offtopic(m)
    return w, {"groups": groups, "pools": pools, "shared_pool": shared}


_BUILDERS = {
    "retweet-scale": _retweet_scale,
    "clique-sweep": _clique_sweep,
    "topic-fit": _topic_fit,
}


def generate(workload: str, seed: int, scale: str = "full") -> tuple[bytes, dict]:
    """Return (JSONL bytes, ground truth); the same arguments give the same bytes."""
    rng = random.Random(f"{workload}/{seed}")
    w, planted = _BUILDERS[workload](rng, SIZES[workload][scale])
    w.add_malformed(MALFORMED_PER_WORKLOAD)
    data = w.serialize()
    truth = {"workload": workload, "seed": seed, "scale": scale, "flags": FLAGS[workload]}
    truth.update(w.truth())
    truth.update(planted)
    return data, truth


def write_workload(workload: str, seed: int, outdir: str, scale: str = "full") -> tuple[str, dict]:
    """Write input.jsonl and truth.json into outdir; return (input path, truth)."""
    data, truth = generate(workload, seed, scale)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "input.jsonl")
    with open(path, "wb") as fh:
        fh.write(data)
    with open(os.path.join(outdir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
    return path, truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()
    path, truth = write_workload(args.workload, args.seed, args.out, args.scale)
    print(f"{path}: {truth['input_lines']} lines, {truth['tweet_count']} kept")


if __name__ == "__main__":
    main()
