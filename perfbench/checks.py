"""Output checks for one `echonet run` bundle against the generator's truth.

Every check returns a list of problems; an empty list means the bundle
passed. A job whose bundle has a problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os


def _flag(truth: dict, name: str, default: str) -> str:
    flags = truth["flags"]
    return flags[flags.index(name) + 1] if name in flags else default


def _load_json(outdir: str, name: str):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def bundle_digests(outdir: str) -> tuple[dict[str, str], list[str]]:
    """sha256 of every data artifact the manifest lists, plus problems found.

    The manifest itself carries timestamps and is the one artifact exempt
    from byte identity, so it is read but not digested.
    """
    try:
        manifest = _load_json(outdir, "manifest.json")
    except (OSError, ValueError) as exc:
        return {}, [f"manifest unreadable: {exc}"]
    digests, problems = {}, []
    for name in manifest["files"]:
        try:
            with open(os.path.join(outdir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            problems.append(f"listed file missing: {name}")
    return digests, problems


def compare_digests(reference: dict[str, str], digests: dict[str, str]) -> list[str]:
    """Data artifacts must be byte-identical across every job in a set."""
    if set(reference) != set(digests):
        return [f"file set differs: {sorted(set(reference) ^ set(digests))}"]
    return [f"{name} differs from the first job" for name in sorted(reference)
            if reference[name] != digests[name]]


def check_counts(outdir: str, truth: dict) -> list[str]:
    """ingest_stats.json and network_stats.json equal the generated counts."""
    problems = []
    ingest = _load_json(outdir, "ingest_stats.json")
    network = _load_json(outdir, "network_stats.json")
    for source, keys in (
        (ingest, ("tweet_count", "unique_user_count", "retweet_count",
                  "records_with_description", "malformed_lines", "input_records")),
        (network, ("node_count", "unique_edge_count", "weighted_edge_sum")),
    ):
        for key in keys:
            if source.get(key) != truth[key]:
                problems.append(f"{key}: bundle {source.get(key)} != generated {truth[key]}")
    return problems


def _communities(outdir: str, truth: dict) -> tuple[list[dict], str]:
    k = _flag(truth, "--k", "9")
    rule = _flag(truth, "--rule", "standard")
    return _load_json(outdir, f"communities_k{k}_{rule}.json"), rule


def _check_planted(found: list[dict], groups: list[list[str]], k: int) -> list[str]:
    want = {frozenset(g) for g in groups if len(g) >= k}
    got = {frozenset(c["members"]) for c in found}
    if got != want:
        return [f"communities at k={k}: {len(got - want)} unexpected, {len(want - got)} missing"]
    return []


def check_clique_sweep(outdir: str, truth: dict) -> list[str]:
    """Communities at k are the planted groups; above the background's clique
    number the sweep counts communities and k-cliques of the groups alone."""
    k = int(_flag(truth, "--k", "9"))
    found, rule = _communities(outdir, truth)
    problems = _check_planted(found, truth["groups"], k)
    sizes = [len(g) for g in truth["groups"]]
    with open(os.path.join(outdir, f"sweep_{rule}.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        problems.append("sweep is empty")
    for row in rows:
        kk = int(row["k"])
        if kk <= truth["background_clique_number"]:
            continue
        communities = sum(s >= kk for s in sizes)
        cliques = sum(math.comb(s, kk) for s in sizes if s >= kk)
        if int(row["community_count"]) != communities:
            problems.append(f"sweep k={kk}: {row['community_count']} communities != {communities}")
        if int(row["clique_count"]) != cliques:
            problems.append(f"sweep k={kk}: {row['clique_count']} cliques != {cliques}")
    return problems


def check_topic_fit(outdir: str, truth: dict) -> list[str]:
    """Groups recovered exactly; each community's top keywords come only from
    its own or the shared pool, mostly its own; perplexity finite and > 1.

    The keyword test holds for any sampler that fits the counts, because
    each own-pool tag is twice as frequent as each shared tag."""
    k = int(_flag(truth, "--k", "4"))
    found, _ = _communities(outdir, truth)
    problems = _check_planted(found, truth["groups"], k)
    if problems:
        return problems
    group_of = {m: gi for gi, g in enumerate(truth["groups"]) for m in g}
    shared = set(truth["shared_pool"])
    for comm in found:
        cid = comm["community_id"]
        own = set(truth["pools"][group_of[comm["members"][0]]])
        try:
            topics = _load_json(outdir, f"topics_community{cid}.json")
        except OSError:
            problems.append(f"community {cid}: no topics file")
            continue
        words = [kw["token"] for t in topics["topics"] for kw in t["keywords"]]
        stray = [w for w in words if w not in own and w not in shared]
        if stray:
            problems.append(f"community {cid}: keywords from other pools: {stray[:3]}")
        if sum(w in own for w in words) * 2 <= len(words):
            problems.append(f"community {cid}: own pool is not most of its keywords")
        p = topics["perplexity"]
        if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 1):
            problems.append(f"community {cid}: perplexity {p!r} not finite and > 1")
    return problems


WORKLOAD_CHECKS = {
    "retweet-scale": (check_counts,),
    "clique-sweep": (check_counts, check_clique_sweep),
    "topic-fit": (check_counts, check_topic_fit),
}


def check_bundle(workload: str, outdir: str, truth: dict) -> list[str]:
    problems = []
    for check in WORKLOAD_CHECKS[workload]:
        try:
            problems.extend(check(outdir, truth))
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return problems
