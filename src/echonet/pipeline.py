"""The stage table and the runners it drives.

echonet is a fixed chain of five stages. `TABLE` lists each one once: its
function, the config fields that shape its outputs, and the bundle files it
reads and writes. `run_pipeline`, the subcommands, `--resume` and the manifest
all derive from it. Files are the interface between stages, so each one can be
re-run and inspected on its own. Within one `run_pipeline` call, the records
`ingest` kept also pass to the later stages in memory (`StageFiles.records`),
so each record file is parsed at most once per run, and the symmetrized graph
passes from `graph` to `communities` the same way, so `communities` reads
`nodes.txt` and `undirected_edges.csv` only when `graph` did not run before it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

from . import __version__
from .communities import community_count_sweep, detect_communities, maximal_clique_list
from .config import PipelineConfig
from .graph import (
    RetweetGraph,
    UndirectedGraph,
    build_retweet_graph,
    classify_roles,
    degree_histogram,
    degree_summary,
    symmetrize,
)
from .profiles import DEFAULT_STOPLIST, NoDescriptionsError, description_term_proportions
from .records import (
    ParseStats,
    TweetRecord,
    corpus_summary,
    keyword_filter,
    read_records,
    record_to_json,
)
from .topics import (
    EmptyCorpusError,
    build_community_corpus,
    doc_topic_distribution,
    fit_lda,
    held_out_perplexity,
    topic_keywords,
)

# bundle files that more than one stage names
FILTERED = "filtered.jsonl"
NODES = "nodes.txt"
EDGES = "undirected_edges.csv"
COMMUNITIES = "communities_k{k}_{rule}.json"
STOPLIST = "stoplist.txt"  # read only when the profiles subcommand points it at a file
MANIFEST = "manifest.json"


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextlib.contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Open `path` for writing text through a temp file in the same directory
    that `os.replace` moves into place on success. A killed process leaves the
    old file or the new one, never a truncated one; without an fsync this does
    not extend to power loss."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class StageFiles:
    """Where one stage reads and writes. A file is named by its template in
    the stage table, filled in from the config (plus `extra` fields such as a
    community id), and lives at `<outdir>/<name>` unless `redirects` maps its
    template to another path. `written` maps each name written to its path.
    `parsed` maps the path of each file parsed or built so far to what it
    holds: a record file to its records, the edge file to the symmetrized
    graph. The stages of one run share it."""

    stage: Stage
    config: PipelineConfig
    redirects: dict[str, str] = field(default_factory=dict)
    written: dict[str, str] = field(default_factory=dict)
    parsed: dict[str, list[TweetRecord] | UndirectedGraph] = field(default_factory=dict)

    def name(self, template: str, **extra) -> str:
        if template not in self.stage.reads and template not in self.stage.writes:
            raise KeyError(f"stage '{self.stage.name}' does not declare {template}")
        return template.format_map({**vars(self.config), **extra})

    def path(self, template: str, **extra) -> str:
        name = self.name(template, **extra)
        return self.redirects.get(template) or os.path.join(self.config.outdir, name)

    @contextlib.contextmanager
    def create(self, template: str, newline: str | None = None, **extra):
        path = self.path(template, **extra)
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with atomic_open(path, newline) as fh:
            yield fh
        self.written[self.name(template, **extra)] = path

    def records(self, template: str) -> list[TweetRecord]:
        """The records of the file `template` names: parsed on first use, then
        taken from `parsed`."""
        path = self.path(template)
        if path not in self.parsed:
            self.parsed[path] = read_records(path)
        return self.parsed[path]


def _write_json(files: StageFiles, template: str, payload, **extra) -> None:
    with files.create(template, **extra) as fh:
        fh.write(_json_text(payload))


def _write_csv(files: StageFiles, template: str, header: list[str], rows, **extra) -> None:
    with files.create(template, newline="", **extra) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def stage_ingest(config: PipelineConfig, files: StageFiles) -> None:
    """Parse, keyword-filter and summarize the input records."""
    parse_stats = ParseStats()
    kept = read_records(config.input, parse_stats, lambda r: keyword_filter(r, config.keywords))
    with files.create(FILTERED) as fh:
        for rec in kept:
            fh.write(record_to_json(rec) + "\n")
    files.parsed[files.path(FILTERED)] = kept  # what parsing the file back yields
    stats = corpus_summary(kept).to_dict()
    stats["malformed_lines"] = parse_stats.malformed
    stats["input_records"] = parse_stats.records
    _write_json(files, "ingest_stats.json", stats)


def write_graph_outputs(
    g: RetweetGraph, ug: UndirectedGraph, tau: float, files: StageFiles
) -> None:
    _write_json(files, "network_stats.json", degree_summary(g).to_dict())
    _write_csv(files, "degree_histogram.csv", ["weighting", "degree", "out_count", "in_count"],
               degree_histogram(g))
    roles = classify_roles(g, tau)
    _write_csv(files, "roles.csv", ["user_id", "in_deg", "out_deg", "score", "label"],
               [(r.user, r.in_deg, r.out_deg, repr(r.score), r.label) for r in roles])
    _write_csv(files, EDGES, ["u", "v", "weight"],
               [(u, v, w) for (u, v), w in sorted(ug.edges.items())])
    with files.create(NODES) as fh:
        for node in sorted(ug.nodes):
            fh.write(node + "\n")


def stage_graph(config: PipelineConfig, files: StageFiles) -> None:
    """Build the retweet digraph, its degree reports and roles, and its symmetrized form."""
    g = build_retweet_graph(files.records(FILTERED))
    if not g.nodes:
        raise ValueError("no records survived ingest; graph would be empty")
    ug = symmetrize(g, config.min_weight)
    write_graph_outputs(g, ug, config.tau, files)
    files.parsed[files.path(EDGES)] = ug  # what loading the graph files back yields


def load_undirected_graph(nodes_path: str, edges_path: str) -> UndirectedGraph:
    ug = UndirectedGraph()
    with open(nodes_path, encoding="utf-8") as fh:
        ug.nodes = {line.rstrip("\n") for line in fh if line.strip()}
    with open(edges_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            ug.edges[(row["u"], row["v"])] = int(row["weight"])
    return ug


def write_community_outputs(config: PipelineConfig, ug: UndirectedGraph, files: StageFiles) -> None:
    maximal = maximal_clique_list(ug)
    cover = detect_communities(maximal, config.k, config.rule, config.max_cliques)
    payload = [
        {"community_id": i, "size": len(c), "members": sorted(c)}
        for i, c in enumerate(cover.communities)
    ]
    _write_json(files, COMMUNITIES, payload)
    sweep = community_count_sweep(
        maximal, config.k_min, config.k_max, config.rule, config.max_cliques
    )
    ks = range(config.k_min, config.k_max + 1)
    _write_csv(files, "sweep_{rule}.csv", ["k", "community_count", "clique_count"],
               [(k, sweep.community_counts[k], sweep.clique_counts[k]) for k in ks])


def stage_communities(config: PipelineConfig, files: StageFiles) -> None:
    """Percolate k-cliques into communities and sweep the counts over k."""
    ug = files.parsed.get(files.path(EDGES))
    if ug is None:
        ug = load_undirected_graph(files.path(NODES), files.path(EDGES))
    write_community_outputs(config, ug, files)


def _fit_one_community(job):
    cid, vocab, docs, config = job
    return fit_lda(docs, vocab, config.n_topics, config.resolved_alpha(), config.beta,
                   config.iterations, config.seed + cid)


def stage_topics(config: PipelineConfig, files: StageFiles) -> None:
    """Fit a hashtag topic model per community."""
    records = files.records(FILTERED)
    with open(files.path(COMMUNITIES), encoding="utf-8") as fh:
        communities = sorted(json.load(fh), key=lambda entry: entry["community_id"])
    jobs = []
    for entry in communities:
        cid = entry["community_id"]
        try:
            vocab, docs = build_community_corpus(
                records,
                entry["members"],
                per_user=config.per_user_docs,
                community_id=cid,
            )
        except EmptyCorpusError as exc:
            print(f"topics: skipping {exc}", file=sys.stderr)
            continue
        jobs.append((cid, vocab, docs, config))

    if config.threads > 1 and len(jobs) > 1:
        # imported here: at module level it would add to every run's start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            models = list(pool.map(_fit_one_community, jobs))
    else:
        models = [_fit_one_community(job) for job in jobs]

    for (cid, vocab, docs, _), model in zip(jobs, models):
        summary = topic_keywords(model, vocab, config.top_n_keywords)
        payload = {
            "community_id": cid,
            "n_topics": model.n_topics,
            "alpha": model.alpha,
            "beta": model.beta,
            "seed": model.seed,
            "topics": [
                {
                    "topic_id": t,
                    "keywords": [
                        {"token": tok, "prob": prob} for tok, prob in summary.topics[t]
                    ],
                }
                for t in range(model.n_topics)
            ],
            "perplexity": held_out_perplexity(model, docs),
        }
        _write_json(files, "topics_community{cid}.json", payload, cid=cid)
        doc_rows = []
        for i, doc in enumerate(docs):
            theta = doc_topic_distribution(model, i)
            doc_rows.append([doc.doc_id] + [repr(float(p)) for p in theta])
        _write_csv(
            files, "doc_topics_community{cid}.csv",
            ["doc_id"] + [f"topic_{t}" for t in range(model.n_topics)],
            doc_rows,
            cid=cid,
        )


def stage_profiles(config: PipelineConfig, files: StageFiles) -> None:
    """Tabulate the most frequent profile-description terms."""
    records = files.records(FILTERED)
    stoplist = DEFAULT_STOPLIST
    if STOPLIST in files.redirects:
        with open(files.path(STOPLIST), encoding="utf-8") as fh:
            stoplist = frozenset(w.strip().lower() for w in fh if w.strip())
    try:
        table = description_term_proportions(records, stoplist, config.top_n_terms)
    except NoDescriptionsError as exc:
        print(f"profiles: {exc}; writing an empty table", file=sys.stderr)
        rows = []
    else:
        rows = [(rank, term, repr(prop), count) for rank, term, prop, count in table.to_rows()]
    _write_csv(files, "term_frequencies.csv", ["rank", "term", "proportion", "user_count"], rows)


@dataclass(frozen=True)
class Stage:
    """One link of the chain. `fields` are the config fields that shape its
    outputs. `reads` and `writes` map the template of each bundle file it
    uses to the flag of its subcommand that points that file elsewhere (None:
    no flag); a flag given for several files names the directory holding them."""

    name: str
    func: Callable
    fields: tuple[str, ...]
    reads: dict[str, str | None]
    writes: dict[str, str | None]


TABLE = {
    stage.name: stage
    for stage in (
        Stage("ingest", stage_ingest, ("input", "keywords"),
              reads={},
              writes={FILTERED: "--output", "ingest_stats.json": "--stats"}),
        Stage("graph", stage_graph, ("tau", "min_weight"),
              reads={FILTERED: "--input"},
              writes=dict.fromkeys(("network_stats.json", "degree_histogram.csv",
                                    "roles.csv", EDGES, NODES))),
        Stage("communities", stage_communities, ("k", "rule", "k_min", "k_max", "max_cliques"),
              reads={NODES: "--graph", EDGES: "--graph"},
              writes=dict.fromkeys((COMMUNITIES, "sweep_{rule}.csv"))),
        Stage("topics", stage_topics,
              ("k", "rule", "n_topics", "alpha", "beta", "iterations", "seed",
               "top_n_keywords", "per_user_docs"),
              reads={FILTERED: "--records", COMMUNITIES: "--communities"},
              writes=dict.fromkeys(("topics_community{cid}.json",
                                    "doc_topics_community{cid}.csv"))),
        Stage("profiles", stage_profiles, ("top_n_terms",),
              reads={FILTERED: "--records", STOPLIST: "--stoplist"},
              writes={"term_frequencies.csv": None}),
    )
}

STAGES = tuple(TABLE)
# looked up at call time, so a caller may wrap a stage function in place
_STAGE_FUNCS = {name: stage.func for name, stage in TABLE.items()}


def run_stage(
    name: str,
    config: PipelineConfig,
    redirects: dict[str, str],
    parsed: dict[str, list[TweetRecord] | UndirectedGraph] | None = None,
) -> dict[str, str]:
    """Run one stage, with the files in `redirects` (template -> path) outside
    the outdir; returns the name -> path of each file written. `parsed` holds
    the records and the graph already parsed or built in this run (see
    `StageFiles`); a stage run on its own starts with none. Writes no manifest."""
    files = StageFiles(TABLE[name], config, redirects, parsed={} if parsed is None else parsed)
    _STAGE_FUNCS[name](config, files)
    return files.written


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _stage_key(stage: Stage, config: PipelineConfig) -> dict:
    """What a stage's outputs depend on besides the stages before it: its
    config slice and, for a stage that reads the input file, that file's digest."""
    values = config.to_dict()
    key = {"config": {f: values[f] for f in stage.fields}}
    if "input" in stage.fields:
        key["input_sha256"] = _sha256(config.input)
    return key


def _reusable(previous: dict | None, key: dict, outdir: str) -> bool:
    """An earlier run recorded this stage under the same key, and every output
    it recorded still has the digest it was written with."""
    if previous is None or any(previous.get(k) != v for k, v in key.items()):
        return False
    try:
        return all(
            _sha256(os.path.join(outdir, name)) == digest
            for name, digest in previous["outputs"].items()
        )
    except OSError:
        return False


def _previous_manifest(outdir: str) -> tuple[dict[str, dict], list[str]]:
    """The stages (by name) and the files of the echonet manifest already in
    `outdir`; none if the manifest is missing, unreadable or another tool's."""
    try:
        with open(os.path.join(outdir, MANIFEST), encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("tool") != "echonet":
            return {}, []
        files = [name for name in manifest["files"] if isinstance(name, str)]
        return {s["name"]: s for s in manifest["stages"]}, files
    except (OSError, ValueError, KeyError, TypeError):
        return {}, []


def _remove_stale(outdir: str, listed: list[str], written: list[str]) -> None:
    """Delete each file an earlier manifest listed that this run did not write,
    such as the communities file of another `--k`. Only plain file names in
    `outdir` are touched."""
    for name in set(listed) - set(written):
        path = os.path.join(outdir, name)
        if name == os.path.basename(name) and name != MANIFEST and os.path.isfile(path):
            os.remove(path)


def _peak_rss_kb() -> int:
    """This process's peak resident set size so far, in KiB: VmHWM, or
    ru_maxrss where /proc is not available (bytes on macOS, KiB elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


def run_pipeline(config: PipelineConfig) -> dict:
    """Run all stages in order, rewriting the manifest after each; returns it.

    With `config.resume`, a stage is reused rather than run when every stage
    before it was reused, the previous manifest recorded it with the same key
    (see `_stage_key`), and its recorded outputs still have their digests.
    The stages share the records parsed and the graph built along the way
    (see `StageFiles`). Files that the previous manifest listed and this run
    did not write are deleted once this run's manifest has replaced it, also
    when a later stage fails: no run could reuse them, and no manifest would
    list them any more.
    """
    outdir = config.outdir
    os.makedirs(outdir, exist_ok=True)
    previous, listed = _previous_manifest(outdir)
    if not config.resume:
        previous = {}
    manifest = {
        "tool": "echonet",
        "version": __version__,
        "config_hash": config.semantic_hash(),
        "config": config.to_dict(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "stages": [],
        "files": [],
    }
    parsed: dict[str, list[TweetRecord] | UndirectedGraph] = {}
    reuse = config.resume
    try:
        for stage in TABLE.values():
            start = time.monotonic()
            try:
                key = _stage_key(stage, config)
                reuse = reuse and _reusable(previous.get(stage.name), key, outdir)
                if reuse:
                    outputs = previous[stage.name]["outputs"]
                else:
                    written = run_stage(stage.name, config, {}, parsed)
                    outputs = {name: _sha256(path) for name, path in written.items()}
            except Exception as exc:
                raise StageError(stage.name, exc) from exc
            manifest["stages"].append({
                "name": stage.name,
                **key,
                "outputs": outputs,
                "seconds": time.monotonic() - start,
                "peak_rss_kb": _peak_rss_kb(),
                "resumed": reuse,
            })
            manifest["files"] = sorted({name for s in manifest["stages"] for name in s["outputs"]})
            with atomic_open(os.path.join(outdir, MANIFEST)) as fh:
                fh.write(_json_text(manifest))
    except BaseException:
        # the previous manifest, and its file list, is gone; a file that cannot
        # be removed must not hide the error that stopped the run
        if manifest["stages"]:
            with contextlib.suppress(OSError):
                _remove_stale(outdir, listed, manifest["files"])
        raise
    _remove_stale(outdir, listed, manifest["files"])
    return manifest


def render_report(outdir: str) -> str:
    """Human-readable bundle summary; validates the manifest's file list."""

    def load(name):
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            return json.load(fh)

    manifest = load(MANIFEST)
    missing = [f for f in manifest["files"] if not os.path.exists(os.path.join(outdir, f))]
    lines = [
        f"echonet bundle {manifest['version']} (config {manifest['config_hash'][:12]})",
        f"created: {manifest['created_utc']}",
    ]
    if missing:
        lines.append(f"MISSING FILES: {', '.join(missing)}")
    for stage in manifest["stages"]:
        note = " (resumed)" if stage.get("resumed") else ""
        rss = f", peak RSS {stage['peak_rss_kb'] / 1024:.1f} MB" if "peak_rss_kb" in stage else ""
        lines.append(f"  {stage['name']}: {stage['seconds']:.2f}s{rss}{note}")
    if os.path.exists(os.path.join(outdir, "ingest_stats.json")):
        stats = load("ingest_stats.json")
        lines.append(
            f"corpus: {stats['tweet_count']} tweets, "
            f"{stats['unique_user_count']} users, {stats['retweet_count']} retweets"
        )
    if os.path.exists(os.path.join(outdir, "network_stats.json")):
        net = load("network_stats.json")
        lines.append(
            f"network: {net['node_count']} nodes, {net['unique_edge_count']} edges "
            f"(weighted sum {net['weighted_edge_sum']})"
        )
    for name in manifest["files"]:
        if name.startswith("communities_k"):
            lines.append(f"{name}: {len(load(name))} communities")
    lines.append(f"files: {len(manifest['files'])}")
    return "\n".join(lines)
