"""The stage table and the runners it drives.

echonet is a fixed chain of five stages. `TABLE` lists each one once: its
function, the config fields that shape its outputs, and the bundle files it
reads and writes. `run_pipeline`, the subcommands, `--resume` and the manifest
all derive from it. Files are the interface between stages, so each one can be
re-run and inspected on its own. Within one `run_pipeline` call, the records
`ingest` kept also pass to the later stages in memory, as the `RecordTable`
that parsing `filtered.jsonl` back would give (`StageFiles.records`), so each
record file is parsed at most once per run, and the symmetrized graph passes
from `graph` to `communities` the same way, so `communities` reads
`nodes.txt` and `undirected_edges.csv` only when `graph` did not run before it.
`ingest` is one loop over the input lines (`read_records`): each record is
parsed, filtered, written to `filtered.jsonl` and filled into the table, and
no record object is built.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
import time
from array import array
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .communities import community_count_sweep, detect_communities, maximal_clique_list
from .config import PipelineConfig, new_digest
from .graph import (
    RetweetGraph,
    UndirectedGraph,
    build_retweet_graph,
    classify_roles,
    degree_histogram,
    degree_summary,
    node_degrees,
    symmetrize,
)
from .profiles import DEFAULT_STOPLIST, NoDescriptionsError, description_term_proportions
from .records import ParseStats, RecordTable, corpus_summary, read_records

# `read_records` applies the keyword rule and writes each kept line itself;
# perfbench/tracer.py rebinds these two names in this module, so they stay
from .records import keyword_filter, record_to_json  # noqa: F401
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


class InputFileError(ValueError):
    """A bundle file given as input cannot be read as what it should hold."""


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


def _read_json(path: str):
    """The JSON value in the file `path`; InputFileError if it is not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputFileError(f"{path}: not JSON: {exc}") from exc


@dataclass
class StageFiles:
    """Where one stage reads and writes. A file is named by its template in
    the stage table, filled in from the config (plus `extra` fields such as a
    community id), and lives at `<outdir>/<name>` unless `redirects` maps its
    template to another path. `written` maps each name written to its path.
    `parsed` maps the path of each file parsed or built so far to what it
    holds: a record file to its `RecordTable`, the edge file to the
    symmetrized graph, which `communities` takes out. The stages of one run
    share it."""

    stage: Stage
    config: PipelineConfig
    redirects: dict[str, str] = field(default_factory=dict)
    written: dict[str, str] = field(default_factory=dict)
    parsed: dict[str, RecordTable | UndirectedGraph] = field(default_factory=dict)

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

    def records(self, template: str) -> RecordTable:
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
    with files.create(FILTERED) as fh:
        kept = read_records(config.input, parse_stats, config.keywords, fh.write)
    files.parsed[files.path(FILTERED)] = kept  # what parsing the file back yields
    stats = asdict(corpus_summary(kept))
    stats["malformed_lines"] = parse_stats.malformed
    stats["input_records"] = parse_stats.records
    _write_json(files, "ingest_stats.json", stats)


def write_graph_outputs(
    g: RetweetGraph, ug: UndirectedGraph, tau: float, files: StageFiles
) -> None:
    degrees = node_degrees(g)
    _write_json(files, "network_stats.json", degree_summary(degrees).to_dict())
    _write_csv(files, "degree_histogram.csv", ["weighting", "degree", "out_count", "in_count"],
               degree_histogram(degrees))
    _write_csv(files, "roles.csv", ["user_id", "in_deg", "out_deg", "score", "label"],
               classify_roles(degrees, tau))
    _write_csv(files, EDGES, ["u", "v", "weight"], ug.named_edges())
    with files.create(NODES) as fh:
        fh.writelines(node + "\n" for node in ug.nodes)


def stage_graph(config: PipelineConfig, files: StageFiles) -> None:
    """Build the retweet digraph, its degree reports and roles, and its symmetrized form."""
    g = build_retweet_graph(files.records(FILTERED))
    if not g.nodes:
        raise ValueError("no records survived ingest; graph would be empty")
    ug = symmetrize(g, config.min_weight)
    write_graph_outputs(g, ug, config.tau, files)
    files.parsed[files.path(EDGES)] = ug  # what loading the graph files back yields


def load_undirected_graph(nodes_path: str, edges_path: str) -> UndirectedGraph:
    """The graph that a `nodes.txt` and an `undirected_edges.csv` hold. The
    edge rows may come in any order. Raises InputFileError, naming the file,
    the line and the node, for a row whose endpoint is not in `nodes_path`,
    whose u does not sort before its v, that repeats an earlier pair, or whose
    weight is not a positive integer below 2**63, the int64 it is held in."""
    with open(nodes_path, encoding="utf-8") as fh:
        nodes = sorted({line.rstrip("\n") for line in fh if line.strip()})
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    keys, weights, lines = array("q"), array("q"), array("q")
    with open(edges_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)

        def bad(problem: str) -> InputFileError:
            return InputFileError(f"{edges_path}: line {reader.line_num}: {problem}")

        if next(reader, None) != ["u", "v", "weight"]:
            raise bad("the header is not u,v,weight")
        for row in reader:
            if len(row) != 3:
                raise bad(f"{len(row)} fields, not 3")
            u, v, weight = row
            for node in (u, v):
                if node not in index:
                    raise bad(f"node {node!r} is not in {nodes_path}")
            if u >= v:
                raise bad(f"node {u!r} does not sort before node {v!r}")
            digits = weight.lstrip("0")
            if not (weight.isascii() and weight.isdigit() and digits):
                raise bad(f"the weight {weight!r} of {u!r}, {v!r} is not a positive integer")
            # checked by length first: int() refuses a string of over 4,300 digits
            if len(digits) > 19 or int(digits) >= 2**63:
                raise bad(f"the weight {weight!r} of {u!r}, {v!r} is 2**63 or more")
            keys.append(index[u] * n + index[v])
            weights.append(int(digits))
            lines.append(reader.line_num)
    keys = np.frombuffer(keys, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if len(repeats):
        row = int(repeats.min())
        u, v = (nodes[i] for i in divmod(int(keys[row]), n))
        raise InputFileError(
            f"{edges_path}: line {lines[row]}: the pair {u!r}, {v!r} is listed twice")
    return UndirectedGraph(nodes, keys[order], np.frombuffer(weights, dtype=np.int64)[order])


def write_community_outputs(config: PipelineConfig, ug: UndirectedGraph, files: StageFiles) -> None:
    maximal = maximal_clique_list(ug, min(config.k, config.k_min))
    cover = detect_communities(maximal, config.k, config.rule, config.max_cliques)
    sweep = community_count_sweep(
        maximal, config.k_min, config.k_max, config.rule, config.max_cliques
    )
    payload = [
        {"community_id": i, "size": len(c), "members": sorted(c)}
        for i, c in enumerate(cover.communities)
    ]
    _write_json(files, COMMUNITIES, payload)
    ks = range(config.k_min, config.k_max + 1)
    _write_csv(files, "sweep_{rule}.csv", ["k", "community_count", "clique_count"],
               [(k, sweep.community_counts[k], sweep.clique_counts[k]) for k in ks])


def stage_communities(config: PipelineConfig, files: StageFiles) -> None:
    """Percolate k-cliques into communities and sweep the counts over k."""
    ug = files.parsed.pop(files.path(EDGES), None)  # no later stage reads it
    if ug is None:
        ug = load_undirected_graph(files.path(NODES), files.path(EDGES))
    write_community_outputs(config, ug, files)


def load_communities(path: str) -> list[dict]:
    """The entries of a communities file, by community id. Raises
    InputFileError, naming the file, if it is not a JSON list of objects that
    each have an integer `community_id` and a list of `members`."""
    entries = _read_json(path)
    if not isinstance(entries, list):
        raise InputFileError(f"{path}: not a list of communities")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and type(entry.get("community_id")) is int
                and isinstance(entry.get("members"), list)):
            raise InputFileError(f"{path}: entry {i} is not an object with an integer "
                                 f"'community_id' and a list of 'members'")
    return sorted(entries, key=lambda entry: entry["community_id"])


def _fit_one_community(job):
    cid, vocab, docs, config = job
    return fit_lda(docs, vocab, config.n_topics, config.resolved_alpha(), config.beta,
                   config.iterations, config.seed + cid)


def stage_topics(config: PipelineConfig, files: StageFiles) -> None:
    """Fit a hashtag topic model per community."""
    records = files.records(FILTERED)
    jobs = []
    for entry in load_communities(files.path(COMMUNITIES)):
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
        keywords = topic_keywords(model, vocab, config.top_n_keywords)
        payload = {
            "community_id": cid,
            "n_topics": model.n_topics,
            "alpha": model.alpha,
            "beta": model.beta,
            "seed": model.seed,
            "topics": [
                {"topic_id": t, "keywords": [{"token": tok, "prob": prob} for tok, prob in top]}
                for t, top in enumerate(keywords)
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
    parsed: dict[str, RecordTable | UndirectedGraph] | None = None,
) -> dict[str, str]:
    """Run one stage, with the files in `redirects` (template -> path) outside
    the outdir; returns the name -> path of each file written. `parsed` holds
    the records and the graph already parsed or built in this run (see
    `StageFiles`); a stage run on its own starts with none. Writes no manifest."""
    files = StageFiles(TABLE[name], config, redirects, parsed={} if parsed is None else parsed)
    _STAGE_FUNCS[name](config, files)
    return files.written


HASH_BLOCK = 1 << 16  # bytes read at a time by _file_digest


def _file_digest(path: str) -> str:
    """The file's BLAKE2b-256 (`new_digest`), read through one reused buffer."""
    digest = new_digest()
    buf = bytearray(HASH_BLOCK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _stage_key(stage: Stage, config: PipelineConfig) -> dict:
    """What a stage's outputs depend on besides the stages before it: its
    config slice and, for a stage that reads the input file, that file's digest."""
    values = config.to_dict()
    key = {"config": {f: values[f] for f in stage.fields}}
    if "input" in stage.fields:
        key["input_blake2b"] = _file_digest(config.input)
    return key


def _reusable(previous: dict | None, key: dict, outdir: str) -> bool:
    """An earlier run recorded this stage under the same key, and every output
    it recorded still has the digest it was written with."""
    outputs = previous.get("outputs") if previous else None
    if not isinstance(outputs, dict) or any(previous.get(k) != v for k, v in key.items()):
        return False
    try:
        return all(
            _file_digest(os.path.join(outdir, name)) == digest
            for name, digest in outputs.items()
        )
    except (OSError, ValueError):
        return False


def _echonet_manifest(path: str) -> dict:
    """The manifest at `path`. Raises InputFileError, naming the file, if it
    is not JSON or not an echonet manifest: an object with `tool` "echonet"
    and lists of `files` and `stages`."""
    manifest = _read_json(path)
    if not isinstance(manifest, dict) or manifest.get("tool") != "echonet" or not all(
            isinstance(manifest.get(key), list) for key in ("files", "stages")):
        raise InputFileError(f"{path}: not an echonet manifest")
    return manifest


def load_manifest(outdir: str) -> dict:
    """The manifest in `outdir`, with every field `render_report` prints: the
    strings `version`, `config_hash` and `created_utc`, file names in
    `files`, and in `stages` one object per stage with a string `name`, a
    number `seconds` and, if present, a number `peak_rss_kb`. Raises
    InputFileError, naming the file and the field, if one is missing or of
    another type, or if the file is not an echonet manifest at all."""
    path = os.path.join(outdir, MANIFEST)
    manifest = _echonet_manifest(path)

    def is_number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def bad(problem: str) -> InputFileError:
        return InputFileError(f"{path}: {problem}")

    for key in ("version", "config_hash", "created_utc"):
        if not isinstance(manifest.get(key), str):
            raise bad(f"'{key}' is missing or not a string")
    if not all(isinstance(name, str) for name in manifest["files"]):
        raise bad("an entry of 'files' is not a file name")
    for i, stage in enumerate(manifest["stages"]):
        if not isinstance(stage, dict):
            raise bad(f"stage {i} is not an object")
        if not isinstance(stage.get("name"), str):
            raise bad(f"'name' of stage {i} is missing or not a string")
        if not is_number(stage.get("seconds")):
            raise bad(f"'seconds' of stage {i} is missing or not a number")
        if "peak_rss_kb" in stage and not is_number(stage["peak_rss_kb"]):
            raise bad(f"'peak_rss_kb' of stage {i} is not a number")
    return manifest


def _previous_manifest(outdir: str) -> tuple[dict[str, dict], list[str]]:
    """The stages (by name) and the files of the echonet manifest already in
    `outdir`; none if the manifest is missing, unreadable or another tool's."""
    try:
        manifest = _echonet_manifest(os.path.join(outdir, MANIFEST))
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
    parsed: dict[str, RecordTable | UndirectedGraph] = {}
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
                    outputs = {name: _file_digest(path) for name, path in written.items()}
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


def _load_stats(path: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in the stats file `path`, with an integer in each of
    `fields`. Raises InputFileError, naming the file and the field, if it is
    not an object or a field is missing or not an integer."""
    stats = _read_json(path)
    if not isinstance(stats, dict):
        raise InputFileError(f"{path}: not a JSON object")
    for key in fields:
        if type(stats.get(key)) is not int:
            raise InputFileError(f"{path}: '{key}' is missing or not an integer")
    return stats


def render_report(outdir: str) -> str:
    """Human-readable bundle summary; validates the manifest's file list and
    every field it prints from the stats and communities files."""
    manifest = load_manifest(outdir)
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
    path = os.path.join(outdir, "ingest_stats.json")
    if os.path.exists(path):
        stats = _load_stats(path, ("tweet_count", "unique_user_count", "retweet_count"))
        lines.append(
            f"corpus: {stats['tweet_count']} tweets, "
            f"{stats['unique_user_count']} users, {stats['retweet_count']} retweets"
        )
    path = os.path.join(outdir, "network_stats.json")
    if os.path.exists(path):
        net = _load_stats(path, ("node_count", "unique_edge_count", "weighted_edge_sum"))
        lines.append(
            f"network: {net['node_count']} nodes, {net['unique_edge_count']} edges "
            f"(weighted sum {net['weighted_edge_sum']})"
        )
    for name in manifest["files"]:
        if name.startswith("communities_k") and name not in missing:
            communities = load_communities(os.path.join(outdir, name))
            lines.append(f"{name}: {len(communities)} communities")
    lines.append(f"files: {len(manifest['files'])}")
    return "\n".join(lines)
