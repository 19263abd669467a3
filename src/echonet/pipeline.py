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
import fnmatch
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

# CPython's own BLAKE2 (what `hashlib.blake2b` is too); importing `hashlib`
# would also map OpenSSL's libcrypto into the process, about 3.4 MB of
# resident memory per run
from _blake2 import blake2b

from . import __version__
from .communities import community_count_sweep, detect_communities, maximal_clique_list
from .config import PipelineConfig
from .graph import (
    ROLE_LABELS,
    RetweetGraph,
    UndirectedGraph,
    build_retweet_graph,
    classify_roles,
    degree_histogram,
    degree_summary,
    node_degrees,
    role_csv,
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


@contextlib.contextmanager
def _open_utf8(path: str, newline: str | None = None):
    """`path` opened to read as UTF-8 text. A byte that is not UTF-8 raises
    InputFileError, naming the file and the first line that holds one: the
    decoder reads ahead, so the line a reader had reached says nothing."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InputFileError(f"{path}: line {number}: byte {line[exc.start]:#04x} "
                                         "is not UTF-8") from None
        raise InputFileError(f"{path}: not UTF-8") from None


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _read_json(path: str):
    """The JSON value in the file `path`; InputFileError if it is not JSON or
    not UTF-8 (see `_open_utf8`)."""
    with _open_utf8(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise InputFileError(f"{path}: not JSON: {exc}") from exc


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _field(path: str, obj, key: str, kind: type = float, of: str = ""):
    """`obj[key]` if `obj` is an object and the value a `kind`, where a float
    may be any number and a bool is none of them; InputFileError, naming the
    file `path` and the key (and `of`, where the object is), if not."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise InputFileError(f"{path}: '{key}'{of} is missing or not {_KINDS[kind]}")
    return value


def _load_csv(path: str, columns: dict[str, Callable]) -> list[tuple]:
    """The `columns` of the CSV file `path`, one tuple a row, each field
    converted by its column's function. Raises InputFileError, naming the
    file and the line, if the header lacks a column, or a row has another
    number of fields than the header or a field its function refuses, or a
    byte that is not UTF-8 (see `_open_utf8`)."""
    with _open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            at = [header.index(name) for name in columns]
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, not {len(header)}")
                rows.append(tuple(cast(row[i]) for i, cast in zip(at, columns.values())))
            return rows
        except UnicodeDecodeError:
            raise  # for `_open_utf8`, which names the line
        except (ValueError, csv.Error) as exc:
            raise InputFileError(f"{path}: line {reader.line_num}: {exc}") from exc


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
        taken from `parsed`. As `ingest` wrote it, it holds only records; if
        not, InputFileError names it and the count of lines that are not."""
        path = self.path(template)
        if path not in self.parsed:
            stats = ParseStats()
            table = read_records(path, stats)
            if stats.malformed:
                raise InputFileError(f"{path}: {stats.malformed} line(s) are not records")
            self.parsed[path] = table
        return self.parsed[path]


def _write_json(files: StageFiles, template: str, payload, **extra) -> None:
    with files.create(template, **extra) as fh:
        fh.write(_json_text(payload))


def _write_csv(files: StageFiles, template: str, header: list[str], rows, **extra) -> None:
    with files.create(template, newline="", **extra) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_csv_text(files: StageFiles, template: str, header: list[str], text) -> None:
    """`_write_csv` of rows that come as the strings of `text`, as `csv.writer` writes them."""
    with files.create(template, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(text)


def stage_ingest(config: PipelineConfig, files: StageFiles) -> None:
    """Parse, keyword-filter and summarize the input records."""
    parse_stats = ParseStats()
    with files.create(FILTERED) as fh:
        kept = read_records(config.input, parse_stats, config.keywords, fh.write)
    files.parsed[files.path(FILTERED)] = kept  # what parsing the file back yields
    counts = {"input_records": parse_stats.records, "malformed_lines": parse_stats.malformed}
    _write_json(files, "ingest_stats.json", {**corpus_summary(kept), **counts})


def write_graph_outputs(
    g: RetweetGraph, ug: UndirectedGraph, tau: float, files: StageFiles
) -> None:
    degrees = node_degrees(g)
    _write_json(files, "network_stats.json", degree_summary(degrees))
    _write_csv(files, "degree_histogram.csv", ["weighting", "degree", "out_count", "in_count"],
               degree_histogram(degrees))
    _write_csv_text(files, "roles.csv", ["user_id", "in_deg", "out_deg", "score", "label"],
                    role_csv(classify_roles(degrees, tau)))
    _write_csv_text(files, EDGES, ["u", "v", "weight"], ug.edge_csv())
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
    weight is not a positive integer below 2**63, the int64 it is held in, and,
    naming the file and the line, for a byte of either file that is not UTF-8."""
    with _open_utf8(nodes_path) as fh:
        nodes = sorted({line.rstrip("\n") for line in fh if line.strip()})
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    keys, weights, lines = array("q"), array("q"), array("q")
    with _open_utf8(edges_path, newline="") as fh:
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
    each have an integer `community_id` of 0 or more (echonet numbers them
    from 0, and a fit is seeded with `seed + community_id`) and a list of
    string `members`, or, naming the id too, if two entries have one
    `community_id`: each entry's outputs are named by its id, so a later one
    would overwrite them."""
    entries = _read_json(path)
    if not isinstance(entries, list):
        raise InputFileError(f"{path}: not a list of communities")
    ids = set()
    for i, entry in enumerate(entries):
        cid = _field(path, entry, "community_id", int, f" of entry {i}")
        if cid < 0:
            raise InputFileError(f"{path}: community_id {cid} of entry {i} is negative")
        members = _field(path, entry, "members", list, f" of entry {i}")
        if not all(isinstance(member, str) for member in members):
            raise InputFileError(f"{path}: a member of entry {i} is not a string")
        if cid in ids:
            raise InputFileError(f"{path}: community_id {cid} is repeated in entry {i}")
        ids.add(cid)
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

        with ProcessPoolExecutor(max_workers=min(config.threads, len(jobs))) as pool:
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
        with _open_utf8(files.path(STOPLIST)) as fh:
            stoplist = frozenset(w.strip().lower() for w in fh if w.strip())
    try:
        table = description_term_proportions(records, stoplist, config.top_n_terms)
    except NoDescriptionsError as exc:
        print(f"profiles: {exc}; writing an empty table", file=sys.stderr)
        rows = []
    else:
        rows = [(rank, term, repr(prop), round(prop * table.user_base))
                for rank, (term, prop) in enumerate(table.terms, 1)]
    _write_csv(files, "term_frequencies.csv", ["rank", "term", "proportion", "user_count"], rows)


class Stage(NamedTuple):
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


def new_digest(data: bytes = b"") -> blake2b:
    """A BLAKE2b-256 hash of `data` (64 hex characters), the digest echonet
    records of its config, its input and every file it writes."""
    return blake2b(data, digest_size=32)


def _file_digest(path: str) -> str:
    """The file's BLAKE2b-256 (`new_digest`), read through one reused buffer."""
    digest = new_digest()
    buf = bytearray(HASH_BLOCK)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _config_slice(config: PipelineConfig, fields) -> dict:
    """The values of the config `fields`, as `config.to_dict()` gives them."""
    values = config.to_dict()
    return {f: values[f] for f in fields}


def config_hash(config: PipelineConfig) -> str:
    """The digest of the config fields that the stage table lists, which shape the bundle."""
    hashed = _config_slice(config, {f for stage in TABLE.values() for f in stage.fields})
    return new_digest(json.dumps(hashed, sort_keys=True).encode("utf-8")).hexdigest()


def _stage_key(stage: Stage, config: PipelineConfig) -> dict:
    """What a stage's outputs depend on besides the stages before it: its
    config slice and, for a stage that reads the input file, that file's digest."""
    key = {"config": _config_slice(config, stage.fields)}
    if "input" in stage.fields:
        key["input_blake2b"] = _file_digest(config.input)
    return key


def _plain_name(name) -> bool:
    """`name` is a string that names a file in the directory it is joined to,
    and nothing outside it: not empty, "." or "..", and without a path
    separator or NUL."""
    return isinstance(name, str) and name not in ("", ".", "..") and not any(
        c in name for c in ("/", "\0", os.sep, os.altsep or "/"))


def _reusable(previous: dict | None, key: dict, outdir: str) -> bool:
    """An earlier run recorded this stage under the same key, and every output
    it recorded, each under a plain file name, still has the digest it was
    written with."""
    outputs = previous.get("outputs") if previous else None
    if (not isinstance(outputs, dict) or not all(map(_plain_name, outputs))
            or any(previous.get(k) != v for k, v in key.items())):
        return False
    try:
        return all(
            _file_digest(os.path.join(outdir, name)) == digest
            for name, digest in outputs.items()
        )
    except (OSError, ValueError):
        return False


def load_manifest(outdir: str) -> dict:
    """The manifest in `outdir`: an object with `tool` "echonet", the strings
    `version`, `config_hash` and `created_utc`, file names in `files`, and in
    `stages` one object per stage with a string `name`, a number `seconds`
    and, if present, a number `peak_rss_kb`. Raises InputFileError, naming
    the file and the field, if one is missing or of another type, or if the
    file is not an echonet manifest at all, or if a file name is not plain
    (see `_plain_name`)."""
    path = os.path.join(outdir, MANIFEST)
    manifest = _read_json(path)
    if not isinstance(manifest, dict) or manifest.get("tool") != "echonet" or not all(
            isinstance(manifest.get(key), list) for key in ("files", "stages")):
        raise InputFileError(f"{path}: not an echonet manifest")
    for key in ("version", "config_hash", "created_utc"):
        _field(path, manifest, key, str)
    for name in manifest["files"]:
        if not _plain_name(name):
            raise InputFileError(f"{path}: entry {name!r} of 'files' is not a plain file name")
    for i, stage in enumerate(manifest["stages"]):
        _field(path, stage, "name", str, f" of stage {i}")
        _field(path, stage, "seconds", float, f" of stage {i}")
        if "peak_rss_kb" in stage:
            _field(path, stage, "peak_rss_kb", float, f" of stage {i}")
    return manifest


def _previous_manifest(outdir: str) -> tuple[dict[str, dict], list[str]]:
    """The stages (by name) and the files of the echonet manifest already in
    `outdir`; none if the manifest is missing or `load_manifest` refuses it."""
    try:
        manifest = load_manifest(outdir)
    except (OSError, InputFileError):
        return {}, []
    return {s["name"]: s for s in manifest["stages"]}, manifest["files"]


def _remove_stale(outdir: str, listed: list[str], written: list[str]) -> None:
    """Delete each file an earlier manifest listed that this run did not write,
    such as the communities file of another `--k`. `listed` comes from
    `load_manifest`, so it holds only plain file names in `outdir`."""
    for name in set(listed) - set(written):
        path = os.path.join(outdir, name)
        if name != MANIFEST and os.path.isfile(path):
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
        "config_hash": config_hash(config),
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


def _corpus_lines(path: str) -> list[str]:
    stats = _read_json(path)
    tweets, users, retweets = (_field(path, stats, key, int) for key in
                               ("tweet_count", "unique_user_count", "retweet_count"))
    return [f"corpus: {tweets} tweets, {users} users, {retweets} retweets"]


def _network_lines(path: str) -> list[str]:
    net = _read_json(path)
    nodes, edges, weight = (_field(path, net, key, int) for key in
                            ("node_count", "unique_edge_count", "weighted_edge_sum"))
    lines = [f"network: {nodes} nodes, {edges} edges (weighted sum {weight})"]
    for weighting in ("unweighted", "weighted"):
        for direction in ("out", "in"):
            s = _field(path, _field(path, net, weighting, dict), direction, dict)
            low, high, mean, var, skew = (_field(path, s, key) for key in
                                          ("min", "max", "mean", "variance", "skew"))
            lines.append(f"  {weighting:10s} {direction:3s}  min {low:.0f}  max {high:.0f}  "
                         f"mean {mean:.2f}  var {var:.1f}  skew {skew:.2f}")
    return lines


def _role_lines(path: str) -> list[str]:
    labels = [label for label, in _load_csv(path, {"label": str})]
    if not set(labels) <= set(ROLE_LABELS):
        raise InputFileError(f"{path}: a label is not one of {', '.join(ROLE_LABELS)}")
    shares = (f"{labels.count(label)} {label} ({labels.count(label) / max(len(labels), 1):.1%})"
              for label in ROLE_LABELS)
    return [f"roles of {len(labels)} users: {', '.join(shares)}"]


def _sweep_lines(path: str) -> list[str]:
    rule = os.path.basename(path)[len("sweep_"):-len(".csv")]
    rows = _load_csv(path, {"k": int, "community_count": int, "clique_count": int})
    return [f"community-count sweep ({rule} rule):"] + [
        f"  k={k:>2}  communities={count:>4}  cliques={cliques}" for k, count, cliques in rows]


def _community_lines(path: str) -> list[str]:
    communities = load_communities(path)
    return [f"{os.path.basename(path)}: {len(communities)} communities"] + [
        f"  community {c['community_id']}: {len(c['members'])} members" for c in communities]


def _topic_lines(path: str) -> list[str]:
    fit = _read_json(path)
    lines = [f"community {_field(path, fit, 'community_id', int)} "
             f"(training-set perplexity {_field(path, fit, 'perplexity'):.2f}):"]
    for topic in _field(path, fit, "topics", list):
        tokens = (_field(path, kw, "token", str) for kw in _field(path, topic, "keywords", list))
        lines.append(f"  topic {_field(path, topic, 'topic_id', int)}: {', '.join(tokens)}")
    return lines


def _term_lines(path: str) -> list[str]:
    rows = _load_csv(path, {"term": str, "proportion": float, "user_count": int})
    return ["most frequent profile terms:"] + [
        f"  {term:<15} {share:.2f}  ({users} users)" for term, share, users in rows]


# the bundle files the report prints, in the order of the paper's two studies
# (network, then topics and profile terms), each with the function that renders one
REPORT = (
    ("ingest_stats.json", _corpus_lines), ("network_stats.json", _network_lines),
    ("roles.csv", _role_lines), ("sweep_*.csv", _sweep_lines),
    ("communities_k*.json", _community_lines), ("topics_community*.json", _topic_lines),
    ("term_frequencies.csv", _term_lines),
)


def render_report(outdir: str) -> str:
    """Human-readable bundle summary: the stage times, then a section for
    each file in `REPORT` that the manifest lists and the outdir holds. A
    file on disk that the manifest does not list is not read. Every field
    printed is checked first: a file that lacks one raises InputFileError,
    naming the file."""
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
    # shorter names first, so that topics_community2 comes before topics_community10
    present = sorted(set(manifest["files"]) - set(missing), key=lambda f: (len(f), f))
    for pattern, render in REPORT:
        for name in fnmatch.filter(present, pattern):
            lines += render(os.path.join(outdir, name))
    lines.append(f"files: {len(manifest['files'])}")
    return "\n".join(lines)
