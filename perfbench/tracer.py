"""Span tracer for one in-process `echonet` run, installed from outside.

`Tracer.install()` rebinds names in the echonet modules where they are looked
up (for example `echonet.pipeline.read_records` and
`echonet.communities.degeneracy_order`), so no source file changes. Every
wrapped call records a span with name, start, end, parent span and run id;
generators are timed across each `next()` call; per-record functions are
aggregated into one counter per enclosing stage instead of one span per call.
Spans stay in memory until `dump()` writes them out.

`layer_metrics()` turns a dumped trace into the per-layer metrics. A span's
self time is its busy time minus the time its child spans and counters cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter

now = time.perf_counter

# (module, attribute, kind); kind is "call", "gen" or "count"
PATCHES = (
    ("pipeline", "read_records", "call"),
    ("pipeline", "keyword_filter", "count"),
    ("pipeline", "record_to_json", "count"),
    ("pipeline", "corpus_summary", "call"),
    ("pipeline", "build_retweet_graph", "call"),
    ("pipeline", "symmetrize", "call"),
    ("pipeline", "degree_summary", "call"),
    ("pipeline", "degree_histogram", "call"),
    ("pipeline", "classify_roles", "call"),
    ("pipeline", "load_undirected_graph", "call"),
    ("pipeline", "write_graph_outputs", "call"),
    ("pipeline", "write_community_outputs", "call"),
    ("pipeline", "detect_communities", "call"),
    ("pipeline", "community_count_sweep", "call"),
    ("pipeline", "build_community_corpus", "call"),
    ("pipeline", "fit_lda", "call"),
    ("pipeline", "held_out_perplexity", "call"),
    ("pipeline", "topic_keywords", "call"),
    ("pipeline", "doc_topic_distribution", "count"),
    ("pipeline", "description_term_proportions", "call"),
    ("communities", "degeneracy_order", "call"),
    ("communities", "maximal_cliques", "gen"),
    ("communities", "enumerate_k_cliques", "call"),
    ("communities", "percolate", "call"),
)


class _Span:
    __slots__ = ("id", "name", "parent", "start", "end", "busy", "child", "seg", "error")

    def __init__(self, sid: int, name: str, parent: "_Span | None"):
        self.id, self.name, self.parent = sid, name, parent
        self.start = self.end = self.seg = None
        self.busy = self.child = 0.0
        self.error = None


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[_Span] = []
        self.stack: list[_Span] = []
        self.counters: dict[tuple[str, str], list] = {}
        self.facts: dict[str, list] = {}
        self.clique_sizes: dict[int, Counter] = {}
        self._stage = "-"
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------
    def _new(self, name: str) -> _Span:
        span = _Span(len(self.spans), name, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        return span

    def _resume(self, span: _Span) -> None:
        span.seg = now()
        if span.start is None:
            span.start = span.seg
        self.stack.append(span)

    def _suspend(self, span: _Span) -> None:
        t = now()
        self.stack.pop()
        d = t - span.seg
        span.busy += d
        span.end = t
        if span.parent is not None:
            span.parent.child += d

    def fact(self, key: str, value) -> None:
        self.facts.setdefault(key, []).append(value)

    def _count_clique(self, span: _Span, clique) -> None:
        self.clique_sizes.setdefault(span.id, Counter())[len(clique)] += 1

    # -- wrappers ---------------------------------------------------------
    def wrap_call(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._new(name)
            self._resume(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._suspend(span)
            if after is not None:
                after(self, result, args)
            return result

        return wrapper

    def wrap_gen(self, name: str, fn, on_item=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._new(name)
            gen = fn(*args, **kwargs)
            while True:
                self._resume(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._suspend(span)
                if on_item is not None:
                    on_item(span, item)
                yield item

        return wrapper

    def wrap_count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            result = fn(*args, **kwargs)
            d = now() - t0
            entry = self.counters.get((self._stage, name))
            if entry is None:
                entry = self.counters[(self._stage, name)] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += d
            entry[2] += result is True
            if self.stack:
                self.stack[-1].child += d
            return result

        return wrapper

    def wrap_stage(self, stage: str, fn):
        inner = self.wrap_call(f"pipeline.stage_{stage}", fn)

        @functools.wraps(fn)
        def wrapper(config, outdir):
            self._stage = stage
            try:
                return inner(config, outdir)
            finally:
                self._stage = "-"

        return wrapper

    # -- installation -----------------------------------------------------
    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from echonet import communities, graph, pipeline

        modules = {"pipeline": pipeline, "communities": communities}
        for mod_name, attr, kind in PATCHES:
            owner = modules[mod_name]
            fn = getattr(owner, attr)
            # span names carry the layer that defines the function
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
            if kind == "count":
                wrapped = self.wrap_count(name, fn)
            elif kind == "gen":
                wrapped = self.wrap_gen(name, fn, self._count_clique)
            else:
                wrapped = self.wrap_call(name, fn, _AFTER.get(attr))
            self._rebind(owner, attr, wrapped)
        self._rebind(graph.UndirectedGraph, "adjacency",
                     self.wrap_call("graph.adjacency", graph.UndirectedGraph.adjacency))
        for stage in pipeline.STAGES:
            stages = pipeline._STAGE_FUNCS
            self._undo.append((stages, stage, stages[stage]))
            stages[stage] = self.wrap_stage(stage, stages[stage])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": s.id, "name": s.name, "parent": None if s.parent is None else s.parent.id,
                 "run": self.run_id, "start": s.start, "end": s.end, "busy": s.busy,
                 "child": s.child, "error": s.error}
                for s in self.spans
            ],
            "counters": [
                {"stage": stage, "name": name, "calls": c[0], "seconds": c[1], "true": c[2]}
                for (stage, name), c in sorted(self.counters.items())
            ],
            "facts": self.facts,
            "clique_sizes": {str(sid): {str(size): n for size, n in sizes.items()}
                             for sid, sizes in self.clique_sizes.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)


def _after_read(tracer, records, args):
    tracer.fact("read_records", len(records))


def _after_build(tracer, g, args):
    tracer.fact("graph", [len(g.nodes), len(g.edges)])


def _after_detect(tracer, cover, args):
    tracer.fact("detect", [cover.k, len(cover.communities), cover.source_clique_count])


def _after_sweep(tracer, sweep, args):
    tracer.fact("sweep", {str(k): n for k, n in sweep.clique_counts.items()})


def _after_corpus(tracer, result, args):
    vocab, docs = result
    tracer.fact("corpus", [len(docs), sum(len(d.tokens) for d in docs)])


def _after_fit(tracer, model, args):
    tracer.fact("fit", [int(model.assignments.size), args[5]])


def _after_table(tracer, table, args):
    tracer.fact("profiles", table.user_base)


_AFTER = {
    "read_records": _after_read,
    "build_retweet_graph": _after_build,
    "detect_communities": _after_detect,
    "community_count_sweep": _after_sweep,
    "build_community_corpus": _after_corpus,
    "fit_lda": _after_fit,
    "description_term_proportions": _after_table,
}


def layer_metrics(trace: dict, input_lines: int, malformed: int, bundle_bytes: int) -> dict:
    """Per-layer metrics (name -> value) derived from one dumped trace."""
    busy, own, calls, errors = Counter(), Counter(), Counter(), Counter()
    by_id = {s["id"]: s for s in trace["spans"]}
    for s in trace["spans"]:
        busy[s["name"]] += s["busy"]
        own[s["name"]] += s["busy"] - s["child"]
        calls[s["name"]] += 1
        errors[s["name"]] += s["error"] is not None
    c_seconds, c_calls, c_true = Counter(), Counter(), Counter()
    for c in trace["counters"]:
        c_seconds[c["name"]] += c["seconds"]
        c_calls[c["name"]] += c["calls"]
        c_true[c["name"]] += c["true"]
    facts = trace["facts"]

    # k-cliques generated by expanding maximal cliques, per pass
    detect_k = [k for k, _, _ in facts.get("detect", [])]
    sweep_ks = [int(k) for sweep in facts.get("sweep", []) for k in sweep]
    generated = 0
    pass_sizes = []
    for sid, sizes in sorted(trace["clique_sizes"].items(), key=lambda kv: int(kv[0])):
        sizes = {int(s): n for s, n in sizes.items()}
        pass_sizes.append(sizes)
        parent = by_id[int(sid)]["parent"]
        caller = by_id[parent]["name"] if parent is not None else ""
        ks = detect_k if caller == "communities.enumerate_k_cliques" else sweep_ks
        generated += sum(n * math.comb(s, k) for k in ks for s, n in sizes.items() if s >= k)
    unique = (sum(u for _, _, u in facts.get("detect", []))
              + sum(n for sweep in facts.get("sweep", []) for n in sweep.values()))

    parses = sum(facts.get("read_records", [])) + malformed
    corpora = facts.get("corpus", [])
    token_sweeps = sum(tokens * iters for tokens, iters in facts.get("fit", []))
    nodes, edges = facts["graph"][0] if facts.get("graph") else (0, 0)
    stages = ("ingest", "graph", "communities", "topics", "profiles")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "records.read_s": busy["records.read_records"],
        "records.read_calls": calls["records.read_records"],
        "records.parses_per_input_record": ratio(parses, input_lines),
        "records.parse_us_per_record": ratio(busy["records.read_records"], parses) * 1e6,
        "records.malformed": malformed,
        "records.filter_s": c_seconds["records.keyword_filter"],
        "records.kept_ratio": ratio(c_true["records.keyword_filter"],
                                    c_calls["records.keyword_filter"]),
        "records.serialize_s": c_seconds["records.record_to_json"],
        "graph.build_s": busy["graph.build_retweet_graph"],
        "graph.nodes": nodes,
        "graph.edges": edges,
        "graph.degree_summary_s": busy["graph.degree_summary"],
        "graph.degree_histogram_s": busy["graph.degree_histogram"],
        "graph.roles_s": busy["graph.classify_roles"],
        "graph.symmetrize_s": busy["graph.symmetrize"],
        "graph.adjacency_s": busy["graph.adjacency"],
        "graph.adjacency_calls": calls["graph.adjacency"],
        "communities.degeneracy_s": busy["communities.degeneracy_order"],
        "communities.degeneracy_calls": calls["communities.degeneracy_order"],
        "communities.maximal_cliques_s": own["communities.maximal_cliques"],
        "communities.maximal_clique_passes": calls["communities.maximal_cliques"],
        "communities.maximal_cliques": sum(pass_sizes[0].values()) if pass_sizes else 0,
        "communities.max_clique_size": max((max(p) for p in pass_sizes if p), default=0),
        "communities.kclique_expand_s": (own["communities.enumerate_k_cliques"]
                                         + own["communities.community_count_sweep"]),
        "communities.kcliques": sum(n for sweep in facts.get("sweep", []) for n in sweep.values()),
        "communities.kclique_dedup_ratio": ratio(unique, generated),
        "communities.percolate_s": busy["communities.percolate"],
        "communities.percolate_calls": calls["communities.percolate"],
        "communities.communities_at_k": sum(n for _, n, _ in facts.get("detect", [])),
        "topics.corpus_s": busy["topics.build_community_corpus"],
        "topics.documents": sum(d for d, _ in corpora),
        "topics.tokens": sum(t for _, t in corpora),
        "topics.skipped_communities": errors["topics.build_community_corpus"],
        "topics.fit_s": busy["topics.fit_lda"],
        "topics.gibbs_us_per_token": ratio(busy["topics.fit_lda"], token_sweeps) * 1e6,
        "topics.perplexity_s": busy["topics.held_out_perplexity"],
        "topics.keywords_s": busy["topics.topic_keywords"],
        "topics.doc_topics_s": c_seconds["topics.doc_topic_distribution"],
        "profiles.table_s": busy["profiles.description_term_proportions"],
        "profiles.users": sum(facts.get("profiles", [])),
    }
    for stage in stages:
        m[f"pipeline.{stage}_s"] = busy[f"pipeline.stage_{stage}"]
    m["pipeline.write_s"] = sum(own[f"pipeline.stage_{stage}"] for stage in stages) + sum(
        own[f"pipeline.{name}"] for name in ("write_graph_outputs", "write_community_outputs"))
    m["pipeline.load_graph_s"] = busy["pipeline.load_undirected_graph"]
    m["pipeline.bundle_bytes"] = bundle_bytes
    return m
