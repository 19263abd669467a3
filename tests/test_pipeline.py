"""Work done by one `run`: records parsed once, the graph handed on in memory,
maximal cliques enumerated once, and the bundle left holding only the files of
the latest run, also after the run was killed and resumed."""

import csv
import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echonet import communities, pipeline
from echonet.cli import main
from echonet.config import PipelineConfig
from echonet.graph import UndirectedGraph
from echonet.records import CSV_COLUMNS, read_records, record_to_json
from oracles import brute_force_detect

ROOT = Path(__file__).parent.parent
FIXTURE = str(ROOT / "fixtures" / "sample_tweets.jsonl")
RUN_ARGS = ["--iters", "50", "--n-topics", "2", "--k", "4"]


def data_files(outdir):
    return {name: (outdir / name).read_bytes()
            for name in os.listdir(outdir) if name != "manifest.json"}


@pytest.fixture
def calls(monkeypatch):
    """Count calls of `pipeline.read_records` (with their paths), of
    `pipeline.load_undirected_graph` and of `communities.maximal_cliques`."""
    seen = {"read_records": [], "load_undirected_graph": 0, "maximal_cliques": 0}
    read, load = pipeline.read_records, pipeline.load_undirected_graph
    enumerate_maximal = communities.maximal_cliques

    def counting_read(path, *args):
        seen["read_records"].append(os.path.basename(path))
        return read(path, *args)

    def counting_load(*args):
        seen["load_undirected_graph"] += 1
        return load(*args)

    def counting_maximal(adj):
        seen["maximal_cliques"] += 1
        return enumerate_maximal(adj)

    monkeypatch.setattr(pipeline, "read_records", counting_read)
    monkeypatch.setattr(pipeline, "load_undirected_graph", counting_load)
    monkeypatch.setattr(communities, "maximal_cliques", counting_maximal)
    return seen


def test_run_parses_once_and_enumerates_maximal_cliques_once(tmp_path, calls):
    assert main(["run", "--input", FIXTURE, "--outdir", str(tmp_path / "b"), *RUN_ARGS]) == 0
    assert calls == {"read_records": ["sample_tweets.jsonl"], "load_undirected_graph": 0,
                     "maximal_cliques": 1}


def test_resume_that_reuses_graph_loads_the_graph_files_once(tmp_path, calls):
    out, fresh = tmp_path / "bundle", tmp_path / "fresh"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), "--resume",
                 *RUN_ARGS, "--k", "5"]) == 0
    resumed = {s["name"]: s["resumed"] for s in
               json.loads((out / "manifest.json").read_text())["stages"]}
    assert resumed == {"ingest": True, "graph": True, "communities": False,
                       "topics": False, "profiles": False}
    assert calls["load_undirected_graph"] == 1
    assert main(["run", "--input", FIXTURE, "--outdir", str(fresh), *RUN_ARGS, "--k", "5"]) == 0
    assert calls["load_undirected_graph"] == 1
    assert data_files(out) == data_files(fresh)


def test_communities_subcommand_reads_the_graph_files(tmp_path, calls):
    out, sub = tmp_path / "bundle", tmp_path / "sub"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    assert main(["communities", "--graph", str(out), "--outdir", str(sub), "--k", "4"]) == 0
    assert calls["load_undirected_graph"] == 1
    assert sorted(os.listdir(sub)) == ["communities_k4_standard.json", "sweep_standard.csv"]
    for name in os.listdir(sub):
        assert (sub / name).read_bytes() == (out / name).read_bytes()


def test_run_lists_no_k_clique(tmp_path, calls, monkeypatch):
    """Communities come from percolating maximal cliques and the clique counts
    from a pivot tree: a run neither lists k-cliques nor percolates them."""
    for name in ("enumerate_k_cliques", "percolate"):
        calls[name] = 0

        def counting(*args, _real=getattr(communities, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(communities, name, counting)
    assert main(["run", "--input", FIXTURE, "--outdir", str(tmp_path / "b"), *RUN_ARGS]) == 0
    assert calls["maximal_cliques"] == 1
    assert (calls["enumerate_k_cliques"], calls["percolate"]) == (0, 0)


def test_resume_that_reuses_only_ingest_parses_filtered_once(tmp_path, calls):
    out, fresh = tmp_path / "bundle", tmp_path / "fresh"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    calls["read_records"].clear()
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), "--resume",
                 "--tau", "0.7", *RUN_ARGS]) == 0
    resumed = {s["name"]: s["resumed"] for s in
               json.loads((out / "manifest.json").read_text())["stages"]}
    assert resumed == {"ingest": True, "graph": False, "communities": False,
                       "topics": False, "profiles": False}
    assert calls["read_records"] == ["filtered.jsonl"]
    assert main(["run", "--input", FIXTURE, "--outdir", str(fresh), "--tau", "0.7",
                 *RUN_ARGS]) == 0
    assert data_files(out) == data_files(fresh)


def _planted_corpus(path):
    """u00..u13 retweet each other (a 14-clique); u14 joins a triangle with u00, u01."""
    pairs = list(itertools.combinations(range(14), 2)) + [(14, 0), (14, 1)]
    with open(path, "w", encoding="utf-8") as fh:
        for i, (u, v) in enumerate(pairs):
            fh.write(json.dumps({
                "tweet_id": f"t{i}", "user_id": f"u{u:02d}", "retweet_of_user_id": f"u{v:02d}",
                "created_at": "2020-01-01T00:00:00Z", "text": f"qanon #tag{i % 3} #x{u % 2}",
            }) + "\n")


@pytest.mark.parametrize("k", [2, 13])
@pytest.mark.parametrize("rule", ["standard", "loose"])
def test_k_outside_the_sweep_range_matches_brute_force(tmp_path, k, rule):
    source, out = tmp_path / "tweets.jsonl", tmp_path / "bundle"
    _planted_corpus(source)
    assert main(["run", "--input", str(source), "--outdir", str(out), "--k", str(k),
                 "--rule", rule, "--k-min", "3", "--k-max", "12",
                 "--iters", "5", "--n-topics", "2"]) == 0
    ug = pipeline.load_undirected_graph(str(out / "nodes.txt"), str(out / "undirected_edges.csv"))
    got = json.loads((out / f"communities_k{k}_{rule}.json").read_text())
    expected = brute_force_detect(ug, k, rule)
    assert sorted(c["members"] for c in got) == sorted(sorted(c) for c in expected)
    assert got  # the planted clique shows at both levels


def test_rerun_deletes_the_files_the_last_run_wrote_and_this_one_did_not(tmp_path):
    out = tmp_path / "bundle"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    assert (out / "topics_community1.json").exists()
    (out / "notes.txt").write_text("kept\n")  # never listed by a manifest
    # no 11-clique in the fixture: no community, so no topic files
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS, "--k", "11"]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert sorted(os.listdir(out)) == sorted(files + ["manifest.json", "notes.txt"])
    assert not any(name.startswith(("topics_", "doc_topics_")) for name in files)
    assert "communities_k4_standard.json" not in os.listdir(out)


def test_failed_rerun_deletes_the_files_the_last_run_wrote_and_this_one_did_not(
    tmp_path, monkeypatch
):
    out = tmp_path / "bundle"
    args = ["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]
    assert main(args) == 0
    k4_files = set(os.listdir(out))

    def fail(config, files):
        raise RuntimeError("topics failed")

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "topics", fail)
    assert main([*args, "--k", "5"]) != 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert "communities_k4_standard.json" not in os.listdir(out)
    assert "term_frequencies.csv" in k4_files and "term_frequencies.csv" not in files
    assert sorted(os.listdir(out)) == sorted(files + ["manifest.json"])
    monkeypatch.undo()
    assert main([*args, "--k", "5"]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert sorted(os.listdir(out)) == sorted(files + ["manifest.json"])
    assert "communities_k4_standard.json" not in os.listdir(out)


def test_stale_file_that_cannot_be_removed_does_not_hide_the_failed_stage(
    tmp_path, monkeypatch, capsys
):
    out = tmp_path / "bundle"
    args = ["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]
    assert main(args) == 0
    remove = os.remove

    def guarded_remove(path):
        if os.path.basename(path) == "communities_k4_standard.json":
            raise PermissionError(13, "Permission denied", path)
        remove(path)

    def fail(config, files):
        raise RuntimeError("topics failed")

    monkeypatch.setattr(pipeline.os, "remove", guarded_remove)
    monkeypatch.setitem(pipeline._STAGE_FUNCS, "topics", fail)
    capsys.readouterr()
    assert main([*args, "--k", "5"]) == 4
    assert "stage 'topics' failed: topics failed" in capsys.readouterr().err


def test_run_failing_at_its_first_stage_keeps_the_bundle_the_manifest_lists(tmp_path):
    out = tmp_path / "bundle"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    before = data_files(out)
    missing = str(tmp_path / "missing.jsonl")
    assert main(["run", "--input", missing, "--outdir", str(out), *RUN_ARGS]) != 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert data_files(out) == before
    assert sorted(files) == sorted(before)


# exits as a SIGKILL would, leaving the temp file, at the n-th os.replace
_KILLED_RUN = """
import os, sys
from echonet.cli import main
n, replace, seen = int(sys.argv[1]), os.replace, [0]
def replace_or_die(src, dst):
    seen[0] += 1
    if seen[0] == n:
        os._exit(9)
    replace(src, dst)
os.replace = replace_or_die
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """A fresh fixture bundle, and the stage that each of its `os.replace`
    calls (numbered from 1) belongs to; every stage's last one replaces the
    manifest."""
    out = tmp_path_factory.mktemp("fresh") / "bundle"
    replaced, replace = [], os.replace

    def recording(src, dst):
        replaced.append(os.path.basename(dst))
        replace(src, dst)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "replace", recording)
        assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    stage_of, finished = {}, 0
    for n, name in enumerate(replaced, 1):
        stage_of[n] = pipeline.STAGES[finished]
        finished += name == "manifest.json"
    assert finished == len(pipeline.STAGES)
    return out, stage_of


@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("stage", pipeline.STAGES)
def test_run_killed_at_a_replace_resumes_to_the_fresh_bundle(tmp_path, fresh_run, stage, which):
    fresh, stage_of = fresh_run
    ns = [n for n, s in stage_of.items() if s == stage]
    n = ns[0] if which == "first" else ns[-1]
    out = tmp_path / "bundle"
    args = ["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    killed = subprocess.run([sys.executable, "-c", _KILLED_RUN, str(n), *args],
                            env=env, cwd=tmp_path, capture_output=True, timeout=120)
    assert killed.returncode == 9, killed.stderr
    assert main([*args, "--resume"]) == 0
    assert not list(out.glob("*.tmp"))
    assert data_files(out) == data_files(fresh)
    finished = pipeline.STAGES.index(stage)  # the stages the killed run's manifest lists
    resumed = [s["resumed"] for s in json.loads((out / "manifest.json").read_text())["stages"]]
    assert resumed == [i < finished for i in range(len(pipeline.STAGES))]


def test_rerun_deletes_only_plain_files_in_the_outdir(tmp_path):
    out = tmp_path / "bundle"
    out.mkdir()
    (tmp_path / "outside.txt").write_text("x")
    (out / "sub").mkdir()
    (out / "stale.csv").write_text("x")
    listed = ["../outside.txt", "sub", "stale.csv", "manifest.json", 7]
    manifest = {"tool": "echonet", "stages": [], "files": listed}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    assert (tmp_path / "outside.txt").exists() and (out / "sub").is_dir()
    assert not (out / "stale.csv").exists()


def test_rerun_keeps_the_files_another_tools_manifest_lists(tmp_path):
    out = tmp_path / "bundle"
    out.mkdir()
    (out / "data.csv").write_text("x")
    foreign = {"tool": "other", "stages": [], "files": ["data.csv"]}
    (out / "manifest.json").write_text(json.dumps(foreign))
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    assert (out / "data.csv").read_text() == "x"


def test_manifest_and_report_show_each_stage_peak_rss(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    peaks = [s["peak_rss_kb"] for s in stages]
    assert all(isinstance(p, int) and p > 0 for p in peaks)
    assert peaks == sorted(peaks)  # a high-water mark never falls
    capsys.readouterr()
    assert main(["report", "--outdir", str(out)]) == 0
    report = capsys.readouterr().out
    assert report.count("MB") == len(stages) and "ingest:" in report


# -- the records ingest hands on equal those parsed back from filtered.jsonl --

_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                max_size=20)
_TAG = st.one_of(
    st.sampled_from(["#QAnon", "##WWG1WGA", "MAGA", "Ünïcødé", "#straße", "ǅemal", "q"]),
    st.text(st.characters(whitelist_categories=("Lu", "Ll", "Nd")), min_size=1, max_size=6),
)


@st.composite
def _created_at(draw):
    moment = draw(st.datetimes(min_value=datetime(2001, 1, 1), max_value=datetime(2030, 1, 1)))
    style = draw(st.sampled_from(["Z", "naive", "offset"]))
    if style == "naive":
        return moment.isoformat()
    if style == "Z":
        return moment.isoformat() + "Z"
    minutes = draw(st.integers(-23 * 60, 23 * 60).filter(bool))
    return moment.replace(tzinfo=timezone(timedelta(minutes=minutes))).isoformat()


_MAPPING = st.fixed_dictionaries(
    {
        "tweet_id": _TEXT.filter(bool),
        "user_id": st.sampled_from(["u1", "u2", "Ünï", "u 4"]),
        "created_at": _created_at(),
        "text": st.builds("{} {} {}".format, _TEXT,
                          st.sampled_from(["QAnon", "#qanon", "qanon!", "#QAnon #Q", "nothing"]),
                          _TEXT),
    },
    optional={
        "hashtags": st.lists(_TAG, max_size=4),
        "retweet_of_user_id": st.sampled_from(["u1", "u2", "Ünï", ""]),
        "user_description": st.one_of(st.just(""), _TEXT),
    },
)


def _write_input(path, mappings, fmt):
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for obj in mappings:
                fh.write(json.dumps(obj) + "\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for obj in mappings:
            row = dict(obj)
            if "hashtags" in row:
                row["hashtags"] = "|".join(row["hashtags"])
            writer.writerow(row)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mappings=st.lists(_MAPPING, min_size=1, max_size=8),
       fmt=st.sampled_from(["jsonl", "csv"]))
def test_ingest_hands_on_what_parsing_filtered_jsonl_yields(mappings, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, f"tweets.{fmt}")
        _write_input(source, mappings, fmt)
        config = PipelineConfig(input=source, outdir=os.path.join(tmp, "out"),
                                keywords=("qanon", "#q"))
        parsed = {}
        written = pipeline.run_stage("ingest", config, {}, parsed)
        filtered = written["filtered.jsonl"]
        handed_on = parsed[filtered]
        reparsed = read_records(filtered)
        # datetime equality ignores the UTC offset, the serialized form does not
        assert [record_to_json(r) for r in handed_on] == [record_to_json(r) for r in reparsed]
        assert handed_on == reparsed


def test_tracer_rebinds_every_name_it_patches_and_restores_it(tmp_path):
    """The benchmark's tracer wraps echonet functions by name, so renaming one
    breaks the traced benchmark job; its fit span reads `iterations` as the
    6th positional argument of `fit_lda`."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    owners = {"pipeline": pipeline, "communities": communities}
    names = [(owners[module], attr) for module, attr, _ in tracer_module.PATCHES]
    names.append((UndirectedGraph, "adjacency"))
    before = [getattr(owner, attr) for owner, attr in names]
    stage_funcs = dict(pipeline._STAGE_FUNCS)

    tracer = tracer_module.Tracer("t")
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not fn
                   for (owner, attr), fn in zip(names, before))
        assert all(pipeline._STAGE_FUNCS[s] is not fn for s, fn in stage_funcs.items())
        config = PipelineConfig(input=FIXTURE, outdir=str(tmp_path / "out"), k=4,
                                n_topics=2, iterations=50)
        pipeline.run_pipeline(config)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, before))
    assert pipeline._STAGE_FUNCS == stage_funcs
    fits = tracer.facts["fit"]
    assert len(fits) == 2 and all(tokens > 0 and iterations == 50 for tokens, iterations in fits)
