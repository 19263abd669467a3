"""Work done by one `run`: records parsed once, the graph handed on in memory,
maximal cliques enumerated once, and the bundle left holding only the files of
the latest run, also after the run was killed and resumed."""

import csv
import hashlib
import importlib.util
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echonet import communities, pipeline
from echonet.cli import main
from echonet.config import PipelineConfig
from echonet.graph import RetweetGraph, UndirectedGraph, symmetrize
from conftest import columns
from echonet.records import CSV_COLUMNS, ParseStats, read_records
import oracles
from oracles import (brute_force_detect, brute_force_k_cliques, named, package_graph,
                     parse_tweet_stream, record_to_dict, table_columns)

ROOT = Path(__file__).parent.parent
FIXTURE = str(ROOT / "fixtures" / "sample_tweets.jsonl")
RUN_ARGS = ["--iters", "50", "--n-topics", "2", "--k", "4"]
# the fields `load_manifest` requires besides the files and the stages
MANIFEST_HEAD = {"tool": "echonet", "version": "0.1.0", "config_hash": "ab" * 32,
                 "created_utc": "2026-01-01T00:00:00+00:00"}


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

    def counting_maximal(*args):
        seen["maximal_cliques"] += 1
        return enumerate_maximal(*args)

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


@pytest.fixture
def clique_sizes(monkeypatch):
    """How many maximal cliques of each size `communities.maximal_cliques` yields."""
    sizes = Counter()
    enumerate_maximal = communities.maximal_cliques

    def counting_maximal(*args):
        for mc in enumerate_maximal(*args):
            sizes[len(mc)] += 1
            yield mc

    monkeypatch.setattr(communities, "maximal_cliques", counting_maximal)
    return sizes


def test_run_with_k_and_k_min_of_3_or_more_enumerates_no_clique_under_3_nodes(
    tmp_path, clique_sizes
):
    assert main(["run", "--input", FIXTURE, "--outdir", str(tmp_path / "b"), *RUN_ARGS,
                 "--k-min", "3"]) == 0
    assert clique_sizes and min(clique_sizes) >= 3


@pytest.mark.parametrize("k, k_min", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("rule", ["standard", "loose"])
def test_run_with_k_or_k_min_2_takes_the_full_path_and_matches_brute_force(
    tmp_path, clique_sizes, k, k_min, rule
):
    out = tmp_path / "bundle"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS, "--k", str(k),
                 "--k-min", str(k_min), "--k-max", "4", "--rule", rule]) == 0
    assert clique_sizes[2] > 0  # the bare edges are enumerated too
    ug = pipeline.load_undirected_graph(str(out / "nodes.txt"), str(out / "undirected_edges.csv"))
    got = json.loads((out / f"communities_k{k}_{rule}.json").read_text())
    assert [c["members"] for c in got] == [sorted(c) for c in sorted(
        brute_force_detect(ug, k, rule), key=lambda c: (-len(c), min(c)))]
    with open(out / f"sweep_{rule}.csv", newline="") as fh:
        counts = {int(row["k"]): int(row["clique_count"]) for row in csv.DictReader(fh)}
    assert counts == {j: len(brute_force_k_cliques(ug.nodes, named(ug).edges, j))
                      for j in range(k_min, 5)}


@pytest.mark.parametrize("k, k_min", [(2, 2), (3, 2), (5, 4)])
def test_communities_subcommand_gives_the_runs_files_on_either_path(tmp_path, k, k_min):
    out, sub = tmp_path / "bundle", tmp_path / "sub"
    flags = [*RUN_ARGS, "--k", str(k), "--k-min", str(k_min)]
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *flags]) == 0
    assert main(["communities", "--graph", str(out), "--outdir", str(sub), *flags[4:]]) == 0
    assert sorted(os.listdir(sub)) == [f"communities_k{k}_standard.json", "sweep_standard.csv"]
    for name in os.listdir(sub):
        assert (sub / name).read_bytes() == (out / name).read_bytes()


def graph_files(tmp_path, rows, nodes="abc"):
    """A nodes.txt of `nodes` and an undirected_edges.csv of `rows` in `tmp_path`."""
    nodes_path, edges_path = tmp_path / "nodes.txt", tmp_path / "undirected_edges.csv"
    nodes_path.write_text("".join(f"{node}\n" for node in nodes))
    edges_path.write_text("".join(f"{row}\r\n" for row in ["u,v,weight", *rows]))
    return str(nodes_path), str(edges_path)


def load_error(tmp_path, rows, damaged="undirected_edges.csv", tail=b""):
    """The message of the InputFileError that loading the graph files of
    `rows` raises once `tail` is appended to the file `damaged`, from the line
    on: it must name that file first."""
    nodes_path, edges_path = graph_files(tmp_path, rows)
    with open(tmp_path / damaged, "ab") as fh:
        fh.write(tail)
    with pytest.raises(ValueError) as info:
        pipeline.load_undirected_graph(nodes_path, edges_path)
    assert type(info.value) is pipeline.InputFileError
    message, path = str(info.value), str(tmp_path / damaged)
    assert message.startswith(f"{path}: line ")
    return message[len(path) + 2:]


def test_loading_an_edge_whose_node_is_not_in_nodes_txt_names_file_line_and_node(tmp_path):
    assert load_error(tmp_path, ["a,b,1", "b,zz_missing,2"]) == (
        f"line 3: node 'zz_missing' is not in {tmp_path / 'nodes.txt'}")


def test_loading_an_edge_whose_u_does_not_sort_before_its_v_fails(tmp_path):
    # a reversed duplicate row is no longer merged into the first
    assert load_error(tmp_path, ["a,b,1", "b,a,1"]) == (
        "line 3: node 'b' does not sort before node 'a'")
    assert load_error(tmp_path, ["c,c,4"]) == "line 2: node 'c' does not sort before node 'c'"


def test_loading_a_pair_listed_twice_fails_at_its_second_line(tmp_path):
    assert load_error(tmp_path, ["b,c,1", "a,c,1", "a,b,2", "b,c,3", "a,c,1"]) == (
        "line 5: the pair 'b', 'c' is listed twice")


@pytest.mark.parametrize("weight", ["0", "-1", "1.5", "x", "", " 2", "\u0663"])
def test_loading_a_weight_that_is_not_a_positive_integer_fails(tmp_path, weight):
    assert load_error(tmp_path, ["a,b,1", f"a,c,{weight}"]) == (
        f"line 3: the weight {weight!r} of 'a', 'c' is not a positive integer")


@pytest.mark.parametrize("weight", [str(2**63), "99999999999999999999", "1" * 5000],
                         ids=["2**63", "20-digits", "5000-digits"])
def test_loading_a_weight_of_2_to_the_63_or_more_fails(tmp_path, weight):
    assert load_error(tmp_path, ["a,b,1", f"a,c,{weight}"]) == (
        f"line 3: the weight {weight!r} of 'a', 'c' is 2**63 or more")


@pytest.mark.parametrize("damaged, tail, expected", [
    ("nodes.txt", b"\xe9", "line 4: byte 0xe9 is not UTF-8"),
    ("undirected_edges.csv", b"a,c\xff,2\r\n", "line 3: byte 0xff is not UTF-8"),
], ids=["nodes", "edges"])
def test_loading_a_graph_file_that_is_not_utf8_names_the_file_and_line(tmp_path, damaged, tail,
                                                                       expected):
    assert load_error(tmp_path, ["a,b,1"], damaged, tail) == expected


def test_loading_the_largest_int64_weight_keeps_it(tmp_path):
    ug = pipeline.load_undirected_graph(*graph_files(tmp_path, [f"a,b,0{2**63 - 1}"]))
    assert ug.weights.tolist() == [2**63 - 1]


def test_loading_edge_rows_in_any_order_gives_the_sorted_graph(tmp_path):
    ug = pipeline.load_undirected_graph(*graph_files(tmp_path, ["b,c,3", "a,c,2", "a,b,1"],
                                                     nodes="cbad"))
    assert ug.nodes == ["a", "b", "c", "d"]
    # the keys u * 4 + v of the pairs (0, 1), (0, 2) and (1, 2)
    assert ug.keys.tolist() == [1, 2, 6] and ug.weights.tolist() == [1, 2, 3]
    assert ug.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_communities_subcommand_names_the_edge_file_line_and_unknown_node(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    first = (out / "nodes.txt").read_text().splitlines()[0]
    with open(out / "undirected_edges.csv", "a", encoding="utf-8", newline="") as fh:
        fh.write(f"{first},zz_missing,1\r\n")
    lines = len((out / "undirected_edges.csv").read_text().splitlines())
    assert main(["communities", "--graph", str(out), "--outdir", str(tmp_path / "sub"),
                 "--k", "4"]) == 3
    assert capsys.readouterr().err == (
        f"error: {out / 'undirected_edges.csv'}: line {lines}: node 'zz_missing' is not in "
        f"{out / 'nodes.txt'}\n")


@pytest.mark.parametrize("rows", [["a,zz,1"], ["a,b,0"], ["a,b,99999999999999999999"], ["b,a,1"],
                                  ["a,b,1", "a,b,1"]],
                         ids=["unknown-node", "bad-weight", "weight-over-int64", "u-after-v",
                              "repeated-pair"])
def test_communities_subcommand_on_an_edge_file_it_cannot_read_is_an_input_error(tmp_path, rows):
    graph_files(tmp_path, rows)
    assert main(["communities", "--graph", str(tmp_path), "--outdir", str(tmp_path / "sub"),
                 "--k", "3"]) == 3


def test_profiles_subcommand_on_a_stoplist_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert main(["ingest", "--input", FIXTURE, "--outdir", str(out)]) == 0
    stoplist = tmp_path / "stop.txt"
    stoplist.write_bytes(b"patriot\n\xff\n")
    capsys.readouterr()
    assert main(["profiles", "--records", str(out / "filtered.jsonl"), "--stoplist",
                 str(stoplist), "--outdir", str(tmp_path / "sub")]) == 3
    assert capsys.readouterr().err == f"error: {stoplist}: line 2: byte 0xff is not UTF-8\n"
    assert not (tmp_path / "sub" / "term_frequencies.csv").exists()


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


def test_run_over_the_clique_budget_writes_no_communities_file(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), "--k", "3", "--k-min", "3",
                 "--k-max", "5", "--max-cliques", "300", "--n-topics", "2", "--iters", "20"]) == 4
    assert "420 distinct 4-cliques" in capsys.readouterr().err
    assert not list(out.glob("communities_k*"))


def test_report_names_a_missing_communities_file(tmp_path, fresh_run, capsys):
    out = tmp_path / "bundle"
    shutil.copytree(fresh_run[0], out)
    os.remove(out / "communities_k4_standard.json")
    assert main(["report", "--outdir", str(out)]) == 0
    assert "MISSING FILES: communities_k4_standard.json" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("text, detail", [
    (b"not json\n", "not JSON"),
    (b'{"0": {"community_id": 0, "members": []}}', "not a list"),
    (b'[{"community_id": 0}]', "'members'"),
    (b'[{"community_id": 0, "size": 1, "members": [["a"]]}]', "not a string"),
    (b'[{"community_id": 0,\n  "members": ["a\xff"]}]\n', "line 2: byte 0xff is not UTF-8"),
    # each entry's outputs are named by its id, so the second would overwrite the first's
    (b'[{"community_id": 0, "members": ["a"]}, {"community_id": 1, "members": ["b"]},'
     b' {"community_id": 1, "members": ["c"]}]', "community_id 1 is repeated in entry 2"),
    # a fit is seeded with seed + community_id, so a negative id is refused for every --seed
    (b'[{"community_id": 0, "members": ["a"]}, {"community_id": -5, "members": ["b"]}]',
     "community_id -5 of entry 1 is negative"),
], ids=["not-json", "not-a-list", "no-members", "member-not-a-string", "not-utf8",
        "repeated-id", "negative-id"])
def test_topics_subcommand_on_a_communities_file_it_cannot_read_is_an_input_error(
    tmp_path, fresh_run, capsys, text, detail
):
    bad = tmp_path / "communities.json"
    bad.write_bytes(text)
    assert main(["topics", "--records", str(fresh_run[0] / "filtered.jsonl"),
                 "--communities", str(bad), "--outdir", str(tmp_path / "sub")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and detail in err


@pytest.mark.parametrize("stage, flag", [("graph", "--input"), ("profiles", "--records"),
                                         ("topics", "--records")],
                         ids=["graph", "profiles", "topics"])
def test_a_record_file_read_back_with_lines_that_are_not_records_is_an_input_error(
    tmp_path, fresh_run, capsys, stage, flag
):
    """A file that `ingest` wrote holds only records, so a stage that reads
    one back names the lines that are not, rather than drop them unsaid."""
    bundle = tmp_path / "bundle"
    shutil.copytree(fresh_run[0], bundle)
    records = bundle / "filtered.jsonl"
    with open(records, "ab") as fh:
        fh.write(b'{"tweet_id": "x"\n\xff\n')
    sub = tmp_path / "sub"
    argv = [stage, flag, str(records), "--outdir", str(sub)]
    if stage == "topics":
        argv += ["--communities", str(bundle / "communities_k4_standard.json")]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {records}: 2 line(s) are not records\n"
    assert not sub.exists() or not os.listdir(sub)


@pytest.mark.parametrize(("stage", "outputs"), [
    (1, ["nodes.txt"]),
    (1, {"nodes\u0000.txt": "0"}),
    (4, {"../outside.csv": None}),
], ids=["list", "nul-in-name", "outside-the-bundle"])
def test_resume_reruns_a_stage_whose_recorded_outputs_are_malformed(
        tmp_path, fresh_run, stage, outputs):
    """An `outputs` digest of None is that of `../outside.csv`, a copy of the
    bundle's `term_frequencies.csv` next to the bundle."""
    fresh, _ = fresh_run
    out = tmp_path / "bundle"
    shutil.copytree(fresh, out)
    shutil.copy(out / "term_frequencies.csv", tmp_path / "outside.csv")
    digest = pipeline.new_digest((out / "term_frequencies.csv").read_bytes()).hexdigest()
    if isinstance(outputs, dict):
        outputs = {name: value or digest for name, value in outputs.items()}
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["stages"][stage]["outputs"] = outputs
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), "--resume", *RUN_ARGS]) == 0
    resumed = [s["resumed"] for s in json.loads((out / "manifest.json").read_text())["stages"]]
    assert resumed == [True] * stage + [False] * (len(pipeline.STAGES) - stage)
    assert data_files(out) == data_files(fresh)


def test_resume_reruns_every_stage_of_a_bundle_with_sha256_digests(tmp_path, fresh_run):
    """A manifest written before the digests became BLAKE2b records
    `input_sha256` and SHA-256 outputs; no stage matches it, so all rerun."""
    fresh, _ = fresh_run
    out = tmp_path / "bundle"
    shutil.copytree(fresh, out)
    manifest = json.loads((out / "manifest.json").read_text())
    for stage in manifest["stages"]:
        if "input_blake2b" in stage:
            del stage["input_blake2b"]
            stage["input_sha256"] = hashlib.sha256(Path(FIXTURE).read_bytes()).hexdigest()
        stage["outputs"] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                            for name in stage["outputs"]}
    assert "input_sha256" in manifest["stages"][0]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), "--resume", *RUN_ARGS]) == 0
    resumed = [s["resumed"] for s in json.loads((out / "manifest.json").read_text())["stages"]]
    assert resumed == [False] * len(pipeline.STAGES)
    assert data_files(out) == data_files(fresh)


def test_rerun_deletes_only_plain_files_in_the_outdir(tmp_path):
    out = tmp_path / "bundle"
    out.mkdir()
    (out / "sub").mkdir()
    (out / "stale.csv").write_text("x")
    listed = ["sub", "stale.csv", "manifest.json"]
    manifest = {**MANIFEST_HEAD, "stages": [], "files": listed}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    assert (out / "sub").is_dir()
    assert not (out / "stale.csv").exists()


@pytest.mark.parametrize("manifest", [
    {**MANIFEST_HEAD, "stages": [], "files": ["stale.csv", 7]},
    {"tool": "echonet", "stages": [], "files": ["stale.csv"]},
    # a name that is not plain could point out of the outdir
    {**MANIFEST_HEAD, "stages": [], "files": ["stale.csv", "../outside.txt"]},
], ids=["file-not-a-name", "no-version", "file-outside-the-outdir"])
def test_rerun_keeps_the_files_of_a_manifest_that_load_manifest_refuses(tmp_path, manifest):
    out = tmp_path / "bundle"
    out.mkdir()
    (tmp_path / "outside.txt").write_text("x")
    (out / "stale.csv").write_text("x")
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS]) == 0
    assert (out / "stale.csv").read_text() == "x"
    assert (tmp_path / "outside.txt").read_text() == "x"


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
        assert columns(parsed[filtered]) == columns(read_records(filtered))
        # each line is written as the record it holds serializes, and the
        # table holds the columns of those records
        with open(filtered, "rb") as fh:
            lines = fh.readlines()
        records = list(parse_tweet_stream(lines, ParseStats()))
        assert b"".join(lines).decode("utf-8") == "".join(
            json.dumps(record_to_dict(r), ensure_ascii=False, sort_keys=True) + "\n"
            for r in records)
        assert columns(parsed[filtered]) == table_columns(records)


# -- the graph stage writes its CSV files as csv.writer writes their rows --

_NODE = st.text(st.sampled_from([",", '"', " ", "\r", "\n", "a", "B", "7", "é", "名", "\u3000"]),
                min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(edges=st.dictionaries(st.tuples(_NODE, _NODE).filter(lambda p: p[0] != p[1]),
                             st.integers(1, 3), max_size=12),
       loners=st.lists(_NODE, min_size=1, max_size=3), tau=st.sampled_from([0.25, 0.5, 1.0]))
def test_graph_csv_files_are_the_bytes_csv_writer_writes(edges, loners, tau):
    """Names with commas, quotes, line breaks, spaces at either end and text
    that is not ASCII are quoted as csv.writer quotes them."""
    g = package_graph(RetweetGraph, loners, edges)
    ug = symmetrize(g)
    want = {"roles.csv": (["user_id", "in_deg", "out_deg", "score", "label"],
                          oracles.classify_roles(named(g), tau)),
            "undirected_edges.csv": (["u", "v", "weight"],
                                     [(u, v, w) for (u, v), w in named(ug).edges.items()])}
    with tempfile.TemporaryDirectory() as tmp:
        files = pipeline.StageFiles(pipeline.TABLE["graph"], PipelineConfig(outdir=tmp))
        pipeline.write_graph_outputs(g, ug, tau, files)
        for name, (header, rows) in want.items():
            text = io.StringIO(newline="")
            writer = csv.writer(text)
            writer.writerow(header)
            writer.writerows(rows)
            assert Path(tmp, name).read_bytes() == text.getvalue().encode("utf-8"), name


@pytest.mark.parametrize("size", [0, pipeline.HASH_BLOCK - 1, pipeline.HASH_BLOCK,
                                  pipeline.HASH_BLOCK + 1])
def test_blake2b_of_a_file_is_the_digest_of_its_bytes(tmp_path, size):
    data = os.urandom(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert pipeline._file_digest(str(path)) == hashlib.blake2b(data, digest_size=32).hexdigest()


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


def test_manifest_records_the_config_hash_of_earlier_releases(tmp_path, monkeypatch):
    """`config_hash` digests the fields the stage table lists, as the hash of
    every config field but `outdir`, `threads` and `resume` did, and to the
    same value: a bundle written before keeps its hash."""
    assert pipeline.config_hash(PipelineConfig()) == (
        "e59385bcd097561e6ae8a1b09170e96662243cd341ada63c9820ac5d7a0027ea")
    monkeypatch.chdir(ROOT)  # the input path is hashed as given
    out = tmp_path / "out"
    assert main(["run", "--input", "fixtures/sample_tweets.jsonl", "--outdir", str(out),
                 *RUN_ARGS]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config_hash"] == (
        "cbf8b19f47ca8b0108b72f35f376866d25f900f56a7d606ae959f74617d61776")


def test_readme_demo_prints_the_sweep_table(tmp_path, capsys):
    """The README demo: `echonet run` on the fixture, then `echonet report`."""
    out = tmp_path / "out"
    assert main(["run", "--input", FIXTURE, "--outdir", str(out), "--k", "4",
                 "--n-topics", "2"]) == 0
    capsys.readouterr()
    assert main(["report", "--outdir", str(out)]) == 0
    with open(out / "sweep_standard.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["k"] for row in rows] == [str(k) for k in range(3, 13)]
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("community-count sweep (standard rule):") + 1
    assert lines[start:start + len(rows)] == [
        f"  k={row['k']:>2}  communities={row['community_count']:>4}  "
        f"cliques={row['clique_count']}" for row in rows]
    # the fixture's two planted 10-user groups: 2 communities, 2 * C(10, 4) 4-cliques
    assert "  k= 4  communities=   2  cliques=420" in lines
    # its role split at the default tau 0.5
    assert "roles of 50 users: 9 distributor (18.0%), 37 mixed (74.0%), 4 producer (8.0%)" in lines
