import codecs
import concurrent.futures
import csv
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import columns
from echonet.cli import main
from echonet.pipeline import StageError, atomic_open, run_pipeline
from echonet.config import PipelineConfig
from echonet.records import read_records

FIXTURE = str(Path(__file__).parent.parent / "fixtures" / "sample_tweets.jsonl")

RUN_ARGS = ["--iters", "50", "--n-topics", "2", "--k", "4"]


def run_cli(*argv):
    return main(list(argv))


def bundle_files(outdir):
    return sorted(os.listdir(outdir))


def test_ingest_subcommand(tmp_path):
    out = tmp_path / "filtered.jsonl"
    stats = tmp_path / "stats.json"
    code = run_cli(
        "ingest",
        "--input", FIXTURE,
        "--keywords", "qanon,#q,#qanon",
        "--output", str(out),
        "--stats", str(stats),
    )
    assert code == 0
    stats_data = json.loads(stats.read_text())
    assert stats_data["malformed_lines"] == 3
    assert stats_data["tweet_count"] < stats_data["input_records"]
    assert out.read_text().count("\n") == stats_data["tweet_count"]


@pytest.mark.parametrize("bad", [
    "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
    '{"n": ' + "9" * 5000 + "}",  # an integer past sys.get_int_max_str_digits()
], ids=["deep-nesting", "long-integer"])
def test_ingest_counts_a_line_json_loads_raises_on_as_malformed(tmp_path, bad):
    good = [json.dumps({"tweet_id": f"t{i}", "user_id": f"u{i}", "text": "#qanon",
                        "created_at": "2018-07-01T00:00:00Z"}) for i in range(2)]
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join([good[0], bad, good[1]]) + "\n")
    stats = tmp_path / "stats.json"
    assert run_cli("ingest", "--input", str(src), "--output", str(tmp_path / "out.jsonl"),
                   "--stats", str(stats)) == 0
    stats_data = json.loads(stats.read_text())
    assert (stats_data["malformed_lines"], stats_data["tweet_count"]) == (1, 2)


def test_ingest_skips_a_byte_order_mark_at_the_start_of_a_jsonl_file(tmp_path):
    src = tmp_path / "bom.jsonl"
    src.write_bytes(codecs.BOM_UTF8 + Path(FIXTURE).read_bytes())
    assert columns(read_records(str(src))) == columns(read_records(FIXTURE))
    for name, path in (("plain", FIXTURE), ("bom", str(src))):
        assert run_cli("ingest", "--input", path, "--outdir", str(tmp_path / name)) == 0
    for name in ("filtered.jsonl", "ingest_stats.json"):
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    stats = json.loads((tmp_path / "bom" / "ingest_stats.json").read_text())
    assert (stats["input_records"], stats["malformed_lines"], stats["tweet_count"]) == (248, 3, 246)


def test_stage_chain_matches_run(tmp_path):
    staged = tmp_path / "staged"
    full = tmp_path / "full"
    for step in (
        ["ingest", "--input", FIXTURE, "--outdir", str(staged)],
        ["graph", "--input", str(staged / "filtered.jsonl"), "--outdir", str(staged)],
        ["communities", "--graph", str(staged), "--k", "4", "--outdir", str(staged)],
        ["topics", "--n-topics", "2", "--iters", "50", "--k", "4", "--outdir", str(staged)],
        ["profiles", "--records", str(staged / "filtered.jsonl"), "--outdir", str(staged)],
    ):
        assert run_cli(*step) == 0
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(full), *RUN_ARGS) == 0
    for name in bundle_files(full):
        if name == "manifest.json":
            continue
        assert (staged / name).read_bytes() == (full / name).read_bytes()


def test_run_twice_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(a), *RUN_ARGS) == 0
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(b), *RUN_ARGS) == 0
    names = bundle_files(a)
    assert names == bundle_files(b)
    for name in names:
        if name == "manifest.json":
            continue  # carries timestamps
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_emits_all_artifact_families(tmp_path):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    names = bundle_files(out)
    for required in (
        "filtered.jsonl",
        "ingest_stats.json",
        "network_stats.json",
        "degree_histogram.csv",
        "roles.csv",
        "communities_k4_standard.json",
        "sweep_standard.csv",
        "topics_community0.json",
        "doc_topics_community0.csv",
        "term_frequencies.csv",
        "manifest.json",
    ):
        assert required in names
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == [n for n in names if n != "manifest.json"]
    assert [s["name"] for s in manifest["stages"]] == [
        "ingest", "graph", "communities", "topics", "profiles",
    ]


def test_planted_communities_recovered(tmp_path):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    comms = json.loads((out / "communities_k4_standard.json").read_text())
    members = sorted(sorted(c["members"]) for c in comms)
    assert members == [
        [f"g0_user{i:02d}" for i in range(10)],
        [f"g1_user{i:02d}" for i in range(10)],
    ]


def test_resume_skips_completed_stages(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), "--resume", *RUN_ARGS) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(s["resumed"] for s in manifest["stages"])


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    capsys.readouterr()
    assert run_cli("report", "--outdir", str(out)) == 0
    text = capsys.readouterr().out
    assert "corpus:" in text and "network:" in text and "communities_k4" in text


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--threads", "2"], ["--resume"]])
def test_report_rejects_a_flag_it_would_ignore(tmp_path, capsys, flag):
    assert _exit_code(["report", "--outdir", str(tmp_path / "out"), *flag]) == 2
    assert flag[0] in capsys.readouterr().err


_HEAD = {"tool": "echonet", "version": "0.1.0", "config_hash": "ab" * 32,
         "created_utc": "2026-01-01T00:00:00+00:00"}


@pytest.mark.parametrize("text, field", [
    ("{not json", None),
    (json.dumps({"tool": "another-tool", "outputs": []}), None),
    (json.dumps(["tool", "echonet"]), None),
    (json.dumps({"tool": "echonet", "files": "all", "stages": []}), None),
    (json.dumps({**_HEAD, "files": [3], "stages": []}), "'files'"),
    (json.dumps({"tool": "echonet", "files": [], "stages": []}), "'version'"),
    (json.dumps({**_HEAD, "config_hash": None, "files": [], "stages": []}), "'config_hash'"),
    (json.dumps({**_HEAD, "files": [], "stages": [{"name": "ingest"}]}), "'seconds' of stage 0"),
    (json.dumps({**_HEAD, "files": [], "stages": [
        {"name": "ingest", "seconds": 0.5}, {"name": "graph", "seconds": "1"}]}),
     "'seconds' of stage 1"),
    (json.dumps({**_HEAD, "files": [], "stages": [["ingest"]]}), "stage 0"),
    # report would read a listed name from wherever it points
    (json.dumps({**_HEAD, "files": ["sweep_d/../../outside.csv"], "stages": []}),
     "'sweep_d/../../outside.csv' of 'files'"),
    (json.dumps({**_HEAD, "files": [".."], "stages": []}), "'..' of 'files'"),
], ids=["not-json", "foreign", "not-an-object", "files-not-a-list", "file-not-a-name",
        "no-version",
        "config-hash-not-a-string", "stage-without-seconds", "seconds-not-a-number",
        "stage-not-an-object", "file-with-a-separator", "file-dot-dot"])
def test_report_on_a_manifest_it_cannot_read_is_an_input_error(tmp_path, capsys, text, field):
    out = tmp_path / "bundle"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    assert run_cli("report", "--outdir", str(out)) == 3
    err = capsys.readouterr().err
    assert str(out / "manifest.json") in err
    if field is not None:
        assert field in err


@pytest.mark.parametrize("name, text, field", [
    ("ingest_stats.json", "{}", "'tweet_count'"),
    ("ingest_stats.json", "[1]", None),
    ("ingest_stats.json", json.dumps({"tweet_count": "12", "unique_user_count": 3,
                                      "retweet_count": 4}), "'tweet_count'"),
    ("network_stats.json", json.dumps({"node_count": 3, "weighted_edge_sum": 4}),
     "'unique_edge_count'"),
    ("network_stats.json", json.dumps({"node_count": 3, "unique_edge_count": 2,
                                       "weighted_edge_sum": 4}), "'unweighted'"),
    ("communities_k4_standard.json", "5", None),
    ("communities_k4_standard.json", json.dumps({"a": 1}), None),
    ("communities_k4_standard.json",
     json.dumps([{"community_id": 0, "size": 1, "members": [["a"]]}]), "entry 0"),
    ("roles.csv", "user_id,in_deg,out_deg,score\nu1,1.0,0.0,1.0\n", "'label'"),
    ("roles.csv", "user_id,in_deg,out_deg,score,label\nu1,1.0,0.0,1.0,leader\n", "label"),
    ("roles.csv", b"user_id,in_deg,out_deg,score,label\nu1,1.0,0.0,1.0,producer\n"
                  b"u\xff2,0.0,1.0,-1.0,distributor\n", "line 3: byte 0xff is not UTF-8"),
    ("sweep_standard.csv", "k,community_count,clique_count\n3,two,240\n", "line 2"),
    ("topics_community0.json", json.dumps({"community_id": 0, "perplexity": "4.8",
                                           "topics": []}), "'perplexity'"),
    ("topics_community0.json", json.dumps({"community_id": 0, "perplexity": 4.8, "topics": [
        {"topic_id": 0, "keywords": [{"prob": 0.5}]}]}), "'token'"),
    ("term_frequencies.csv", "rank,term,proportion,user_count\n1,patriot,0.475\n", "line 2"),
], ids=["stats-empty", "stats-not-an-object", "count-not-an-int", "network-without-edges",
        "network-without-moments", "communities-an-int", "communities-an-object",
        "communities-member-not-a-string", "roles-without-label", "roles-unknown-label",
        "roles-not-utf8",
        "sweep-count-not-an-int", "topics-perplexity-not-a-number", "topics-keyword-without-token",
        "terms-short-row"])
def test_report_on_a_file_it_cannot_print_is_an_input_error(tmp_path, capsys, name, text, field):
    out = tmp_path / "bundle"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({**_HEAD, "files": [name], "stages": []}))
    (out / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert run_cli("report", "--outdir", str(out)) == 3
    err = capsys.readouterr().err
    assert str(out / name) in err
    if field is not None:
        assert field in err


def test_report_prints_no_file_the_manifest_does_not_list(tmp_path, capsys):
    out = tmp_path / "bundle"
    out.mkdir()
    (out / "manifest.json").write_text(
        json.dumps({**_HEAD, "files": ["ingest_stats.json"], "stages": []}))
    (out / "ingest_stats.json").write_text(
        json.dumps({"tweet_count": 5, "unique_user_count": 2, "retweet_count": 1}))
    (out / "roles.csv").write_text("user_id,in_deg,out_deg,score,label\nu1,1.0,0.0,1.0,producer\n")
    (out / "term_frequencies.csv").write_text("not a table\n")  # would exit 3 if it were read
    assert run_cli("report", "--outdir", str(out)) == 0
    text = capsys.readouterr().out
    assert "corpus: 5 tweets, 2 users, 1 retweets" in text.splitlines()
    assert "roles" not in text and "profile terms" not in text


def test_report_prints_both_studies_of_a_fixture_bundle(tmp_path, capsys):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    capsys.readouterr()
    assert run_cli("report", "--outdir", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    # study 1: the network, its role split, the sweep table and the communities at k
    i = lines.index("network: 50 nodes, 196 edges (weighted sum 196)")
    assert lines[i + 1:i + 5] == [
        "  unweighted out  min 0  max 9  mean 3.92  var 17.4  skew 0.38",
        "  unweighted in   min 0  max 9  mean 3.92  var 17.6  skew 0.35",
        "  weighted   out  min 0  max 9  mean 3.92  var 17.4  skew 0.38",
        "  weighted   in   min 0  max 9  mean 3.92  var 17.6  skew 0.35",
    ]
    assert "roles of 50 users: 9 distributor (18.0%), 37 mixed (74.0%), 4 producer (8.0%)" in lines
    assert "  k= 4  communities=   2  cliques=420" in lines
    i = lines.index("communities_k4_standard.json: 2 communities")
    assert lines[i + 1:i + 3] == ["  community 0: 10 members", "  community 1: 10 members"]
    # study 2: each community's topics, then the profile terms
    for cid in (0, 1):
        fit = json.loads((out / f"topics_community{cid}.json").read_text())
        i = lines.index(f"community {cid} (training-set perplexity {fit['perplexity']:.2f}):")
        assert lines[i + 1:i + 3] == [
            f"  topic {t['topic_id']}: " + ", ".join(kw["token"] for kw in t["keywords"])
            for t in fit["topics"]]
    i = lines.index("most frequent profile terms:")
    with open(out / "term_frequencies.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10 and lines[i + 1:i + 11] == [
        f"  {row['term']:<15} {float(row['proportion']):.2f}  ({row['user_count']} users)"
        for row in rows]
    assert lines[i + 1] == "  patriot         0.47  (19 users)"


@pytest.mark.parametrize("name", ["network_stats.json", "roles.csv", "sweep_standard.csv",
                                  "topics_community1.json", "term_frequencies.csv"])
def test_report_names_a_missing_file_and_prints_the_rest(tmp_path, capsys, name):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    os.remove(out / name)
    capsys.readouterr()
    assert run_cli("report", "--outdir", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"MISSING FILES: {name}" in lines
    assert "corpus: 246 tweets, 50 users, 196 retweets" in lines


def test_exit_code_config_error(capsys):
    assert run_cli("run", "--input", FIXTURE, "--tau", "1.5") == 2
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--input", "{tmp}/missing.jsonl", "--outdir", "{tmp}/out"],
    ["run", "--input", FIXTURE, "--outdir", "{tmp}/file"],  # FileExistsError
    ["run", "--input", FIXTURE, "--outdir", "{tmp}/file/sub"],  # NotADirectoryError
    ["report", "--outdir", "{tmp}/file"],
])
def test_exit_code_input_error(tmp_path, argv):
    (tmp_path / "file").write_text("")
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == 3


def test_exit_code_stage_failure(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = run_cli("run", "--input", str(empty), "--outdir", str(tmp_path / "out"))
    assert code == 4
    assert list(_stages(tmp_path / "out")) == ["ingest"]  # the manifest says graph failed
    assert not list((tmp_path / "out").glob("*.partial"))


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "config.json"
    cfg = PipelineConfig(input=FIXTURE, outdir=str(tmp_path / "o1"), k=4,
                         n_topics=2, iterations=50)
    config_path.write_text(json.dumps(cfg.to_dict()))
    assert run_cli("run", "--config", str(config_path)) == 0
    assert (tmp_path / "o1" / "communities_k4_standard.json").exists()
    # flag wins over file
    assert run_cli("run", "--config", str(config_path),
                   "--outdir", str(tmp_path / "o2"), "--k", "3") == 0
    assert (tmp_path / "o2" / "communities_k3_standard.json").exists()


def test_threads_give_identical_topic_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(a), *RUN_ARGS) == 0
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(b),
                   "--threads", "2", *RUN_ARGS) == 0
    for name in bundle_files(a):
        if name.startswith(("topics_", "doc_topics_")):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_topics_start_no_more_workers_than_communities(tmp_path, monkeypatch):
    asked = []

    class InProcessPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    bundle = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(bundle), *RUN_ARGS) == 0
    assert len(json.loads((bundle / "communities_k4_standard.json").read_text())) == 2
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for threads in ("1", "64"):
        assert run_cli("topics", "--records", str(bundle / "filtered.jsonl"),
                       "--communities", str(bundle / "communities_k4_standard.json"),
                       "--outdir", str(tmp_path / threads), "--threads", threads,
                       *RUN_ARGS) == 0
    assert asked == [2]
    names = [n for n in bundle_files(tmp_path / "1") if n.startswith(("topics_", "doc_topics_"))]
    assert len(names) == 4
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "64" / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_topics_take_communities_in_id_order(tmp_path, capsys, threads):
    bundle = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(bundle), *RUN_ARGS) == 0
    communities = json.loads((bundle / "communities_k4_standard.json").read_text())
    ids = [c["community_id"] for c in communities]
    assert ids == sorted(ids) and len(ids) > 1
    reversed_file = tmp_path / "reversed.json"
    reversed_file.write_text(json.dumps(communities[::-1]))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("topics", "--records", str(bundle / "filtered.jsonl"),
                   "--communities", str(reversed_file), "--outdir", str(out),
                   "--threads", threads, *RUN_ARGS) == 0
    wrote = [line.split()[-1] for line in capsys.readouterr().out.splitlines()]
    assert wrote == [str(out / f"{prefix}_community{cid}.{ext}")
                     for cid in ids
                     for prefix, ext in (("topics", "json"), ("doc_topics", "csv"))]
    for path in wrote:
        name = os.path.basename(path)
        assert (out / name).read_bytes() == (bundle / name).read_bytes()


def test_stage_error_carries_stage_name(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    config = PipelineConfig(input=str(empty), outdir=str(tmp_path / "out"))
    with pytest.raises(StageError) as info:
        run_pipeline(config)
    assert info.value.stage == "graph"


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "echonet.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for cmd in ("ingest", "graph", "communities", "topics", "profiles", "run", "report"):
        assert cmd in proc.stdout


def _stages(outdir):
    manifest = json.loads((outdir / "manifest.json").read_text())
    return {s["name"]: s["resumed"] for s in manifest["stages"]}


def test_resume_reruns_stage_whose_config_changed(tmp_path):
    out, fresh = tmp_path / "bundle", tmp_path / "fresh"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), "--resume",
                   "--min-weight", "3", *RUN_ARGS) == 0
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(fresh),
                   "--min-weight", "3", *RUN_ARGS) == 0
    edges = "undirected_edges.csv"
    assert (out / edges).read_bytes() == (fresh / edges).read_bytes()
    assert _stages(out) == {"ingest": True, "graph": False, "communities": False,
                            "topics": False, "profiles": False}


def test_resume_reruns_from_a_truncated_output(tmp_path):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    roles = (out / "roles.csv").read_bytes()
    (out / "roles.csv").write_bytes(b"")
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), "--resume", *RUN_ARGS) == 0
    assert (out / "roles.csv").read_bytes() == roles
    assert _stages(out) == {"ingest": True, "graph": False, "communities": False,
                            "topics": False, "profiles": False}


def test_resume_reruns_ingest_when_input_changes(tmp_path):
    source, out, fresh = tmp_path / "tweets.jsonl", tmp_path / "bundle", tmp_path / "fresh"
    lines = Path(FIXTURE).read_text().splitlines(keepends=True)
    source.write_text("".join(lines))
    assert run_cli("run", "--input", str(source), "--outdir", str(out), *RUN_ARGS) == 0
    source.write_text("".join(lines[:-40]))
    assert run_cli("run", "--input", str(source), "--outdir", str(out), "--resume",
                   *RUN_ARGS) == 0
    assert run_cli("run", "--input", str(source), "--outdir", str(fresh), *RUN_ARGS) == 0
    assert not _stages(out)["ingest"]
    for name in ("filtered.jsonl", "ingest_stats.json"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_manifest_lists_only_files_of_this_run(tmp_path):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS,
                   "--k", "5") == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert "communities_k5_standard.json" in files
    assert "communities_k4_standard.json" not in files


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


@pytest.mark.parametrize("flags, config_file, field", [
    (["--alpha", "abc"], None, "alpha"),
    ([], {"k": "4"}, "k"),
    (["--alpha", "nan"], None, "alpha"),
    (["--beta", "inf"], None, "beta"),
    ([], {"keywords": "qanon"}, "keywords"),
    (["--seed", "-1"], None, "seed"),
    ([], {"seed": -3}, "seed"),
    ([], [1, 2], "JSON object"),
    ([], "x", "JSON object"),
    (["--config", "."], None, "Is a directory"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, flags, config_file, field):
    argv = ["run", "--input", FIXTURE, "--outdir", str(tmp_path / "out"),
            "--iters", "50", "--n-topics", "2", *flags]
    if config_file is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_file))
        argv += ["--config", str(path)]
    assert _exit_code(argv) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_without_descriptions_writes_empty_profile_table(tmp_path, capsys):
    stripped = tmp_path / "tweets.jsonl"
    with open(FIXTURE, encoding="utf-8") as src, open(stripped, "w", encoding="utf-8") as dst:
        for line in src:
            try:
                obj = json.loads(line)
            except ValueError:
                dst.write(line)  # keep the malformed lines
                continue
            if isinstance(obj, dict):
                obj.pop("user_description", None)
            dst.write(json.dumps(obj) + "\n")
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", str(stripped), "--outdir", str(out), *RUN_ARGS) == 0
    assert (out / "term_frequencies.csv").read_text() == "rank,term,proportion,user_count\n"
    assert "profiles:" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert "term_frequencies.csv" in manifest["files"]


def test_manifest_records_each_stage_slice_and_digests(tmp_path):
    out = tmp_path / "bundle"
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    stages = {s["name"]: s for s in manifest["stages"]}
    assert stages["graph"]["config"] == {"tau": 0.5, "min_weight": 1}
    assert stages["ingest"]["input_blake2b"] == hashlib.blake2b(
        Path(FIXTURE).read_bytes(), digest_size=32).hexdigest()
    assert re.fullmatch("[0-9a-f]{64}", manifest["config_hash"])
    recorded = {name: digest for s in stages.values() for name, digest in s["outputs"].items()}
    assert sorted(recorded) == manifest["files"]
    for name, digest in recorded.items():
        assert hashlib.blake2b((out / name).read_bytes(), digest_size=32).hexdigest() == digest


def test_atomic_open_keeps_old_file_when_writer_dies(tmp_path):
    target = tmp_path / "roles.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(target)) as fh:
            fh.write("half a new fi")
            raise RuntimeError("killed")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["roles.csv"]


def test_resume_after_a_failed_stage_reuses_the_stages_before_it(tmp_path, monkeypatch):
    from echonet import pipeline

    out = tmp_path / "bundle"

    def killed(config, files):
        raise RuntimeError("killed")

    monkeypatch.setitem(pipeline._STAGE_FUNCS, "topics", killed)
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), *RUN_ARGS) == 4
    assert list(_stages(out)) == ["ingest", "graph", "communities"]
    monkeypatch.undo()
    assert run_cli("run", "--input", FIXTURE, "--outdir", str(out), "--resume", *RUN_ARGS) == 0
    assert _stages(out) == {"ingest": True, "graph": True, "communities": True,
                            "topics": False, "profiles": False}
    assert not (out / "topics.partial").exists()


def test_user_ids_nodes_txt_cannot_hold_are_malformed(tmp_path):
    def line(i, user, retweet_of):
        return json.dumps({"tweet_id": f"t{i}", "user_id": user,
                           "created_at": "2018-07-01T00:00:00+00:00",
                           "text": "#qanon #wwg1wga", "retweet_of_user_id": retweet_of})

    pairs = [("u1", "u2"), ("u2", "u3"), ("u3", "u1"),
             ("a\nb", "u1"), (" ", "u2"), ("u3", " "), ("u1", "a\rb")]
    src = tmp_path / "in.jsonl"
    src.write_text("\n".join(line(i, u, v) for i, (u, v) in enumerate(pairs)) + "\n")
    out = tmp_path / "out"
    assert run_cli("run", "--input", str(src), "--outdir", str(out),
                   "--k", "3", "--n-topics", "2", "--iters", "5") == 0
    assert json.loads((out / "ingest_stats.json").read_text())["malformed_lines"] == 4
    assert (out / "nodes.txt").read_text() == "u1\nu2\nu3\n"
    assert run_cli("communities", "--graph", str(out), "--k", "3", "--outdir", str(out)) == 0


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_openblas_to_one_thread(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import os, echonet; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == expected


def test_a_run_loads_no_numpy_random_or_openssl_module(tmp_path):
    """The sampler draws from `random` and the digests come from the builtin
    BLAKE2: a whole run loads no `numpy.random` module and no `_hashlib`
    (OpenSSL) that `import numpy` alone does not (numpy 1.x loads the
    `numpy.random` modules there)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")]))
    report = ("print(sorted(m for m in sys.modules"
              " if m.startswith('numpy.random') or m == '_hashlib'))")
    argv = ["run", "--input", FIXTURE, "--outdir", str(tmp_path / "out"), *RUN_ARGS]

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", f"import sys, numpy\n{code}\n{report}"],
                              capture_output=True, text=True, env=env, check=True)
        return proc.stdout.strip().splitlines()[-1]

    assert loaded(f"from echonet.cli import main\nassert main({argv!r}) == 0") == loaded("")
    assert (tmp_path / "out" / "topics_community0.json").exists()


def test_a_run_whose_topic_rows_np_isin_would_sort_loads_no_numpy_ma(tmp_path):
    """A community's rows are looked up in a table by user code: with few
    tagged rows, many members and member codes far apart, `np.isin` would
    sort, and its `np.unique` imports `numpy.ma` (about 1.3 MB) into the run."""
    lines = []

    def tweet(user, text, retweet_of=None):
        obj = {"tweet_id": f"t{len(lines)}", "user_id": user, "text": text,
               "created_at": "2020-06-01T00:00:00+00:00"}
        if retweet_of:
            obj["retweet_of_user_id"] = retweet_of
        lines.append(json.dumps(obj) + "\n")

    # a planted 15-clique whose first member gets code 0 and the others codes
    # past 200; each member writes one of the 15 tagged rows
    users = ["m0", *(f"f{i}" for i in range(200)), *(f"m{i}" for i in range(1, 15))]
    for user in users:
        tweet(user, f"#qanon #tag{user[1:]}" if user.startswith("m") else "#qanon")
    for user, target in itertools.permutations(users[:1] + users[-14:], 2):
        tweet(user, "#qanon", target)
    # np.isin picks a table only for codes that span at most 6 * (15 + 15),
    # and a loop over the codes only for fewer than 10 * 15 ** 0.145 of them
    src = tmp_path / "tweets.jsonl"
    src.write_text("".join(lines))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")]))
    argv = ["run", "--input", str(src), "--outdir", str(tmp_path / "out"), "--k", "4",
            "--n-topics", "2", "--iters", "5"]
    code = (f"import sys\nfrom echonet.cli import main\nassert main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False"
    docs = (tmp_path / "out" / "doc_topics_community0.csv").read_text().splitlines()
    assert len(docs) == 1 + 15
