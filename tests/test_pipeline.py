"""Work done by one `run`: records parsed once, maximal cliques enumerated once,
and the bundle left holding only the files of the latest run."""

import csv
import itertools
import json
import os
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from echonet import communities, pipeline
from echonet.cli import main
from echonet.config import PipelineConfig
from echonet.records import CSV_COLUMNS, read_records, record_to_json
from oracles import brute_force_detect

FIXTURE = str(Path(__file__).parent.parent / "fixtures" / "sample_tweets.jsonl")
RUN_ARGS = ["--iters", "50", "--n-topics", "2", "--k", "4"]


def data_files(outdir):
    return {name: (outdir / name).read_bytes()
            for name in os.listdir(outdir) if name != "manifest.json"}


@pytest.fixture
def calls(monkeypatch):
    """Count calls of `pipeline.read_records` (with their paths) and of
    `communities.maximal_cliques`."""
    seen = {"read_records": [], "maximal_cliques": 0}
    read, enumerate_maximal = pipeline.read_records, communities.maximal_cliques

    def counting_read(path, *args):
        seen["read_records"].append(os.path.basename(path))
        return read(path, *args)

    def counting_maximal(adj):
        seen["maximal_cliques"] += 1
        return enumerate_maximal(adj)

    monkeypatch.setattr(pipeline, "read_records", counting_read)
    monkeypatch.setattr(communities, "maximal_cliques", counting_maximal)
    return seen


def test_run_parses_once_and_enumerates_maximal_cliques_once(tmp_path, calls):
    assert main(["run", "--input", FIXTURE, "--outdir", str(tmp_path / "b"), *RUN_ARGS]) == 0
    assert calls == {"read_records": ["sample_tweets.jsonl"], "maximal_cliques": 1}


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
