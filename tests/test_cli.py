import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from echonet.cli import main
from echonet.pipeline import StageError, atomic_open, run_pipeline
from echonet.config import PipelineConfig

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


def test_exit_code_config_error(capsys):
    assert run_cli("run", "--input", FIXTURE, "--tau", "1.5") == 2
    assert "tau" in capsys.readouterr().err


def test_exit_code_input_error(tmp_path):
    assert run_cli("run", "--input", str(tmp_path / "missing.jsonl"),
                   "--outdir", str(tmp_path / "out")) == 3


def test_exit_code_stage_failure(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = run_cli("run", "--input", str(empty), "--outdir", str(tmp_path / "out"))
    assert code == 4
    assert (tmp_path / "out" / "graph.partial").exists()


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "config.json"
    cfg = PipelineConfig(input=FIXTURE, outdir=str(tmp_path / "o1"), k=4,
                         n_topics=2, iterations=50)
    cfg.to_file(str(config_path))
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
    assert stages["ingest"]["input_sha256"] == hashlib.sha256(
        Path(FIXTURE).read_bytes()).hexdigest()
    recorded = {name: digest for s in stages.values() for name, digest in s["outputs"].items()}
    assert sorted(recorded) == manifest["files"]
    for name, digest in recorded.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


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
