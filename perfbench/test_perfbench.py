"""Tests of the benchmark itself, at smoke size (about half a minute in all).

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _fresh(name: str) -> Path:
    """An empty directory under the benchmark's work area, inside the checkout."""
    path = run.WORK / "tests" / name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _shape(truth: dict) -> dict:
    shape = {key: type(value).__name__ for key, value in truth.items()}
    shape["groups"] = [len(g) for g in truth.get("groups", [])]
    shape["pools"] = [len(p) for p in truth.get("pools", [])]
    return shape


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    data, truth = workloads.generate(workload, 5, "smoke")
    again, truth_again = workloads.generate(workload, 5, "smoke")
    other, truth_other = workloads.generate(workload, 6, "smoke")
    assert data == again and truth == truth_again
    assert other != data
    assert _shape(truth_other) == _shape(truth)
    assert truth["input_lines"] == data.count(b"\n")
    assert truth["malformed_lines"] == workloads.MALFORMED_PER_WORKLOAD
    assert 0 < truth["tweet_count"] < truth["input_records"]


@pytest.fixture(scope="module")
def bundles():
    """One smoke-size bundle per workload, made by the benchmark's job runner."""
    made = {}
    for workload in workloads.WORKLOADS:
        workdir = _fresh(workload)
        input_path, truth = workloads.write_workload(workload, 3, str(workdir), "smoke")
        job, digests, code = run.run_job(workdir, input_path, truth["flags"], "job",
                                         time.monotonic() + 120)
        assert code == 0 and not job.problems, job.problems
        assert 0 < job.setup_s < job.wall_s
        made[workload] = (workdir / "job", truth, digests)
    return made


@pytest.fixture
def bundle(bundles, request):
    source, truth, digests = bundles[request.param]
    target = _fresh(request.node.name) / "bundle"
    shutil.copytree(source, target)
    return request.param, target, truth, digests


def _rewrite_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("bundle", workloads.WORKLOADS, indirect=True)
def test_seed_bundle_passes_every_check(bundle):
    workload, outdir, truth, digests = bundle
    assert checks.check_bundle(workload, str(outdir), truth) == []
    again, problems = checks.bundle_digests(str(outdir))
    assert problems == [] and checks.compare_digests(digests, again) == []
    assert "manifest.json" not in digests


@pytest.mark.parametrize("bundle", workloads.WORKLOADS, indirect=True)
def test_flipped_artifact_byte_is_rejected(bundle):
    _, outdir, _, digests = bundle
    path = outdir / "roles.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))
    again, _ = checks.bundle_digests(str(outdir))
    assert checks.compare_digests(digests, again) == ["roles.csv differs from the first job"]


@pytest.mark.parametrize("bundle", workloads.WORKLOADS, indirect=True)
def test_missing_file_is_rejected(bundle):
    workload, outdir, truth, _ = bundle
    (outdir / "network_stats.json").unlink()
    _, problems = checks.bundle_digests(str(outdir))
    assert problems == ["listed file missing: network_stats.json"]
    assert checks.check_bundle(workload, str(outdir), truth)


@pytest.mark.parametrize("bundle", workloads.WORKLOADS, indirect=True)
def test_wrong_count_is_rejected(bundle):
    workload, outdir, truth, _ = bundle
    _rewrite_json(outdir / "network_stats.json",
                  lambda d: d.update(unique_edge_count=d["unique_edge_count"] - 1))
    assert checks.check_bundle(workload, str(outdir), truth)


@pytest.mark.parametrize("bundle", ["clique-sweep", "topic-fit"], indirect=True)
def test_dropped_community_member_is_rejected(bundle):
    workload, outdir, truth, _ = bundle
    (path,) = outdir.glob("communities_k*.json")
    _rewrite_json(path, lambda comms: comms[0]["members"].pop())
    problems = checks.check_bundle(workload, str(outdir), truth)
    assert any("communities at k=" in p for p in problems)


@pytest.mark.parametrize("bundle", ["clique-sweep"], indirect=True)
def test_wrong_sweep_count_is_rejected(bundle):
    workload, outdir, truth, _ = bundle
    path = outdir / "sweep_standard.csv"
    lines = path.read_text().splitlines()
    k, communities, cliques = lines[-1].split(",")
    lines[-1] = f"{k},{communities},{int(cliques) + 1}"
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_bundle(workload, str(outdir), truth) == [
        f"sweep k={k}: {int(cliques) + 1} cliques != {cliques}"]


@pytest.mark.parametrize("bundle", ["topic-fit"], indirect=True)
def test_foreign_keywords_and_bad_perplexity_are_rejected(bundle):
    workload, outdir, truth, _ = bundle
    path = outdir / "topics_community0.json"
    foreign = truth["pools"][1] + truth["pools"][2]

    def corrupt(topics):
        for t in topics["topics"]:
            for i, kw in enumerate(t["keywords"]):
                kw["token"] = foreign[i]
        topics["perplexity"] = math.inf

    _rewrite_json(path, corrupt)
    problems = checks.check_bundle(workload, str(outdir), truth)
    assert any("keywords from other pools" in p for p in problems)
    assert any("own pool is not most" in p for p in problems)
    assert any("perplexity" in p for p in problems)


def test_benchmark_json_matches_what_the_runner_reports():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])


def test_smoke_traced_run_reports_every_per_layer_metric():
    result = run.measure("topic-fit", 4, 0, trace=True, scale="smoke")
    assert result["failed"] == 0 and result["attempted"] == run.MIN_JOBS + 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    m = result["metrics"]
    assert m["records.read_calls"] == 4
    assert m["graph.adjacency_calls"] == 2
    assert m["communities.maximal_clique_passes"] == 2
    assert m["communities.communities_at_k"] == 4
    assert m["topics.skipped_communities"] == 0 and m["topics.fit_s"] > 0
    assert m["profiles.users"] == 48
    assert m["pipeline.write_s"] > 0


def test_benchmark_refuses_to_run_without_sources():
    stripped = _fresh("stripped")
    shutil.copy(HERE.parent / "BENCHMARK.json", stripped)
    shutil.copytree(HERE, stripped / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "topic-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=stripped, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
