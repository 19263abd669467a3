"""Benchmark for the echonet pipeline: seeded synthetic corpora, timed end to end.

    python3 perfbench/run.py --workload retweet-scale --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run it from the repository root; it imports echonet from `src/` and writes
only under `.bench_work/`. Each job spawns a fresh process that runs
`echonet run --threads 1` on the generated corpus: a closed loop with one
client, the next job starting when the previous one exits. Jobs repeat for
`--seconds` (at least three jobs), every bundle is checked, and each
end-to-end metric is the median over the jobs. With `--trace 1` half the time
goes to untraced jobs and one traced job follows, whose spans give the
per-layer metrics and `trace.overhead_s`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print each metric by name and
unit with its quartiles and sample count, and the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_JOBS = 3
BUDGET_S = 150  # a run ends well inside the 180 s it is allowed

END_TO_END_UNITS = {"wall_s": "s", "records_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

LIMITS = (
    "Timings are warm-cache: the input was just written and the benchmark may "
    "not drop the page cache or change any machine setting.",
    "stage_profiles raises on a corpus where no user has a description, after "
    "the first four stages have succeeded and before any manifest is written; "
    "every workload carries descriptions, as real corpora do, so this defect "
    "does not show here.",
)


@dataclass
class Job:
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    problems: list[str]
    bundle_bytes: int


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_job(workdir: Path, input_path: str, flags: list[str], name: str,
            kill_at: float, trace_path: Path | None = None) -> tuple[Job, dict, int]:
    """Spawn one `echonet run`; return the job, its bundle digests and exit code."""
    outdir = workdir / name
    report_path = workdir / f"{name}.report.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path), str(trace_path or "-"),
           "run", "--input", input_path, "--outdir", str(outdir), "--threads", "1", *flags]
    with open(workdir / f"{name}.log", "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(kill_at - start, 1.0), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = {}
    setup = report["first_stage"] - start if "first_stage" in report else None
    rss = report.get("peak_rss_kb", 0) / 1024
    problems, digests, size = [], {}, 0
    if code != 0:
        tail = (workdir / f"{name}.log").read_text(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit code {code}: {' '.join(tail)}")
    else:
        digests, problems = checks.bundle_digests(str(outdir))
        size = sum((outdir / f).stat().st_size for f in digests)
    return Job(wall, setup, rss, problems, size), digests, code


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "echonet").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": commit,
        "source_sha256": source_digest(),
        "limits": list(LIMITS),
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "_us_per_" in name:
        return "us"
    if name.endswith(("_ratio", "_per_input_record")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> dict:
    """Generate the workload, run jobs for `seconds`, check every bundle."""
    began = time.monotonic()
    kill_at = began + BUDGET_S + 20
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    input_path, truth = workloads.write_workload(workload, seed, str(workdir), scale)
    # compile bytecode and warm the page cache before anything is timed
    subprocess.run([sys.executable, "-c", "import echonet.cli"], env=child_env(), cwd=ROOT,
                   check=True, timeout=60)

    jobs: list[Job] = []
    reference: dict | None = None

    def one(name: str, trace_path: Path | None = None) -> Job:
        nonlocal reference
        job, digests, code = run_job(workdir, input_path, truth["flags"], name, kill_at,
                                     trace_path)
        if code == 0 and not job.problems:
            if reference is None:
                reference = digests
            job.problems = checks.compare_digests(reference, digests)
            job.problems += checks.check_bundle(workload, str(workdir / name), truth)
        shutil.rmtree(workdir / name, ignore_errors=True)
        jobs.append(job)
        return job

    timed_for = seconds / 2 if trace else seconds
    end = time.monotonic() + timed_for
    while True:
        one(f"job{len(jobs)}")
        longest = max(j.wall_s for j in jobs)
        now = time.monotonic()
        if len(jobs) >= MIN_JOBS and now + longest > end:
            break
        if now + longest * (2.5 if trace else 1.2) > began + BUDGET_S:
            break
    untraced = list(jobs)
    ok = [j for j in untraced if not j.problems] or untraced
    stats = {
        "wall_s": summarize([j.wall_s for j in ok]),
        "records_per_s": summarize([truth["input_lines"] / j.wall_s for j in ok]),
        "setup_s": summarize([j.setup_s for j in ok if j.setup_s is not None] or [0.0]),
        "peak_rss_mb": summarize([j.peak_rss_mb for j in ok]),
    }
    metrics = {name: s["median"] for name, s in stats.items()}

    if trace:
        trace_path = workdir / "traced.json"
        traced = one("traced", trace_path)
        with open(trace_path, encoding="utf-8") as fh:
            spans = json.load(fh)
        metrics = tracer.layer_metrics(spans, truth["input_lines"], truth["malformed_lines"],
                                       traced.bundle_bytes)
        metrics["trace.overhead_s"] = traced.wall_s - stats["wall_s"]["median"]

    failed = sum(bool(j.problems) for j in jobs)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "scale": scale,
        "closed_loop": {"clients": 1, "threads": 1, "flags": truth["flags"]},
        "input_lines": truth["input_lines"],
        "machine": machine_facts(),
        "end_to_end": stats,
        "fail_rate": failed / len(jobs),
        "problems": sorted({p for j in jobs for p in j.problems}),
        "jobs": [asdict(j) for j in jobs],
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def report_lines(result: dict) -> list[str]:
    w = result["workload"]
    lines = []
    for name, s in result["end_to_end"].items():
        lines.append(f"{w} {name} = {s['median']:.6g} {unit_of(name)} "
                     f"(median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    lines.append(f"{w} fail_rate = {result['fail_rate']:.6g} "
                 f"({result['failed']} failed of {result['attempted']} attempted)")
    if result["trace"]:
        for name, value in result["metrics"].items():
            lines.append(f"{w} {name} = {value:.6g} {unit_of(name)}")
    for problem in result["problems"]:
        lines.append(f"{w} PROBLEM {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "echonet" / "__init__.py").is_file():
        print(f"echonet sources not found under {SRC}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    facts = results[0]["machine"]
    print(f"machine: {facts['usable_cores']} of {facts['cores']} cores, {facts['cpu_model']}, "
          f"Python {facts['python']}, numpy {facts['numpy']}, commit {facts['commit']}, "
          f"src sha256 {facts['source_sha256'][:12]}")
    for limit in LIMITS:
        print(f"limit: {limit}")
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    metrics = {}
    for r in results:
        print("\n".join(report_lines(r)))
        out = WORK / "results" / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
        out.write_text(json.dumps(r, indent=1, sort_keys=True))
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        metrics.update({prefix + name: {"value": value, "unit": unit_of(name)}
                        for name, value in r["metrics"].items()})
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
