"""Alternating `echonet run` pairs of two checkouts on the paper-scale corpus.

    python3 scripts/paper_scale.py PARENT_DIR CHANGE_DIR [--pairs N] [--work DIR] [RUN_FLAGS...]

The corpus has the shape of the paper's, about 800,000 tweets from 100,000
users: the `retweet-scale` generator of `perfbench/workloads.py` at 100,000
users, `edges_per_user` 6 and `topic_share` 0.03, seed 5. It is written once,
to `--work`/input, and kept there; a later call with the same `--work` reuses
it. Each pair runs `echonet run` with the `retweet-scale` flags once in each
checkout, from its own `src/`; the side that goes first alternates from pair
to pair. Any other argument after the two checkouts is a flag of `echonet
run`, added after those: `--k 3` overrides their `--k 4` and gives 178
communities, not 1, so `topics` builds many corpora. The script prints each
run's stage seconds and the peak RSS its manifest records after `ingest`,
after `graph` and at most, then each side's medians. Every file of a pair's
bundles but `manifest.json` is compared by its BLAKE2b-256; the script
exits 1 if a run fails or a file differs or is on one side only. `--work`
is a temporary directory by default; the corpus takes about 200 MB and
each side's bundle about 150 MB.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from ab_bytes import compare, run  # also puts perfbench/ on sys.path
from workloads import FLAGS, SIZES, write_workload

WORKLOAD = "retweet-scale"
SEED = 5
PAPER_SIZE = {"users": 100_000, "edges_per_user": 6, "topic_share": 0.03}


def write_corpus(workdir: Path) -> str:
    """The path of the paper-scale corpus under `workdir`, written if absent."""
    outdir = workdir / "input"
    path = outdir / "input.jsonl"
    if not (outdir / "truth.json").exists():  # written after input.jsonl
        SIZES[WORKLOAD]["paper"] = PAPER_SIZE
        write_workload(WORKLOAD, SEED, str(outdir), scale="paper")
    truth = json.loads((outdir / "truth.json").read_text())
    print(f"{path}: {truth['input_lines']:,} lines, {truth['tweet_count']:,} kept", flush=True)
    return str(path)


def stage_times(outdir: Path) -> tuple[dict[str, float], dict[str, float]]:
    """(seconds per stage, peak RSS in MB: after `ingest`, after `graph` and
    the run's maximum) from a bundle's manifest."""
    stages = json.loads((outdir / "manifest.json").read_text())["stages"]
    peaks = {s["name"]: s["peak_rss_kb"] / 1024 for s in stages}
    return ({s["name"]: s["seconds"] for s in stages},
            {"ingest": peaks["ingest"], "graph": peaks["graph"], "max": max(peaks.values())})


def describe(seconds: dict[str, float], peaks: dict[str, float]) -> str:
    parts = [f"{name} {value:.2f}" for name, value in seconds.items()]
    return (f"{', '.join(parts)}; total {sum(seconds.values()):.2f} s, peak RSS after "
            f"ingest {peaks['ingest']:.1f} MB, after graph {peaks['graph']:.1f} MB, "
            f"max {peaks['max']:.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=2)
    parser.add_argument("--work", type=Path, help="directory for the corpus and bundles")
    args, run_flags = parser.parse_known_args(argv)
    flags = FLAGS[WORKLOAD] + run_flags
    print(f"echonet run flags: {' '.join(flags)}", flush=True)
    holder = (contextlib.nullcontext(str(args.work)) if args.work
              else tempfile.TemporaryDirectory(prefix="paper_scale_"))
    with holder as work:
        workdir = Path(work)
        corpus = write_corpus(workdir)
        results: dict[str, list[tuple[dict[str, float], dict[str, float]]]] = {
            "parent": [], "change": []}
        problems = []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            outdirs = {side: workdir / side for side in order}
            for side in order:
                shutil.rmtree(outdirs[side], ignore_errors=True)
                if run(getattr(args, side).resolve(), corpus, flags, outdirs[side]):
                    print(f"run failed: pair {i + 1} {side}")
                    return 1
                results[side].append(stage_times(outdirs[side]))
                print(f"pair {i + 1} {side}: {describe(*results[side][-1])}", flush=True)
            n, found = compare(outdirs["parent"], outdirs["change"], f"pair{i + 1}")
            print(f"pair {i + 1}: {n} files compared, {len(found)} differ", flush=True)
            problems += found
        for side, runs in results.items():
            seconds = {name: statistics.median(r[0][name] for r in runs) for name in runs[0][0]}
            peaks = {name: statistics.median(r[1][name] for r in runs) for name in runs[0][1]}
            print(f"{side} median: {describe(seconds, peaks)}")
    print("\n".join(problems))
    print(f"{len(problems)} files differ" if problems else "every data file identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
