"""Alternating parent/change runs of the benchmark, summarized per end-to-end metric.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload retweet-scale --seed 5,41 --pairs 10

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in PARENT_DIR and once in CHANGE_DIR, one after the other;
the side that goes first alternates from pair to pair. A run's result is the
JSON object on the last line of its stdout, and its value of a metric is the
median over that run's jobs. For each end-to-end metric of CHANGE_DIR's
`BENCHMARK.json` the script prints each side's median and quartiles over the
runs and the pairs the change won, ties counting for neither side. A gain is
claimed when the change won at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range. Against the metric's
regression bound, a change is unresolved when the parent's interquartile
range is wider than the bound, unless every change run beat every parent run.

`--seed` takes one seed or several, separated by commas. Each seed gets its
own pairs and its own verdicts, one seed after another: the seed changes
where the allocator places what a run keeps, which moves `peak_rss_mb` by
about 0.1 MB on `clique-sweep`, so a memory claim should hold at more than
one seed.

The script reads only what perfbench prints and `BENCHMARK.json`; each
checkout's benchmark writes under its own `.bench_work/`. A run that fails,
or whose bundles fail their checks, is printed and stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one `perfbench/run.py` run in `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{checkout}: {' '.join(cmd)} failed (exit code {proc.returncode})\n"
                 f"{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, statistics.median(values), q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> list[str]:
    """The lines that report one metric over the pairs."""
    lower = metric["better"] == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    lost = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    iqr = p3 - p1
    gain = won >= 0.9 * len(parent) and abs(cm - pm) > iqr and (cm < pm if lower else cm > pm)
    worse = (cm - pm if lower else pm - cm) / pm if pm else 0.0
    if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
        bound = "every change run better than every parent run"
    elif pm and iqr / pm > metric["bound"]:
        bound = "unresolved: the parent's spread is wider than the bound"
    elif worse <= metric["bound"]:
        bound = "within its bound"
    else:
        bound = "WORSE than its bound"
    return [
        f"{metric['name']} ({metric['unit']}, {metric['better']} is better, "
        f"bound {metric['bound']:g})",
        f"  parent  median {pm:.6g}  q1 {p1:.6g}  q3 {p3:.6g}  (IQR {iqr:.6g})",
        f"  change  median {cm:.6g}  q1 {c1:.6g}  q3 {c3:.6g}",
        f"  change won {won} of {len(parent)} pairs, lost {lost}; "
        f"{'gain' if gain else 'no gain'} by the 9-of-10 and IQR rule; "
        f"change worse by {worse:+.1%}, {bound}",
    ]


def seed_list(text: str) -> list[int]:
    """The seeds of `--seed`: one int, or several separated by commas."""
    try:
        return [int(seed) for seed in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of ints: {text!r}") from None


def run_pairs(args, seed: int, metrics: list[dict]) -> None:
    """Run `args.pairs` alternating pairs at `seed` and print each metric's verdict."""
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, args.seconds))
        print(f"seed {seed} pair {i + 1}: " + ", ".join(
            f"{side} peak_rss_mb {runs[side][-1]['peak_rss_mb']:.2f} "
            f"wall_s {runs[side][-1]['wall_s']:.3f}" for side in order), flush=True)
    print(f"{args.workload} seed {seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    for metric in metrics:
        name = metric["name"]
        print("\n".join(verdict(metric, [r[name] for r in runs["parent"]],
                                [r[name] for r in runs["change"]])), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=seed_list, required=True,
                        help="a seed, or seeds separated by commas (e.g. 5,41,61)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="--seconds of each perfbench run (default 10)")
    args = parser.parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    for seed in args.seed:
        run_pairs(args, seed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
