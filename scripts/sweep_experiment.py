#!/usr/bin/env python3
"""Run the full pipeline on the bundled fixture and print the headline tables:
degree summary, community-count sweep, per-community topics, and the most
frequent profile terms.

Usage: python3 scripts/sweep_experiment.py [records.jsonl] [outdir]
"""

import csv
import json
import sys
from pathlib import Path

from echonet.config import PipelineConfig
from echonet.pipeline import run_pipeline

ROOT = Path(__file__).parent.parent


def main() -> None:
    records = sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "fixtures" / "sample_tweets.jsonl")
    outdir = Path(sys.argv[2] if len(sys.argv) > 2 else "/tmp/echonet_demo")
    config = PipelineConfig(
        input=records,
        outdir=str(outdir),
        k=4,
        k_min=3,
        k_max=12,
        n_topics=2,
        iterations=300,
    )
    run_pipeline(config)

    net = json.loads((outdir / "network_stats.json").read_text())
    print(f"nodes {net['node_count']}  unique edges {net['unique_edge_count']}  "
          f"weighted sum {net['weighted_edge_sum']}")
    for weighting in ("unweighted", "weighted"):
        for direction in ("out", "in"):
            s = net[weighting][direction]
            print(f"  {weighting:10s} {direction:3s}  min {s['min']:.0f}  max {s['max']:.0f}  "
                  f"mean {s['mean']:.2f}  var {s['variance']:.1f}  skew {s['skew']:.2f}")

    print("\ncommunity-count sweep (standard rule):")
    with open(outdir / "sweep_standard.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            print(f"  k={row['k']:>2}  communities={row['community_count']:>4}  "
                  f"cliques={row['clique_count']}")

    for path in sorted(outdir.glob("topics_community*.json")):
        data = json.loads(path.read_text())
        print(f"\ncommunity {data['community_id']} "
              f"(training-set perplexity {data['perplexity']:.2f}):")
        for topic in data["topics"]:
            keywords = ", ".join(kw["token"] for kw in topic["keywords"][:5])
            print(f"  topic {topic['topic_id']}: {keywords}")

    print("\nmost frequent profile terms:")
    with open(outdir / "term_frequencies.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            print(f"  {row['term']:<15} {float(row['proportion']):.2f}")


if __name__ == "__main__":
    main()
