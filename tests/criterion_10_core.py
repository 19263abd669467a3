"""The in-memory core of a run at the paper's scale, for acceptance
criterion 10, in a process of its own so that its peak RSS is its own.

    PYTHONPATH=src python tests/criterion_10_core.py

It builds the retweet graph of 100,000 users and about 430,000 edges, its
degree summary and its symmetrized form, lists the maximal cliques from 3
nodes on, as a run with k and k_min of at least 3 does, and sweeps k = 3..12.
It prints one JSON object: the graph's sizes, the number of communities at
k = 3, the seconds taken and the process's peak RSS in KiB (VmHWM, or
ru_maxrss where /proc is not available).
"""

import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from conftest import make_record, table_of
from echonet.communities import community_count_sweep, maximal_clique_list
from echonet.graph import build_retweet_graph, degree_summary, node_degrees, symmetrize
from echonet.pipeline import _peak_rss_kb


def scale_free_events(n_nodes, n_edges, m, seed):
    """Preferential-attachment edge list, padded with random extra edges."""
    rng = random.Random(seed)
    repeated = []
    edges = set()
    targets = list(range(m))
    for v in range(m, n_nodes):
        for u in targets:
            edges.add((v, u))
        repeated.extend(targets)
        repeated.extend([v] * m)
        chosen = set()
        while len(chosen) < m:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    while len(edges) < n_edges:
        u = rng.choice(repeated)
        v = rng.choice(repeated)
        if u != v:
            edges.add((u, v))
    return list(edges)


def main():
    start = time.monotonic()
    events = scale_free_events(100_000, 430_000, m=4, seed=10)
    records = table_of(
        make_record(f"t{i}", f"u{u}", retweet_of=f"u{v}")
        for i, (u, v) in enumerate(events)
    )
    g = build_retweet_graph(records)
    summary = degree_summary(node_degrees(g))
    ug = symmetrize(g, 1)
    sweep = community_count_sweep(
        maximal_clique_list(ug, 3), 3, 12, "standard", max_cliques=10_000_000
    )
    print(json.dumps({
        "nodes": len(g.nodes),
        "edges": len(g.keys),
        "node_count": summary["node_count"],
        "communities_at_3": sweep.community_counts[3],
        "seconds": time.monotonic() - start,
        "peak_rss_kb": _peak_rss_kb(),
    }))


if __name__ == "__main__":
    main()
