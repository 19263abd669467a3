"""Golden tests: the bytes of a fixture bundle and the flags of every subcommand.

Both were recorded before the stage table replaced the per-subcommand code, so
they show that the refactor changed no output and no flag.
"""

import dataclasses
import hashlib
import os
from pathlib import Path

from echonet.cli import build_parser, main, resolve_config
from echonet.config import PipelineConfig

FIXTURE = str(Path(__file__).parent.parent / "fixtures" / "sample_tweets.jsonl")

# sha256 of each data artifact of
# `echonet run --input fixtures/sample_tweets.jsonl --k 4 --n-topics 2 --iters 50`
FIXTURE_DIGESTS = {
    "communities_k4_standard.json": "518d3f07690d907cc3f220bde1b075cd9f7690d1eecab149ee51713892def410",
    "degree_histogram.csv": "c1b96a8e3907ca32294fbcee5309e452f2de4b0af07270279ec2d1136845314f",
    "doc_topics_community0.csv": "f864b8973817ccfb4aff84d788a45964a3312681810c464fe75078e282689b1e",
    "doc_topics_community1.csv": "c7ee67418bcabdbcfa3111c768db5770baaa1ffa64eee04a66cf9c1138e7e128",
    "filtered.jsonl": "a64c72211c6dda87f05b3dae8e1fe68b6179464786e095c58ac10ef9aeb311da",
    "ingest_stats.json": "d8e7c145037c6dee6f657709a50f5acb31f72432004ab8cfab00de3443c78785",
    "network_stats.json": "bebdc12f0678c9e978556f579093a96da19a621527bad68a3aa46e28697c1d80",
    "nodes.txt": "873038bb864b538e73e0ae08bed4e6d08419943b3ce0e037aacae241d1b757e5",
    "roles.csv": "55132d4a080cf3b32e372f207379025e1f540f7882b4dd5abe1be4e537a42051",
    "sweep_standard.csv": "43a6665632a6aaa72e45f54c6230766915de07c0ccdaf00f82ed2e27df019fe1",
    "term_frequencies.csv": "2c097b028647fb27bdc9de911598168f941999b74d0decccdcc9302e38229e4c",
    "topics_community0.json": "2b86affab86e0e7dff1284249fe4c068f50e9f30587e69d5a626794c67056374",
    "topics_community1.json": "e05b0e5609b14b91d3ac227607666f5ba45499b71db0c5a1e43c2a44880fdf01",
    "undirected_edges.csv": "268de41339fb332159d74cc6cb1a5242dfde6480392d50e97edae560598182c8",
}


def test_fixture_bundle_digests(tmp_path):
    out = tmp_path / "bundle"
    argv = ["run", "--input", FIXTURE, "--outdir", str(out),
            "--k", "4", "--n-topics", "2", "--iters", "50"]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in os.listdir(out)
        if name != "manifest.json"
    }
    assert digests == FIXTURE_DIGESTS


# flags every subcommand takes -> the PipelineConfig field each sets (None: no field)
COMMON = {"--config": None, "--outdir": "outdir", "--threads": "threads",
          "--seed": "seed", "--resume": "resume"}

SURFACE = {
    "ingest": {"--input": "input", "--keywords": "keywords",
               "--output": None, "--stats": None},
    "graph": {"--input": "input", "--tau": "tau", "--min-weight": "min_weight"},
    "communities": {"--graph": None, "--k": "k", "--rule": "rule", "--k-min": "k_min",
                    "--k-max": "k_max", "--max-cliques": "max_cliques"},
    "topics": {"--records": None, "--communities": None, "--k": "k", "--rule": "rule",
               "--n-topics": "n_topics", "--top-n": "top_n_keywords", "--alpha": "alpha",
               "--beta": "beta", "--iters": "iterations", "--per-user": "per_user_docs"},
    "profiles": {"--records": None, "--top-n": "top_n_terms", "--stoplist": None},
    "run": {"--input": "input", "--keywords": "keywords", "--tau": "tau",
            "--min-weight": "min_weight", "--k": "k", "--rule": "rule", "--k-min": "k_min",
            "--k-max": "k_max", "--max-cliques": "max_cliques", "--n-topics": "n_topics",
            "--alpha": "alpha", "--beta": "beta", "--iters": "iterations",
            "--per-user": "per_user_docs"},
    "report": {},
}

# option -> (argument, value the field takes); argument None means a bare flag
SAMPLES = {
    "--outdir": ("elsewhere", "elsewhere"),
    "--threads": ("3", 3),
    "--seed": ("7", 7),
    "--resume": (None, True),
    "--input": ("in.jsonl", "in.jsonl"),
    "--keywords": ("a,#b", ("a", "#b")),
    "--output": ("o.jsonl", None),
    "--stats": ("s.json", None),
    "--tau": ("0.7", 0.7),
    "--min-weight": ("2", 2),
    "--graph": ("g", None),
    "--k": ("5", 5),
    "--rule": ("loose", "loose"),
    "--k-min": ("4", 4),
    "--k-max": ("11", 11),
    "--max-cliques": ("77", 77),
    "--records": ("r.jsonl", None),
    "--communities": ("c.json", None),
    "--n-topics": ("3", 3),
    "--top-n": ("4", 4),
    "--alpha": ("0.3", 0.3),
    "--beta": ("0.2", 0.2),
    "--iters": ("9", 9),
    "--per-user": (None, True),
    "--stoplist": ("none", None),
}


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_subcommand_flag_sets():
    found = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in _subparsers().items()
    }
    assert found == {name: set(COMMON) | set(flags) for name, flags in SURFACE.items()}


def test_each_flag_sets_its_config_field(tmp_path):
    empty_config = tmp_path / "config.json"
    empty_config.write_text("{}")
    samples = dict(SAMPLES, **{"--config": (str(empty_config), None)})
    parser = build_parser()
    defaults = dataclasses.asdict(PipelineConfig())
    for command, flags in SURFACE.items():
        for option, field in {**COMMON, **flags}.items():
            arg, value = samples[option]
            argv = [command, option] + ([] if arg is None else [arg])
            config = dataclasses.asdict(resolve_config(parser.parse_args(argv)))
            changed = {k: v for k, v in config.items() if v != defaults[k]}
            expected = {} if field is None else {field: value}
            assert changed == expected, (command, option)


def test_profiles_stoplist_choices(tmp_path):
    filtered = tmp_path / "filtered.jsonl"
    assert main(["ingest", "--input", FIXTURE, "--output", str(filtered),
                 "--stats", str(tmp_path / "stats.json")]) == 0
    stopfile = tmp_path / "stop.txt"
    stopfile.write_text("patriot\n")

    def top_terms(stoplist, name):
        outdir = tmp_path / name
        assert main(["profiles", "--records", str(filtered), "--outdir", str(outdir),
                     "--stoplist", stoplist]) == 0
        rows = (outdir / "term_frequencies.csv").read_text().splitlines()[1:]
        return [row.split(",")[1] for row in rows]

    unfiltered = top_terms("none", "none")
    assert "and" in unfiltered and "patriot" in unfiltered
    assert top_terms("default", "default") == [t for t in unfiltered if t != "and"] + ["christian"]
    assert "patriot" not in top_terms(str(stopfile), "file")
    assert "and" in top_terms(str(stopfile), "file")
