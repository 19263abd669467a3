"""Golden tests: the bytes of the fixture's bundles and the flags of every subcommand.

`tests/bundle_digests.json` pins each data file of each `run` bundle of
`scripts/ab_bytes.py`'s matrix, and the Python and numpy versions; the
fixture's 15 bundles run here. Re-record after an artifact changes on
purpose, or at the parent commit for another version: run `python3
scripts/ab_bytes.py --work DIR` and copy `DIR/bundle_digests.json` over it.
"""

import dataclasses
import json

import pytest

from bundles import EXTRA_FLAGS, FIXTURE, RECORD, VERSIONS, bundle_digests, diff, fixture_inputs
from echonet.cli import build_parser, main, resolve_config
from echonet.config import PipelineConfig


@pytest.mark.parametrize("name", ["fixture-jsonl", "fixture-csv", "fixture-times"])
@pytest.mark.parametrize("extra", EXTRA_FLAGS)
def test_fixture_bundle_digests(tmp_path, name, extra):
    path, flags = fixture_inputs(tmp_path)[name]
    out = tmp_path / "bundle"
    assert main(["run", "--input", path, "--outdir", str(out), *flags, *EXTRA_FLAGS[extra]]) == 0
    found = {**VERSIONS, "bundles": {f"{name}/{extra}": bundle_digests(out)}}
    assert diff(json.loads(RECORD.read_text()), found) == []


# flags every subcommand but report takes -> the PipelineConfig field each sets
# (None: no field)
COMMON = {"--config": None, "--outdir": "outdir", "--threads": "threads",
          "--seed": "seed", "--resume": "resume"}
# report takes only the flags that say where the bundle is
REPORT = {"--config": None, "--outdir": "outdir"}

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


def _flags(command):
    """The flags `command` takes -> the field each sets."""
    return REPORT if command == "report" else {**COMMON, **SURFACE[command]}


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_subcommand_flag_sets():
    found = {
        name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, sub in _subparsers().items()
    }
    assert found == {name: set(_flags(name)) for name in SURFACE}


def test_each_flag_sets_its_config_field(tmp_path):
    empty_config = tmp_path / "config.json"
    empty_config.write_text("{}")
    samples = dict(SAMPLES, **{"--config": (str(empty_config), None)})
    parser = build_parser()
    defaults = dataclasses.asdict(PipelineConfig())
    for command in SURFACE:
        for option, field in _flags(command).items():
            arg, value = samples[option]
            argv = [command, option] + ([] if arg is None else [arg])
            config = dataclasses.asdict(resolve_config(parser.parse_args(argv)))
            changed = {k: v for k, v in config.items() if v != defaults[k]}
            expected = {} if field is None else {field: value}
            assert changed == expected, (command, option)


def test_profiles_stoplist_choices(tmp_path):
    filtered = tmp_path / "filtered.jsonl"
    assert main(["ingest", "--input", str(FIXTURE), "--output", str(filtered),
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
