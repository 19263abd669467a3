"""Byte-identity check of this tree's `echonet run` bundles against the recorded digests.

    python3 scripts/ab_bytes.py [--work DIR]

The inputs: the `retweet-scale`, `clique-sweep` and `topic-fit` workloads of
`perfbench/workloads.py` at seed 5, with their benchmark flags; the
`retweet-scale` corpus as CSV (`retweet-scale-csv`), and with escapes in
every third line (`retweet-scale-escaped`, see `escape_lines`), so that the
CSV reader and lines written through `_encode` run at scale; and the
fixture's three inputs of `tests/bundles.py` with `--k 4 --n-topics 2
--iters 50`. Each runs from this tree's `src/` with its flags alone and with
each other set of `EXTRA_FLAGS`: 40 `run` bundles. The BLAKE2b-256 of each
of their data files is compared with `tests/bundle_digests.json`, the record.

Within the tree, each input's `stages` bundle, and `topic-fit`'s `threads2`
bundle, must equal its `run` bundle of the flags alone, file by file.
`stages` runs the stage subcommands in order into one outdir, each given the
flags it takes, so that each stage reads back what the one before it wrote;
`threads2` adds `--threads 2`, so that the topic fits run in a worker pool.

The script prints each file that differs, is missing or is not in the
record, and each run that fails, and exits 1 if there is any. A Python or
numpy version other than the record's is a version mismatch, exit 3, never
a pass: the workload generators draw from `random.Random`, whose streams
CPython does not promise across versions. Re-record at the parent commit.

The inputs and bundles go under `--work`, a temporary directory by default,
and this tree's own record goes to `--work`/bundle_digests.json. To
re-record, say after an artifact changed on purpose, run with `--work DIR`
and copy `DIR/bundle_digests.json` over `tests/bundle_digests.json`.
`scripts/paper_scale.py` imports `run` and `compare` to compare two checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / name) for name in ("perfbench", "tests", "src")]

from bundles import (EXTRA_FLAGS, RECORD, VERSIONS, bundle_digests, diff,  # noqa: E402
                     fixture_inputs, jsonl_to_csv)
from workloads import FLAGS, write_workload  # noqa: E402
from echonet.cli import FIELD_FLAGS, RUN_FIELDS  # noqa: E402
from echonet.pipeline import TABLE  # noqa: E402

SEED = 5
# the flags of `run` that each stage subcommand takes, in stage order
STAGE_FLAGS = {
    name: {FIELD_FLAGS[f][0] for f in stage.fields if f in RUN_FIELDS}
    for name, stage in TABLE.items()
}


def escape_lines(src: Path, dst: Path) -> None:
    """Write each JSON object line of `src` again with `ensure_ascii=True`,
    the text of every third one with " é", a quote and a tab added, so that
    the line holds escapes; any other line is copied as it is."""
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        for i, line in enumerate(fin):
            try:
                obj = json.loads(line)
            except ValueError:
                obj = None
            if not isinstance(obj, dict):
                fout.write(line)
                continue
            if i % 3 == 0 and isinstance(obj.get("text"), str):
                obj["text"] += ' é"\t'
            fout.write(json.dumps(obj, ensure_ascii=True).encode() + b"\n")


def make_inputs(workdir: Path) -> dict[str, tuple[str, list[str]]]:
    """Input name -> (path, base flags)."""
    inputs = {}
    for workload, flags in FLAGS.items():
        path, _ = write_workload(workload, SEED, str(workdir / "inputs" / workload))
        inputs[workload] = (path, flags)
    scale_csv = workdir / "inputs" / "retweet-scale.csv"
    jsonl_to_csv(Path(inputs["retweet-scale"][0]), scale_csv)
    inputs["retweet-scale-csv"] = (str(scale_csv), FLAGS["retweet-scale"])
    escaped = workdir / "inputs" / "retweet-scale-escaped.jsonl"
    escape_lines(Path(inputs["retweet-scale"][0]), escaped)
    inputs["retweet-scale-escaped"] = (str(escaped), FLAGS["retweet-scale"])
    return {**inputs, **fixture_inputs(workdir / "inputs")}


def echonet(checkout: Path, argv: list[str]) -> int:
    """Run `echonet *argv` from the checkout's `src/`; print its stderr if it fails."""
    cmd = [sys.executable, "-c", "import sys; from echonet.cli import main; sys.exit(main())",
           *argv]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{checkout}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    return proc.returncode


def run(checkout: Path, input_path: str, flags: list[str], outdir: Path) -> int:
    return echonet(checkout, ["run", "--input", input_path, "--outdir", str(outdir), *flags])


def run_stages(input_path: str, flags: list[str], outdir: Path) -> int:
    """Run each stage subcommand in order into `outdir`, with the flags of
    `flags`, each of which takes one value, that it takes; the exit code of
    the first that fails, else 0."""
    for stage, takes in STAGE_FLAGS.items():
        argv = [arg for pair in zip(flags[::2], flags[1::2]) if pair[0] in takes for arg in pair]
        if stage == "ingest":
            argv += ["--input", input_path]
        code = echonet(ROOT, [stage, *argv, "--outdir", str(outdir)])
        if code:
            return code
    return 0


def compare(a_dir: Path, b_dir: Path, label: str,
            sides: tuple[str, str] = ("parent", "change")) -> tuple[int, list[str]]:
    """(data files compared, lines naming each that differs or is on one side
    only); `sides` names the two bundle directories in those lines."""
    a, b = (bundle_digests(d) if d.is_dir() else {} for d in (a_dir, b_dir))
    problems = [f"only in {sides[name in b]}: {label}/{name}"
                for name in sorted(a.keys() ^ b.keys())]
    problems += [f"differs: {label}/{name}" for name in sorted(a.keys() & b.keys())
                 if a[name] != b[name]]
    return len(a.keys() | b.keys()), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", type=Path,
                        help="directory for the inputs, the bundles and this tree's record")
    args = parser.parse_args(argv)
    holder = (contextlib.nullcontext(str(args.work)) if args.work
              else tempfile.TemporaryDirectory(prefix="ab_bytes_"))
    found = {**VERSIONS, "bundles": {}}
    problems = []
    with holder as work:
        workdir = Path(work)
        for name, (path, flags) in make_inputs(workdir).items():
            extras = dict(EXTRA_FLAGS, stages=None)  # None: the stage subcommands in order
            if name == "topic-fit":
                extras["threads2"] = ["--threads", "2"]
            for kind, extra in extras.items():
                label = f"{name}/{kind}"
                outdir = workdir / label
                if (run_stages(path, flags, outdir) if extra is None
                        else run(ROOT, path, flags + extra, outdir)):
                    problems.append(f"run failed: {label}")
                elif kind in EXTRA_FLAGS:
                    found["bundles"][label] = bundle_digests(outdir)
                    print(f"{label}: {len(found['bundles'][label])} files", flush=True)
                else:  # must equal the bundle of the flags alone
                    n, differ = compare(workdir / name / "flags", outdir, label, ("run", kind))
                    problems += differ
                    print(f"{label}: {n} files, {len(differ)} differ from {name}/flags", flush=True)
        (workdir / "bundle_digests.json").write_text(
            json.dumps(found, indent=1, sort_keys=True) + "\n")
    record = json.loads(RECORD.read_text())
    problems += diff(record, found)
    print("\n".join(problems))
    files = sum(map(len, found["bundles"].values()))
    print(f"{files} files checked against {RECORD.name}, {len(problems)} problems")
    return 3 if any(record[key] != found[key] for key in VERSIONS) else 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
