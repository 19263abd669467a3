"""Byte-identity check of two checkouts over a matrix of `echonet run` bundles.

    python3 scripts/ab_bytes.py PARENT_DIR CHANGE_DIR [--work DIR]

Each checkout runs `echonet run` from its own `src/` on the same inputs:

- the `retweet-scale`, `clique-sweep` and `topic-fit` workloads of
  `perfbench/workloads.py` at seed 5, with their benchmark flags;
- `fixtures/sample_tweets.jsonl` with `--k 4 --n-topics 2 --iters 50`, as
  JSONL, converted to CSV, and with each `created_at` rewritten in turn in
  one of six other forms that name the same instant (`fixture-times`): the
  fixture and the workloads write only the form `isoformat()` gives back.

Each input runs with its flags alone, then with `--rule standard --k 3`,
`--k 2`, `--k-min 2` or `--per-user` added. Every file of each pair of
bundles but `manifest.json`, which carries timings, is compared byte for
byte. The script prints each file that differs or is on one side only, and
each run that fails, and exits 1 if there is any. The inputs come from the
checkout that holds this script; the bundles go under `--work`, a temporary
directory by default.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import FLAGS, write_workload  # noqa: E402

SEED = 5
FIXTURE = ROOT / "fixtures" / "sample_tweets.jsonl"
FIXTURE_FLAGS = ["--k", "4", "--n-topics", "2", "--iters", "50"]
EXTRA_FLAGS = {
    "flags": [],
    "standard-k3": ["--rule", "standard", "--k", "3"],
    "k2": ["--k", "2"],
    "kmin2": ["--k-min", "2"],
    "per-user": ["--per-user"],
}
CSV_COLUMNS = ("tweet_id", "user_id", "created_at", "text", "retweet_of_user_id",
               "user_description", "hashtags")


def jsonl_to_csv(src: Path, dst: Path) -> None:
    """Write each JSON object line of `src` as a CSV row of `dst`, hashtags
    joined by '|'; a line that is not a JSON object is left out."""
    with open(src, encoding="utf-8", errors="surrogateescape") as fin, \
            open(dst, "w", encoding="utf-8", errors="surrogateescape", newline="") as fout:
        writer = csv.writer(fout)
        writer.writerow(CSV_COLUMNS)
        for line in fin:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if not isinstance(obj, dict):
                continue
            if isinstance(obj.get("hashtags"), list):
                obj["hashtags"] = "|".join(map(str, obj["hashtags"]))
            writer.writerow(["" if obj.get(c) is None else obj[c] for c in CSV_COLUMNS])


def time_forms(when: datetime) -> list[str]:
    """Texts of an aware instant with whole seconds, each read as that
    instant: "Z", no offset, ".000000", "-00:00", another offset, a week date."""
    utc = when.astimezone(timezone.utc).replace(tzinfo=None).isoformat()
    text = when.isoformat()
    year, week, day = when.isocalendar()
    return [utc + "Z", utc, text[:19] + ".000000" + text[19:], utc + "-00:00",
            when.astimezone(timezone(timedelta(hours=-4, minutes=-30))).isoformat(),
            f"{year:04d}-W{week:02d}-{day}{text[10:]}"]


def rewrite_times(src: Path, dst: Path) -> None:
    """Write `src` with the `created_at` of its i-th JSON object line as the
    (i mod 6)-th of `time_forms`; any other line is copied as it is."""
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        for i, line in enumerate(fin):
            try:
                obj = json.loads(line)
                when = datetime.fromisoformat(obj["created_at"])
            except (ValueError, TypeError, KeyError):
                fout.write(line)
                continue
            obj["created_at"] = time_forms(when)[i % 6]
            fout.write(json.dumps(obj).encode() + b"\n")


def make_inputs(workdir: Path) -> dict[str, tuple[str, list[str]]]:
    """Input name -> (path, base flags)."""
    inputs = {}
    for workload, flags in FLAGS.items():
        path, _ = write_workload(workload, SEED, str(workdir / "inputs" / workload))
        inputs[workload] = (path, flags)
    csv_path = workdir / "inputs" / "fixture.csv"
    jsonl_to_csv(FIXTURE, csv_path)
    inputs["fixture-jsonl"] = (str(FIXTURE), FIXTURE_FLAGS)
    inputs["fixture-csv"] = (str(csv_path), FIXTURE_FLAGS)
    times_path = workdir / "inputs" / "fixture-times.jsonl"
    rewrite_times(FIXTURE, times_path)
    inputs["fixture-times"] = (str(times_path), FIXTURE_FLAGS)
    return inputs


def run(checkout: Path, input_path: str, flags: list[str], outdir: Path) -> int:
    cmd = [sys.executable, "-c", "import sys; from echonet.cli import main; sys.exit(main())",
           "run", "--input", input_path, "--outdir", str(outdir), *flags]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{checkout}: {' '.join(cmd[3:])} exited {proc.returncode}\n{proc.stderr}")
    return proc.returncode


def compare(parent: Path, change: Path, label: str) -> tuple[int, list[str]]:
    """(files compared, lines naming each file that differs or is on one side only)."""
    names = {p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()}
    names.discard("manifest.json")
    problems = []
    for name in sorted(names):
        a, b = parent / name, change / name
        if not a.exists() or not b.exists():
            problems.append(f"only in {'change' if b.exists() else 'parent'}: {label}/{name}")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"differs: {label}/{name}")
    return len(names), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--work", type=Path, help="directory for inputs and bundles")
    args = parser.parse_args(argv)
    holder = (contextlib.nullcontext(str(args.work)) if args.work
              else tempfile.TemporaryDirectory(prefix="ab_bytes_"))
    with holder as work:
        workdir = Path(work)
        compared, problems = 0, []
        for name, (path, flags) in make_inputs(workdir).items():
            for extra_name, extra in EXTRA_FLAGS.items():
                label = f"{name}/{extra_name}"
                outdirs = {side: workdir / side / label for side in ("parent", "change")}
                codes = {side: run(getattr(args, side).resolve(), path, flags + extra,
                                   outdirs[side]) for side in outdirs}
                if any(codes.values()):
                    problems.append(f"run failed: {label} (exit codes {codes})")
                    continue
                n, found = compare(outdirs["parent"], outdirs["change"], label)
                compared += n
                problems += found
                print(f"{label}: {n} files, {len(found)} differ", flush=True)
    print("\n".join(problems))
    print(f"{compared} files compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
