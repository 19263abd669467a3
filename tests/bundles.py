"""The byte-identity matrix's shared pieces: the fixture's inputs and flags,
a bundle's digests, and the diff of a record against `RECORD`, the committed
one. A record holds the Python and numpy versions it was made with and, by
"input/extra" label, the BLAKE2b-256 of each data file of that `run` bundle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from datetime import datetime, timedelta, timezone
from importlib.metadata import version
from pathlib import Path

from echonet.records import CSV_COLUMNS

RECORD = Path(__file__).with_name("bundle_digests.json")
FIXTURE = Path(__file__).parent.parent / "fixtures" / "sample_tweets.jsonl"
FIXTURE_FLAGS = ["--k", "4", "--n-topics", "2", "--iters", "50"]
# each input runs with its flags alone and with each of these added
EXTRA_FLAGS = {
    "flags": [],
    "standard-k3": ["--rule", "standard", "--k", "3"],
    "k2": ["--k", "2"],
    "kmin2": ["--k-min", "2"],
    "per-user": ["--per-user"],
}
VERSIONS = {"python": platform.python_version(), "numpy": version("numpy")}


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


def fixture_inputs(workdir: Path) -> dict[str, tuple[str, list[str]]]:
    """Input name -> (path, base flags) for the fixture as JSONL, converted to
    CSV, and with each `created_at` in turn in one of six other forms that
    name the same instant; the converted files are written into `workdir`."""
    jsonl_to_csv(FIXTURE, workdir / "fixture.csv")
    rewrite_times(FIXTURE, workdir / "fixture-times.jsonl")
    return {"fixture-jsonl": (str(FIXTURE), FIXTURE_FLAGS),
            "fixture-csv": (str(workdir / "fixture.csv"), FIXTURE_FLAGS),
            "fixture-times": (str(workdir / "fixture-times.jsonl"), FIXTURE_FLAGS)}


def bundle_digests(outdir: Path) -> dict[str, str]:
    """Each data file of the bundle in `outdir` -> its BLAKE2b-256, in hex."""
    return {path.name: hashlib.blake2b(path.read_bytes(), digest_size=32).hexdigest()
            for path in sorted(outdir.iterdir()) if path.name != "manifest.json"}


def diff(record: dict, found: dict) -> list[str]:
    """Lines naming each way that the record `found` departs from `record`: a
    version that differs, and for each bundle of `found`, each file whose
    digest differs, that is missing, or that `record` does not hold."""
    problems = [f"version mismatch: {key} {found[key]} here, {record[key]} in the record"
                for key in VERSIONS if found[key] != record[key]]
    for label, files in found["bundles"].items():
        pinned = record["bundles"].get(label, {})
        for name in sorted(pinned.keys() | files.keys()):
            if name not in files:
                problems.append(f"missing: {label}/{name}")
            elif name not in pinned:
                problems.append(f"not in the record: {label}/{name}")
            elif files[name] != pinned[name]:
                problems.append(f"differs: {label}/{name}")
    return problems
