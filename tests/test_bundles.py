"""The digest diff of `bundles`: each departure from a record is named by
bundle and file, and another version is never a pass."""

import pytest

from bundles import VERSIONS, bundle_digests, diff


def write_bundle(outdir):
    outdir.mkdir()
    (outdir / "nodes.txt").write_bytes(b"a\nb\n")
    (outdir / "roles.csv").write_bytes(b"label,count\nmixed,2\n")
    (outdir / "manifest.json").write_bytes(b"{}")


def found(outdir):
    return {**VERSIONS, "bundles": {"fixture-jsonl/flags": bundle_digests(outdir)}}


@pytest.mark.parametrize(("damage", "lines"), [
    (lambda out: (out / "roles.csv").write_bytes(b"label,count\nmixed,3\n"),
     ["differs: fixture-jsonl/flags/roles.csv"]),
    (lambda out: (out / "nodes.txt").unlink(), ["missing: fixture-jsonl/flags/nodes.txt"]),
    (lambda out: (out / "extra.csv").write_bytes(b""),
     ["not in the record: fixture-jsonl/flags/extra.csv"]),
    (lambda out: (out / "manifest.json").write_bytes(b'{"seconds": 1}'), []),
], ids=["one-byte", "missing", "extra", "manifest"])
def test_diff_names_each_data_file_that_departs_from_the_record(tmp_path, damage, lines):
    out = tmp_path / "bundle"
    write_bundle(out)
    record = found(out)
    assert diff(record, found(out)) == []
    damage(out)
    assert diff(record, found(out)) == lines


def test_another_version_is_a_mismatch_even_with_equal_digests(tmp_path):
    out = tmp_path / "bundle"
    write_bundle(out)
    record = {**found(out), "numpy": "0.0.1"}
    assert diff(record, found(out)) == [
        f"version mismatch: numpy {VERSIONS['numpy']} here, 0.0.1 in the record"]
