"""Bundled corpus integrity: regeneration, checksums, template drift."""

import json
import shutil

import pytest

from matterbridge.errors import ValidationError
from matterbridge.fixtures import (
    FIXTURE_COUNT,
    FIXTURE_SEED,
    build_fixture_corpus,
    fixture_root,
    load_fixture_records,
    load_fixture_samples,
    regenerate_fixtures,
    verify_fixtures,
)
from matterbridge.templates import TASKS


def copy_fixture_dir(tmp_path):
    dst = tmp_path / "fixtures"
    dst.mkdir()
    for name in ("records.jsonl", "samples.jsonl", "checksums.json"):
        (dst / name).write_bytes(fixture_root().joinpath(name).read_bytes())
    return dst


class TestShippedCorpus:
    def test_pristine_checkout_verifies(self):
        report = verify_fixtures()
        assert report.ok, str(report)
        assert report.failures == []
        assert "verified" in str(report)

    def test_counts_and_coverage(self):
        records = load_fixture_records()
        samples = load_fixture_samples()
        assert len(records) == FIXTURE_COUNT
        assert len(samples) == FIXTURE_COUNT * len(TASKS)
        assert {s.task for s in samples} == set(TASKS)
        ids = {r.material_id for r in records}
        assert all(s.material_id in ids for s in samples)

    def test_regeneration_is_bit_identical(self):
        from matterbridge.datasetgen import record_to_dict, sample_to_dict
        from matterbridge.ioutil import canonical_json

        records, samples = build_fixture_corpus()
        shipped_records = load_fixture_records()
        shipped_samples = load_fixture_samples()
        assert [canonical_json(record_to_dict(r)) for r in records] == \
            [canonical_json(record_to_dict(r)) for r in shipped_records]
        assert [canonical_json(sample_to_dict(s)) for s in samples] == \
            [canonical_json(sample_to_dict(s)) for s in shipped_samples]

    def test_regenerate_writes_same_bytes(self, tmp_path):
        out = tmp_path / "rebuilt"
        regenerate_fixtures(str(out))
        for name in ("records.jsonl", "samples.jsonl", "checksums.json"):
            assert (out / name).read_bytes() == \
                fixture_root().joinpath(name).read_bytes()

    def test_seed_is_fixed(self):
        assert FIXTURE_SEED == 42


class TestTampering:
    def test_corrupted_record_line_is_located(self, tmp_path):
        dst = copy_fixture_dir(tmp_path)
        lines = (dst / "records.jsonl").read_text().splitlines(keepends=True)
        lines[4] = lines[4].replace('"', "'", 1)
        (dst / "records.jsonl").write_text("".join(lines))
        report = verify_fixtures(str(dst))
        assert not report.ok
        assert any("records.jsonl line 5" in f for f in report.failures)
        assert any("records.jsonl checksum mismatch" in f
                   for f in report.failures)

    def test_corrupted_sample_line_is_located(self, tmp_path):
        dst = copy_fixture_dir(tmp_path)
        lines = (dst / "samples.jsonl").read_text().splitlines(keepends=True)
        lines[9] = lines[9].replace("material", "materiel", 1)
        (dst / "samples.jsonl").write_text("".join(lines))
        report = verify_fixtures(str(dst))
        assert not report.ok
        assert any("samples.jsonl line 10" in f for f in report.failures)

    def test_template_drift_names_the_template(self, tmp_path):
        dst = copy_fixture_dir(tmp_path)
        sums = json.loads((dst / "checksums.json").read_text())
        sums["templates/is_metal.txt"] = "0" * 64
        (dst / "checksums.json").write_text(json.dumps(sums))
        report = verify_fixtures(str(dst))
        assert not report.ok
        assert any("is_metal.txt checksum mismatch" in f
                   for f in report.failures)

    def test_missing_file_reported(self, tmp_path):
        dst = copy_fixture_dir(tmp_path)
        (dst / "samples.jsonl").unlink()
        report = verify_fixtures(str(dst))
        assert not report.ok
        assert any("samples.jsonl is missing" in f for f in report.failures)

    def test_missing_checksums_reported(self, tmp_path):
        dst = copy_fixture_dir(tmp_path)
        (dst / "checksums.json").unlink()
        report = verify_fixtures(str(dst))
        assert not report.ok
        assert any("checksums.json is missing" in f for f in report.failures)

    @pytest.mark.parametrize("name, bad", [
        ("records.jsonl", lambda blob: b"\xff" + blob),
        ("checksums.json", lambda blob: b"\xff" + blob),
        ("checksums.json", lambda blob: b"[" + blob + b"]"),
    ])
    def test_unreadable_file_reported(self, tmp_path, name, bad):
        dst = copy_fixture_dir(tmp_path)
        (dst / name).write_bytes(bad((dst / name).read_bytes()))
        report = verify_fixtures(str(dst))
        assert not report.ok
        assert any(name in f for f in report.failures)

    def test_failure_report_is_itemized(self, tmp_path):
        dst = copy_fixture_dir(tmp_path)
        (dst / "records.jsonl").write_text("")
        report = verify_fixtures(str(dst))
        text = str(report)
        assert "FAILED" in text
        assert "  - " in text


def _with_unknown_key(line):
    return json.dumps({**json.loads(line), "note": "x"}).encode()


class TestMalformedLines:
    """The fixture loaders read lines as the JSONL loaders do: a bad line
    is a ValidationError that names it."""

    @pytest.mark.parametrize("name, load, bad", [
        ("records.jsonl", load_fixture_records, lambda line: b"{not json"),
        ("records.jsonl", load_fixture_records, lambda line: line[:-9]),
        ("samples.jsonl", load_fixture_samples, lambda line: b"[]"),
        ("samples.jsonl", load_fixture_samples, _with_unknown_key),
    ])
    def test_bad_line_is_named(self, tmp_path, name, load, bad):
        out = regenerate_fixtures(str(tmp_path / "fixtures"))
        path = tmp_path / "fixtures" / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = bad(lines[2])
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValidationError, match="line 3"):
            load(out)
        report = verify_fixtures(out)
        assert any("failed to parse" in f and "line 3" in f
                   for f in report.failures)
