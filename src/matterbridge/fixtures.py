"""Bundled 32-material fixture corpus and its verification gate.

The fixture corpus is regenerated bit-identically from a fixed seed by
the dataset generator, so the shipped files are pure convenience plus
drift detection: verification re-derives everything, compares bytes
line by line, and checks SHA-256 sums of the corpus and of every
template file; the regeneration renders each sample from the current
templates, so a match vouches for every shipped prompt and answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from importlib import resources

from .datasetgen import (
    build_instruction_corpus,
    generate_synthetic_records,
    record_from_dict,
    record_to_dict,
    sample_from_dict,
    sample_to_dict,
)
from .errors import ValidationError
from .ioutil import atomic_write, canonical_json, json_lines, parse_jsonl
from .templates import AUXILIARY, TASKS

FIXTURE_SEED = 42
FIXTURE_COUNT = 32

RECORDS_FILE = "records.jsonl"
SAMPLES_FILE = "samples.jsonl"
CHECKSUMS_FILE = "checksums.json"


def fixture_root():
    return resources.files("matterbridge.data.fixtures")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _template_bytes(name):
    ref = resources.files("matterbridge.data.templates").joinpath(name)
    return ref.read_bytes()


def build_fixture_corpus():
    """Regenerate the fixture records and samples from the fixed seed."""
    records = generate_synthetic_records(FIXTURE_SEED, FIXTURE_COUNT)
    samples = build_instruction_corpus(records, FIXTURE_SEED)
    return records, samples


def _parse(blob, from_dict):
    return [obj for _, obj in parse_jsonl(blob.split(b"\n"), from_dict)]


def load_fixture_records(fixture_dir=None):
    return _parse(_read_bytes(fixture_dir, RECORDS_FILE), record_from_dict)


def load_fixture_samples(fixture_dir=None):
    return _parse(_read_bytes(fixture_dir, SAMPLES_FILE), sample_from_dict)


def _read_bytes(fixture_dir, name):
    if fixture_dir is None:
        return fixture_root().joinpath(name).read_bytes()
    with open(os.path.join(fixture_dir, name), "rb") as fh:
        return fh.read()


def regenerate_fixtures(fixture_dir):
    """Write the fixture corpus and checksums into a directory."""
    os.makedirs(fixture_dir, exist_ok=True)
    records, samples = build_fixture_corpus()
    blobs = {
        RECORDS_FILE: b"".join(json_lines(map(record_to_dict, records))),
        SAMPLES_FILE: b"".join(json_lines(map(sample_to_dict, samples))),
    }
    sums = {name: _sha256(blob) for name, blob in blobs.items()}
    for task in TASKS + AUXILIARY:
        name = f"{task}.txt"
        sums[f"templates/{name}"] = _sha256(_template_bytes(name))
    blobs[CHECKSUMS_FILE] = (canonical_json(sums) + "\n").encode("utf-8")
    for name, blob in blobs.items():
        with atomic_write(os.path.join(fixture_dir, name)) as fh:
            fh.write(blob)
    return fixture_dir


@dataclass
class VerifyReport:
    ok: bool = True
    failures: list = field(default_factory=list)

    def fail(self, message):
        self.ok = False
        self.failures.append(message)

    def __str__(self):
        if self.ok:
            return "fixtures verified: corpus, checksums, and templates match"
        lines = ["fixture verification FAILED:"]
        lines.extend(f"  - {f}" for f in self.failures)
        return "\n".join(lines)


def _diff_lines(report, name, shipped, regenerated):
    a = shipped.splitlines()
    b = regenerated.splitlines()
    for i, (la, lb) in enumerate(zip(a, b), start=1):
        if la != lb:
            report.fail(f"{name} line {i} differs from the seeded "
                        f"regeneration")
            return
    if len(a) != len(b):
        report.fail(f"{name} has {len(a)} lines, regeneration has {len(b)}")


def verify_fixtures(fixture_dir=None):
    """Pass/fail report on fixture integrity against seed and templates."""
    report = VerifyReport()
    try:
        sums = json.loads(_read_bytes(fixture_dir, CHECKSUMS_FILE))
    except FileNotFoundError:
        report.fail(f"{CHECKSUMS_FILE} is missing")
        return report
    except ValueError as e:
        report.fail(f"{CHECKSUMS_FILE} is not valid UTF-8 JSON: {e}")
        return report
    if type(sums) is not dict:
        report.fail(f"{CHECKSUMS_FILE} is not a JSON object")
        return report

    shipped = {}
    for name in (RECORDS_FILE, SAMPLES_FILE):
        try:
            shipped[name] = _read_bytes(fixture_dir, name)
        except FileNotFoundError:
            report.fail(f"{name} is missing")
    if not report.ok:
        return report

    for name, blob in shipped.items():
        want = sums.get(name)
        if want is None:
            report.fail(f"{CHECKSUMS_FILE} lacks an entry for {name}")
        elif _sha256(blob) != want:
            report.fail(f"{name} checksum mismatch")

    for key in sorted(sums):
        if not key.startswith("templates/"):
            continue
        name = key.split("/", 1)[1]
        try:
            got = _sha256(_template_bytes(name))
        except FileNotFoundError:
            report.fail(f"template file {name} is missing")
            continue
        if got != sums[key]:
            report.fail(f"template file {name} checksum mismatch")

    records, samples = build_fixture_corpus()
    _diff_lines(report, RECORDS_FILE, shipped[RECORDS_FILE],
                b"".join(json_lines(map(record_to_dict, records))))
    _diff_lines(report, SAMPLES_FILE, shipped[SAMPLES_FILE],
                b"".join(json_lines(map(sample_to_dict, samples))))

    try:
        _parse(shipped[RECORDS_FILE], record_from_dict)
        _parse(shipped[SAMPLES_FILE], sample_from_dict)
    except ValidationError as e:
        report.fail(f"fixture corpus failed to parse: {e}")
    return report
