"""Shared I/O helpers: atomic replacement of written files."""

import os

import pytest

from matterbridge.ioutil import write_jsonl


def test_failed_write_leaves_previous_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"a": 1}])
    before = path.read_bytes()

    def rows():
        yield {"a": 2}
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        write_jsonl(path, rows())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["rows.jsonl"]
    write_jsonl(path, [{"a": 2}, {"b": [1, 2]}])
    assert path.read_bytes() == b'{"a":2}\n{"b":[1,2]}\n'
