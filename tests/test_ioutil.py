"""Shared I/O helpers: atomic replacement of written files, and the one
decoder from JSON objects to typed dataclass fields."""

import os
from dataclasses import dataclass
from typing import Optional

import pytest

from matterbridge.errors import ValidationError
from matterbridge.ioutil import fields_from_json, write_jsonl


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


@dataclass
class _Row:
    name: str
    count: int
    flag: bool
    value: float
    extra: dict
    target: Optional[float] = None


_GOOD_ROW = {"name": "a", "count": 2, "flag": False, "value": 0.5,
             "extra": {}}

# name -> a JSON object that _Row's decoding rejects
BAD_ROWS = {
    "not-an-object": [_GOOD_ROW],
    "unknown-key": {**_GOOD_ROW, "other": 1},
    "missing-key": {k: v for k, v in _GOOD_ROW.items() if k != "count"},
    "bool-for-int": {**_GOOD_ROW, "count": True},
    "float-for-int": {**_GOOD_ROW, "count": 2.0},
    "int-for-bool": {**_GOOD_ROW, "flag": 0},
    "int-for-str": {**_GOOD_ROW, "name": 5},
    "bool-for-float": {**_GOOD_ROW, "value": True},
    "str-for-float": {**_GOOD_ROW, "value": "0.5"},
    "nan": {**_GOOD_ROW, "value": float("nan")},
    "inf": {**_GOOD_ROW, "value": float("inf")},
    "optional-nan": {**_GOOD_ROW, "target": float("-inf")},
    "int-past-float64": {**_GOOD_ROW, "value": 2 ** 1100},
    "null-for-float": {**_GOOD_ROW, "value": None},
    "null-for-str": {**_GOOD_ROW, "name": None},
    "list-for-dict": {**_GOOD_ROW, "extra": []},
}


class TestFieldsFromJson:
    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_rejected(self, case):
        with pytest.raises(ValidationError):
            fields_from_json(_Row, BAD_ROWS[case])

    def test_exact_types_pass_through(self):
        row = _Row(**fields_from_json(_Row, _GOOD_ROW))
        assert row == _Row("a", 2, False, 0.5, {})

    def test_ints_become_floats(self):
        fields = fields_from_json(_Row, {**_GOOD_ROW, "value": 3,
                                         "target": -2 ** 60})
        assert type(fields["value"]) is float and fields["value"] == 3.0
        assert type(fields["target"]) is float
        assert fields["target"] == float(-2 ** 60)

    def test_null_only_for_optional(self):
        assert fields_from_json(_Row, {**_GOOD_ROW, "target": None})[
            "target"] is None

    def test_decoder_replaces_the_type_rule(self):
        for value in ([1, 2], {"a": 1}):
            fields = fields_from_json(_Row, {**_GOOD_ROW, "extra": value},
                                      extra=lambda v: ("decoded", v))
            assert fields["extra"] == ("decoded", value)

    def test_message_names_the_field(self):
        with pytest.raises(ValidationError,
                           match="count must be int, not bool"):
            fields_from_json(_Row, {**_GOOD_ROW, "count": True})
        with pytest.raises(ValidationError,
                           match=r"unknown _Row keys: \['x'\]"):
            fields_from_json(_Row, {**_GOOD_ROW, "x": 1})
