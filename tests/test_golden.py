"""Outputs stay bit-for-bit equal to the recorded golden digests (see golden.py)."""

import json

import pytest

from golden import CASES, TABLE, changes, versions

_TABLE = json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_every_case():
    assert sorted(_TABLE["digests"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name):
    recorded = {key: _TABLE[key] for key in versions()}
    if recorded != versions():
        pytest.skip(f"digests were recorded with {recorded}, running {versions()}")
    assert CASES[name]() == _TABLE["digests"][name]


def test_recorder_names_each_changed_added_and_dropped_case():
    old = {"kept": "a", "moved": "b", "gone": "c"}
    new = {"kept": "a", "moved": "B", "fresh": "d"}
    assert changes(old, new) == ["changed moved", "added fresh", "dropped gone"]
    assert changes(new, new) == []
