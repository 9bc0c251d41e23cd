"""Outputs stay bit-for-bit equal to the recorded golden digests (see golden.py)."""

import json

import pytest

from golden import CASES, TABLE, versions

_TABLE = json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_every_case():
    assert sorted(_TABLE["digests"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name):
    recorded = {key: _TABLE[key] for key in versions()}
    if recorded != versions():
        pytest.skip(f"digests were recorded with {recorded}, running {versions()}")
    assert CASES[name]() == _TABLE["digests"][name]
