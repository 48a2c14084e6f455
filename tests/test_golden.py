"""The default CLI output stays byte-identical to the recorded golden hashes."""

import json

import pytest

from make_golden import CASES, GOLDEN, run_case

RECORDED = json.loads(GOLDEN.read_text())


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name, tmp_path):
    code, digest = run_case(CASES[name], tmp_path)
    assert {"exit": code, "sha256": digest} == RECORDED[name]
