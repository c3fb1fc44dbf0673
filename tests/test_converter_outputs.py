"""The link-log converter's exact outputs match the committed baseline.

``tests/data/converter_outputs.json`` holds the converted rounds, stats and
error messages of the cases in ``tests/converter_outputs.py``, which
regenerates it.
"""

import json

import pytest

from converter_outputs import BASELINE, CASES, ERRORS, compute, first_difference, render


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


def test_baseline_covers_every_case(baseline):
    assert sorted(baseline["outputs"]) == sorted(CASES)
    assert sorted(baseline["errors"]) == sorted(ERRORS)


def test_outputs_match_baseline(baseline):
    actual = compute()
    diff = first_difference(baseline, actual)
    assert not diff, "case {} field {}: baseline {}, got {}".format(*diff)
    # Byte for byte, so regenerating the file is a no-op.
    assert render(actual) == BASELINE.read_text()


def test_first_difference_names_case_and_field(baseline):
    changed = json.loads(json.dumps(baseline))
    changed["outputs"]["example"]["events"] += 1
    assert first_difference(baseline, changed) == ["example", "events", "17", "18"]
    changed["errors"]["bad-op"] = "line 3: something else"
    assert first_difference(baseline, changed)[:2] == ["bad-op", "error"]
