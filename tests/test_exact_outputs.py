"""The round loop's exact outputs match the committed baseline.

Dense against sparse only shows that two schedules of one loop agree; this
pins both to the values in ``tests/data/exact_outputs.json`` (see
``tests/exact_outputs.py``, which regenerates it).
"""

import json

import pytest

from exact_outputs import BASELINE, CELLS, compute, first_difference, render


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


def test_baseline_covers_the_grid(baseline):
    assert sorted(baseline["outputs"]) == sorted(CELLS)
    assert sorted(baseline["fingerprints"]) == sorted(CELLS)


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_outputs_match_baseline(baseline, mode):
    actual = compute(mode)
    diff = first_difference(baseline, actual)
    assert not diff, "{} cell {} field {}: baseline {}, got {}".format(mode, *diff)
    # Byte for byte, so regenerating the file is a no-op.
    assert render(actual) == BASELINE.read_text()


def test_first_difference_names_cell_and_field(baseline):
    changed = json.loads(json.dumps(baseline))
    changed["outputs"]["triangle-churn"]["bits"] += 1
    assert first_difference(baseline, changed) == ["triangle-churn", "bits", "5849", "5850"]
    changed["fingerprints"]["null-churn"] = "0" * 40
    assert first_difference(baseline, changed)[:2] == ["null-churn", "state_fingerprint"]
    del changed["outputs"]["clique-churn"]
    diff = first_difference(baseline, changed)
    assert (diff[0], diff[3]) == ("clique-churn", "None")
