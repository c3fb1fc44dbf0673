"""The serving pipeline's exact outputs match the committed baseline.

Dense against sparse only shows that two engines agree; this pins both to
the values in ``tests/data/serving_outputs.json`` (see
``tests/serving_outputs.py``, which regenerates it).
"""

import json

import pytest

from serving_outputs import BASELINE, CASES, compute, first_difference, render


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


def test_baseline_covers_every_case(baseline):
    assert sorted(baseline["outputs"]) == sorted(CASES)
    assert sorted(baseline["fingerprints"]) == sorted(CASES)


def test_every_case_fires(baseline):
    assert all(outputs["fired"] > 0 for outputs in baseline["outputs"].values())


@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_outputs_match_baseline(baseline, mode):
    actual = compute(mode)
    diff = first_difference(baseline, actual)
    assert not diff, "{} case {} field {}: baseline {}, got {}".format(mode, *diff)
    # Byte for byte, so regenerating the file is a no-op.
    assert render(actual) == BASELINE.read_text()


def test_first_difference_names_case_and_field(baseline):
    changed = json.loads(json.dumps(baseline))
    changed["outputs"]["serving-smoke"]["fired"] += 1
    diff = first_difference(baseline, changed)
    assert diff[:2] == ["serving-smoke", "fired"]
    changed["fingerprints"]["clique-flicker"] = "0" * 40
    assert first_difference(baseline, changed)[:2] == ["clique-flicker", "state_fingerprint"]
