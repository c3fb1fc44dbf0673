"""Tests of the benchmark's own code.  Run: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import gate, gen, stats, trace
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS
from perfbench.trace import Span, Tracer, residual, self_times


# --------------------------------------------------------------------- #
# Percentiles
# --------------------------------------------------------------------- #
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(ValueError, match="beyond"):
        stats.percentile(list(range(19)), 50)
    assert stats.percentile(list(range(1000)), 99) == pytest.approx(989.01)
    assert stats.percentile(list(range(21)), 50) == 10


# --------------------------------------------------------------------- #
# Self times and the residual
# --------------------------------------------------------------------- #
def _span(name, parent, seconds):
    span = Span(name, parent, None)
    span.seconds = seconds
    return span


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("round", None, 10.0),  # 0
        _span("topology", 0, 3.0),  # 1
        _span("oracle", 1, 1.0),  # 2: grandchild of round
        _span("hooks", 0, 2.0),  # 3: a roll-up under round
        _span("round", None, 4.0),  # 4: a second root of the same layer
        _span("hooks", 4, 4.0),  # 5: all of it in hooks
    ]
    assert self_times(spans) == pytest.approx(
        {"round": 5.0, "topology": 2.0, "oracle": 1.0, "hooks": 6.0}
    )
    # Self times telescope to the root spans; the rest of the total is residual.
    assert sum(self_times(spans).values()) == pytest.approx(14.0)
    assert residual(16.0, spans, accounted=1.5) == pytest.approx(0.5)


def test_tracer_nests_spans_and_rolls_up_repeated_calls():
    class Node:
        def hook(self):
            return 1

    tracer = Tracer()
    trace.rolled_up(tracer, Node, "hook", "hooks")
    node = Node()

    def round_():
        return sum(node.hook() for _ in range(5))

    tracer.key = "cell-a"
    assert tracer.call("round", round_) == 5
    assert tracer.call("round", round_) == 5
    node.hook()  # outside any span: a root-level roll-up
    names = [(s.name, s.parent, s.calls, s.key) for s in tracer.spans]
    assert names == [
        ("round", None, 1, "cell-a"),
        ("hooks", 0, 5, "cell-a"),
        ("round", None, 1, "cell-a"),
        ("hooks", 2, 5, "cell-a"),
        ("hooks", None, 1, "cell-a"),
    ]
    assert tracer.calls("hooks") == 11
    times = self_times(tracer.spans)
    roots = sum(s.seconds for s in tracer.spans if s.parent is None)
    assert sum(times.values()) == pytest.approx(roots)
    assert all(value >= 0 for value in times.values())


def test_wrapped_method_is_timed_and_still_returns(tmp_path):
    class Engine:
        def step(self, x):
            return x + 1

    tracer = Tracer()
    seen = []
    trace.span(tracer, Engine, "step", "simulator.round", lambda args, result: seen.append(result))
    assert Engine().step(1) == 2
    assert seen == [2]
    assert [s.name for s in tracer.spans] == ["simulator.round"]
    tracer.dump(tmp_path / "spans.jsonl")
    record = json.loads((tmp_path / "spans.jsonl").read_text())
    assert record["name"] == "simulator.round" and record["end"] >= record["start"]


# --------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------- #
LOCAL = dict(n=200, rounds=60, ups=6, downs=3, subscriptions=100)
P2P = dict(peers=30, rounds=80, degree=3, shape=1.5, online_scale=6, offline_scale=2, subscriptions=40)


@pytest.mark.parametrize("make, params", [(gen.local_log, LOCAL), (gen.p2p_log, P2P)])
def test_generator_is_a_function_of_the_seed(make, params):
    assert make(7, **params) == make(7, **params)
    assert make(7, **params)[0] != make(8, **params)[0]


def _replay(lines):
    """Final link state of a log: the last report per edge wins."""
    state = {}
    for line in lines:
        record = json.loads(line)
        state[(record["u"], record["v"])] = record["op"] == "up"
    return {edge for edge, up in state.items() if up}


@pytest.mark.parametrize("make, params", [(gen.local_log, LOCAL), (gen.p2p_log, P2P)])
def test_generator_reports_the_final_edges_its_log_leaves(make, params):
    lines, specs, final = make(3, **params)
    assert _replay(lines) == final
    assert len(specs) == params["subscriptions"]
    assert len({spec["id"] for spec in specs}) == len(specs)


def test_local_log_rounds_carry_exact_event_counts():
    lines, _, _ = gen.local_log(5, **LOCAL)
    per_round = {}
    for line in lines:
        record = json.loads(line)
        per_round.setdefault(int(record["ts"]), []).append(record)
    assert len(per_round) == LOCAL["rounds"]
    for events in list(per_round.values())[1:]:
        assert sorted(e["op"] for e in events) == ["down"] * 3 + ["up"] * 6
        assert len({(e["u"], e["v"]) for e in events}) == len(events)


# --------------------------------------------------------------------- #
# Gates
# --------------------------------------------------------------------- #
def test_answer_gate_fails_when_one_expected_answer_is_flipped():
    truth = {"a": True, "b": False, "c": False}
    answers = {sid: (value, True, True) for sid, value in truth.items()}
    assert gate.answer_problems(answers, truth) == []
    flipped = dict(truth, b=True)
    problems = gate.answer_problems(answers, flipped)
    assert len(problems) == 1 and "subscription b" in problems[0]


def test_answer_gate_requires_settled_definite_answers():
    truth = {"a": False, "b": False}
    answers = {"a": (False, True, False), "b": (None, False, True)}
    assert len(gate.answer_problems(answers, truth)) == 2


def test_cell_gate():
    ok = {"cell_id": "c", "status": "ok", "metrics": {"check_failures": 0.0, "believes_deleted_edge": 0.0}}
    assert gate.cell_problems([ok], ["flicker_ghost"]) == []
    ghost = dict(ok, metrics={"check_failures": 0.0, "believes_deleted_edge": 1.0})
    assert gate.cell_problems([ghost], ["flicker_ghost"])
    failing = dict(ok, metrics={"check_failures": 2.0})
    assert gate.cell_problems([failing], ["triangle_oracle"])
    assert gate.cell_problems([dict(ok, status="error")], [])


def test_determinism_gate_names_the_differing_field():
    same = {"simulator.bits": 10, "fingerprints": "x"}
    assert gate.mismatches([same, dict(same)], ["rep 0", "rep 1"]) == []
    problems = gate.mismatches([same, dict(same, fingerprints="y")], ["rep 0", "rep 1"])
    assert len(problems) == 1 and problems[0].startswith("fingerprints")


# --------------------------------------------------------------------- #
# BENCHMARK.json
# --------------------------------------------------------------------- #
def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
