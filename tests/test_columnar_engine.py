"""Tests for the columnar batch transport and its substrate.

The sparse scheduling policy carries a population of one
:class:`ColumnarProtocol` class on the batch transport; everything else (and
the dense policy, always) sends one envelope per link.  The contract under
test: for every registered algorithm -- ported or not -- the sparse run's
RoundRecord stream, trace, bandwidth accounting, fault statistics and final
node state are bit-identical to the dense reference, with and without fault
models and with telemetry on and off, including the batch transport's error
paths (per-row bandwidth charging, strict-mode raise, bad targets).  Port
detection and the send buffer underneath are covered directly.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import FlickerTriangleAdversary
from repro.core import RobustTwoHopNode, TriangleMembershipNode
from repro.experiments import ALGORITHMS, ExperimentSpec, build_adversary
from repro.obs import TELEMETRY
from repro.simulator import (
    BandwidthExceededError,
    DynamicNetwork,
    Envelope,
    MessageTargetError,
    SendBuffer,
    SimulationRunner,
    SparseRoundEngine,
    create_engine,
)
from repro.simulator.columnar import _columnar_port, batch_port
from repro.simulator.node import NodeAlgorithm
from repro.verification import run_differential


def _fingerprint(result):
    """Everything that must match between engines, as plain data."""
    state = {}
    for v, node in result.nodes.items():
        entry = {"consistent": node.is_consistent(), "size": node.local_state_size()}
        if hasattr(node, "known_edges"):
            entry["known"] = node.known_edges()
        state[v] = entry
    return {
        "rounds": result.metrics.rounds,
        "summary": result.summary(),
        "per_node": result.metrics.per_node_inconsistent_rounds,
        "trace": result.trace.to_dict() if result.trace else None,
        "edges": result.network.edges,
        "bandwidth": (
            result.bandwidth.total_envelopes,
            result.bandwidth.total_bits,
            result.bandwidth.max_observed_bits,
            result.bandwidth.violations,
        ),
        "state": state,
    }


def _run(algorithm, adversary_name, n, rounds, seed, params, mode, **runner_kwargs):
    adversary = build_adversary(
        adversary_name, n=n, rounds=rounds, seed=seed, params=params
    )
    runner_kwargs.setdefault("strict_bandwidth", algorithm != "broadcast")
    runner = SimulationRunner(
        n=n,
        algorithm_factory=ALGORITHMS[algorithm],
        adversary=adversary,
        record_trace=True,
        engine_mode=mode,
        **runner_kwargs,
    )
    return runner.run(num_rounds=rounds)


CHURN = {"inserts_per_round": 2, "deletes_per_round": 2}

#: The registered algorithms whose sparse runs take the batch transport.
PORTED = ("triangle", "clique", "robust2hop")


class TestColumnarIdentity:
    """Dense (per-envelope) vs sparse (batch where ported) on every algorithm."""

    @pytest.mark.parametrize(
        "algorithm",
        # triangle/clique/robust2hop take the batched path; the rest exercise
        # the per-envelope transport under the same policy.
        ["triangle", "clique", "robust2hop", "robust3hop", "twohop", "naive", "cycles"],
    )
    def test_random_churn_identical(self, algorithm):
        runs = {
            mode: _run(algorithm, "churn", 24, 80, 11, dict(CHURN), mode)
            for mode in ("dense", "sparse")
        }
        ported = batch_port(runs["sparse"].nodes.values()) is not None
        assert ported == (algorithm in PORTED), algorithm
        assert _fingerprint(runs["dense"]) == _fingerprint(runs["sparse"]), algorithm

    def test_flicker_schedule_identical(self):
        for algorithm in ("naive", "triangle", "robust2hop"):
            results = {}
            for mode in ("dense", "sparse"):
                runner = SimulationRunner(
                    n=16,
                    algorithm_factory=ALGORITHMS[algorithm],
                    adversary=FlickerTriangleAdversary(),
                    record_trace=True,
                    engine_mode=mode,
                )
                results[mode] = _fingerprint(runner.run())
            assert results["dense"] == results["sparse"], algorithm

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_schedules_property(self, seed):
        rng = random.Random(seed)
        n = rng.choice([12, 20, 33])
        rounds = rng.choice([40, 70])
        adversary_name = rng.choice(["churn", "p2p", "growing"])
        params = (
            {
                "inserts_per_round": rng.randint(1, 4),
                "deletes_per_round": rng.randint(0, 3),
            }
            if adversary_name == "churn"
            else {}
        )
        algorithm = rng.choice(list(PORTED))
        dense = _fingerprint(
            _run(algorithm, adversary_name, n, rounds, seed, dict(params), "dense")
        )
        sparse = _fingerprint(
            _run(algorithm, adversary_name, n, rounds, seed, dict(params), "sparse")
        )
        assert dense == sparse

    def test_differential_harness_all_modes(self):
        spec = ExperimentSpec(
            algorithm="triangle",
            adversary="churn",
            n=12,
            rounds=30,
            seed=5,
            adversary_params=dict(CHURN),
        )
        report = run_differential(spec, auto_checks=True)
        assert report.ok, report.describe()


class TestColumnarFaultIdentity:
    """Fault statistics and drop realizations match the per-envelope transport."""

    @pytest.mark.parametrize(
        "faults,fault_params",
        [
            ("uniform_loss", {"p": 0.3}),
            ("crash", {"crash_p": 0.5, "cycle": 6, "downtime": 2}),
            ("partition", {"period": 6, "split": 2}),
            ("burst_loss", {}),
            ("regional", {}),
        ],
    )
    @pytest.mark.parametrize("algorithm", ["triangle", "robust2hop"])
    def test_fault_models_identical(self, algorithm, faults, fault_params):
        spec = ExperimentSpec(
            algorithm=algorithm,
            adversary="churn",
            n=12,
            rounds=30,
            seed=7,
            adversary_params=dict(CHURN),
            faults=faults,
            fault_params=fault_params,
        )
        report = run_differential(spec)
        assert report.ok, report.describe()


class TestColumnarTelemetry:
    """Telemetry must not perturb results, and spans must stay faithful."""

    def _run_with_telemetry(self, mode):
        TELEMETRY.enable()
        try:
            result = _run("triangle", "churn", 16, 40, 3, dict(CHURN), mode)
            fp = _fingerprint(result)
        finally:
            TELEMETRY.disable()
        return fp

    def test_telemetry_does_not_perturb(self):
        plain = _fingerprint(_run("triangle", "churn", 16, 40, 3, dict(CHURN), "sparse"))
        instrumented = self._run_with_telemetry("sparse")
        assert instrumented == plain
        assert not TELEMETRY.enabled

    def test_telemetry_identical_across_engines(self):
        assert self._run_with_telemetry("dense") == self._run_with_telemetry("sparse")


class _StrayTriangle(TriangleMembershipNode):
    """A ported triangle node that also signals one non-neighbour while busy.

    Both the per-envelope hook and the batched classmethod add the stray
    message, so the class stays ported and both transports must fail on it.
    """

    def _stray_target(self) -> int:
        return next(u for u in range(self.n) if u != self.node_id and u not in self.adj)

    def compose_messages(self, round_index):
        stray = self._stray_target() if self.Q else None
        outgoing = super().compose_messages(round_index)
        if stray is not None:
            outgoing[stray] = Envelope(payload=None, is_empty=False)
        return outgoing

    @classmethod
    def columnar_compose(cls, nodes, senders, round_index, buf):
        strays = [(v, nodes[v]._stray_target()) for v in senders if nodes[v].Q]
        super().columnar_compose(nodes, senders, round_index, buf)
        for v, target in strays:
            buf.senders.append(v)
            buf.targets.append(target)
            buf.edges.append(None)
            buf.ops.append(None)
            buf.patterns.append(None)
            buf.empty_flags.append(False)
            buf.flag_rows += 1


class TestBatchTransportErrorPaths:
    """The per-row charging fallback and the raises match the dense reference."""

    def _runner(self, algorithm, mode, strict, factory=None):
        n = 24
        return SimulationRunner(
            n=n,
            algorithm_factory=factory or ALGORITHMS[algorithm],
            adversary=build_adversary("churn", n=n, rounds=40, seed=3, params=dict(CHURN)),
            bandwidth_factor=1,
            strict_bandwidth=strict,
            engine_mode=mode,
        )

    @pytest.mark.parametrize("algorithm", ["triangle", "robust2hop"])
    def test_loose_budget_violations_identical(self, algorithm):
        """A budget below one row's size sends every round down the per-row path."""
        bandwidth = {}
        for mode in ("dense", "sparse"):
            runner = self._runner(algorithm, mode, strict=False)
            assert (runner.engine._port is not None) == (mode == "sparse")
            result = runner.run(num_rounds=40)
            bandwidth[mode] = result.bandwidth
        dense, sparse = bandwidth["dense"], bandwidth["sparse"]
        assert dense.violations, "the budget was meant to be exceeded"
        assert sparse.violations == dense.violations
        assert sparse.total_bits == dense.total_bits
        assert sparse.max_observed_bits == dense.max_observed_bits
        assert sparse.total_envelopes == dense.total_envelopes

    @pytest.mark.parametrize("algorithm", ["triangle", "robust2hop"])
    def test_strict_budget_first_error_identical(self, algorithm):
        messages = {}
        for mode in ("dense", "sparse"):
            with pytest.raises(BandwidthExceededError) as excinfo:
                self._runner(algorithm, mode, strict=True).run(num_rounds=40)
            messages[mode] = str(excinfo.value)
        assert messages["sparse"] == messages["dense"]
        assert "budget is 5 bits" in messages["dense"]

    def test_bad_target_identical(self):
        assert _columnar_port(_StrayTriangle)
        messages = {}
        for mode in ("dense", "sparse"):
            runner = SimulationRunner(
                n=24,
                algorithm_factory=_StrayTriangle,
                adversary=build_adversary("churn", n=24, rounds=20, seed=3, params=dict(CHURN)),
                engine_mode=mode,
            )
            assert (runner.engine._port is _StrayTriangle) == (mode == "sparse")
            with pytest.raises(MessageTargetError) as excinfo:
                runner.run(num_rounds=20)
            messages[mode] = str(excinfo.value)
        assert messages["sparse"] == messages["dense"]
        assert "addressed non-neighbor" in messages["dense"]


class TestColumnarFallbackDetection:
    def test_unported_subclass_falls_back(self):
        """Overriding on_messages below the port owner disables the batched path."""

        class ShadowTriangle(TriangleMembershipNode):
            def on_messages(self, round_index, inbox):
                super().on_messages(round_index, inbox)

        assert _columnar_port(TriangleMembershipNode)
        assert _columnar_port(RobustTwoHopNode)
        assert not _columnar_port(ShadowTriangle)
        assert not _columnar_port(NodeAlgorithm)

        network = DynamicNetwork(6)
        nodes = {v: ShadowTriangle(v, 6) for v in range(6)}
        engine = SparseRoundEngine(network, nodes)
        assert engine._port is None

    def test_unported_compose_override_falls_back(self):
        class ShadowCompose(TriangleMembershipNode):
            def compose_messages(self, round_index):
                return super().compose_messages(round_index)

        assert not _columnar_port(ShadowCompose)

    def test_heterogeneous_population_falls_back(self):
        network = DynamicNetwork(6)
        nodes = {
            v: (TriangleMembershipNode if v % 2 else RobustTwoHopNode)(v, 6)
            for v in range(6)
        }
        engine = SparseRoundEngine(network, nodes)
        assert engine._port is None

    def test_ported_population_detected(self):
        network = DynamicNetwork(6)
        nodes = {v: TriangleMembershipNode(v, 6) for v in range(6)}
        engine = create_engine("sparse", network, nodes)
        assert isinstance(engine, SparseRoundEngine)
        assert engine._port is TriangleMembershipNode
        # Dense stays the per-envelope reference whatever the population.
        assert create_engine("dense", network, nodes)._port is None


class TestEngineConstructionValidation:
    """O(1)-ish validation that still names the offending ids."""

    def test_missing_node_named(self):
        network = DynamicNetwork(5)
        nodes = {v: TriangleMembershipNode(v, 5) for v in range(4)}
        with pytest.raises(ValueError, match=r"missing ids \[4\]"):
            SparseRoundEngine(network, nodes)

    def test_unexpected_node_named(self):
        network = DynamicNetwork(4)
        nodes = {v: TriangleMembershipNode(v, 4) for v in range(4)}
        nodes[9] = TriangleMembershipNode(3, 4)
        with pytest.raises(ValueError, match=r"unexpected ids \[9\]"):
            create_engine("dense", network, nodes)

    def test_negative_id_named(self):
        network = DynamicNetwork(4)
        nodes = {v: TriangleMembershipNode(v, 4) for v in range(4)}
        nodes[-1] = nodes.pop(3)
        with pytest.raises(ValueError, match=r"unexpected ids \[-1\]"):
            create_engine("sparse", network, nodes)


class TestSpecRejectsColumnar:
    def test_columnar_mode_rejected(self):
        """There is no columnar mode any more."""
        with pytest.raises(
            ValueError, match=r"engine_mode must be one of \('dense', 'sparse'\)"
        ):
            ExperimentSpec(algorithm="triangle", adversary="churn", n=8, engine_mode="columnar")


class TestSendBuffer:
    def test_row_size_bits(self):
        buf = SendBuffer()
        buf.senders += [0, 1, 2]
        buf.targets += [1, 2, 0]
        buf.edges += [(0, 1), None, (1, 2)]
        buf.ops += [None, None, None]
        buf.patterns += [None, None, None]
        buf.empty_flags += [True, False, False]
        payload_bits = 10
        assert buf.row_size_bits(0, payload_bits) == 10  # payload, empty
        assert buf.row_size_bits(1, payload_bits) == 1  # no payload, flag
        assert buf.row_size_bits(2, payload_bits) == 11  # payload + flag
        assert len(buf) == 3
        buf.clear()
        assert len(buf) == 0 and buf.payload_rows == 0

    def test_price_matches_rows(self):
        buf = SendBuffer()
        buf.senders += [0, 1, 2]
        buf.targets += [1, 2, 0]
        buf.edges += [(0, 1), None, (1, 2)]
        buf.ops += [None, None, None]
        buf.patterns += [None, None, None]
        buf.empty_flags += [True, False, False]
        buf.payload_rows, buf.flag_rows, buf.payload_flag_rows = 2, 2, 1
        bits, largest, rows = buf.price(16)  # id_bits(16) = 4 -> payload 10
        rows = list(rows)
        assert rows == [(0, 1, 10), (1, 2, 1), (2, 0, 11)]
        assert bits == sum(size for _, _, size in rows)
        assert largest == max(size for _, _, size in rows)

    def test_group_keeps_row_order_and_skips_drops(self):
        buf = SendBuffer()
        buf.senders += [0, 0, 1, 2]
        buf.targets += [1, 2, 2, 1]
        assert buf.group() == {1: [0, 3], 2: [1, 2]}
        assert buf.group(lambda s, t: s == 0) == {2: [2], 1: [3]}


class TestFuzzCorpusAcrossAllModes:
    """Every committed fuzz reproducer passes the all-modes differential."""

    def test_corpus_entries_identical_across_modes(self):
        from pathlib import Path

        from repro.fuzz.corpus import CorpusStore

        store = CorpusStore(Path(__file__).parent / "data" / "fuzz_corpus")
        entries = [e for e in store.entries() if e.expect == "pass"]
        assert entries, "committed corpus unexpectedly empty"
        for entry in entries:
            report = run_differential(entry.spec())
            assert report.ok, (entry.entry_id, report.describe())
