"""Unit tests for the per-link bandwidth policy."""

import pytest

from repro.simulator.bandwidth import BandwidthExceededError, BandwidthPolicy
from repro.simulator.messages import Envelope, SnapshotChunkMessage, id_bits


def big_envelope(n: int) -> Envelope:
    """An envelope carrying an n-bit snapshot (always over budget)."""
    return Envelope(
        payload=SnapshotChunkMessage(
            owner=0, epoch=1, chunk_index=0, total_chunks=1, members=(), chunk_bits=n
        )
    )


class TestBudget:
    def test_budget_scales_with_log_n(self):
        policy = BandwidthPolicy(factor=8)
        assert policy.budget_bits(16) == 8 * 4
        assert policy.budget_bits(1024) == 8 * 10

    def test_silent_envelopes_are_free(self):
        policy = BandwidthPolicy()
        size = policy.charge(1, 0, 1, Envelope(), n=64)
        assert size == 0
        assert policy.total_envelopes == 0
        assert policy.total_bits == 0


class TestEnforcement:
    def test_strict_mode_raises(self):
        policy = BandwidthPolicy(factor=2, strict=True)
        with pytest.raises(BandwidthExceededError):
            policy.charge(3, 0, 1, big_envelope(1000), n=64)
        assert policy.num_violations == 1

    def test_non_strict_mode_records(self):
        policy = BandwidthPolicy(factor=2, strict=False)
        size = policy.charge(3, 0, 1, big_envelope(1000), n=64)
        assert size > policy.budget_bits(64)
        assert policy.num_violations == 1
        violation = policy.violations[0]
        assert violation.round_index == 3
        assert (violation.sender, violation.receiver) == (0, 1)
        assert violation.size_bits == size

    def test_within_budget_is_not_a_violation(self):
        policy = BandwidthPolicy(factor=8, strict=True)
        env = Envelope(is_empty=False)
        policy.charge(1, 0, 1, env, n=64)
        assert policy.num_violations == 0
        assert policy.total_envelopes == 1
        assert policy.max_observed_bits == 1

    def test_summary_contents(self):
        policy = BandwidthPolicy(factor=4, strict=False)
        policy.charge(1, 0, 1, Envelope(is_empty=False), n=32)
        summary = policy.summary(32)
        assert summary["budget_bits"] == 4 * id_bits(32)
        assert summary["total_envelopes"] == 1
        assert summary["violations"] == 0


class TestFactorValidation:
    @pytest.mark.parametrize("factor", [0, -2, 0.0, True, "8", float("nan")])
    def test_non_positive_or_non_numeric_factor_rejected(self, factor):
        with pytest.raises(ValueError, match="bandwidth_factor must be a positive number"):
            BandwidthPolicy(factor=factor)

    def test_fractional_factor_accepted(self):
        assert BandwidthPolicy(factor=0.5).budget_bits(64) == 0.5 * id_bits(64)


class TestChargeRows:
    """Bulk charging must leave the policy exactly where per-row charging would."""

    ROWS = [(0, 1, 3), (1, 2, 40), (2, 0, 1), (3, 1, 40)]

    def _per_row(self, policy, n):
        for sender, receiver, size in self.ROWS:
            policy.charge_bits(7, sender, receiver, size, n)
        return policy

    def _bulk(self, policy, n):
        bits = sum(size for _, _, size in self.ROWS)
        largest = max(size for _, _, size in self.ROWS)
        policy.charge_rows(7, n, len(self.ROWS), bits, largest, iter(self.ROWS))
        return policy

    @staticmethod
    def _state(policy):
        return (
            policy.total_envelopes,
            policy.total_bits,
            policy.max_observed_bits,
            policy.violations,
        )

    def test_fast_path_when_every_row_fits(self):
        bulk = self._bulk(BandwidthPolicy(factor=8, strict=True), n=64)
        assert self._state(bulk) == self._state(self._per_row(BandwidthPolicy(factor=8), 64))
        assert not bulk.violations

    def test_over_budget_rows_recorded_in_send_order(self):
        bulk = self._bulk(BandwidthPolicy(factor=2, strict=False), n=64)
        per_row = self._per_row(BandwidthPolicy(factor=2, strict=False), 64)
        assert self._state(bulk) == self._state(per_row)
        assert [(v.sender, v.receiver) for v in bulk.violations] == [(1, 2), (3, 1)]

    def test_strict_raises_on_first_over_budget_row(self):
        policy = BandwidthPolicy(factor=2, strict=True)
        with pytest.raises(BandwidthExceededError, match="envelope 1->2 uses 40 bits"):
            self._bulk(policy, n=64)
        assert policy.total_envelopes == 2
