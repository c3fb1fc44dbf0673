"""Corpus store behavior plus the committed-corpus permanent regressions."""

import json
from pathlib import Path

import pytest

from repro.fuzz.corpus import CorpusEntry, CorpusStore
from repro.fuzz.injected import inject_bug
from repro.fuzz.signature import FailureSignature
from repro.obs.sink import read_jsonl

COMMITTED_CORPUS = Path(__file__).parent / "data" / "fuzz_corpus"

GHOST_SIGNATURE = FailureSignature(
    checks=(
        ("no_ghost_triangles", "known_triangles"),
        ("triangle_oracle", "known_triangles"),
    )
)

#: The ghost-delete reproducer the shrinker minimizes the injected triangle
#: bug to (triangle then far-edge delete; the far edge has odd endpoint sum).
GHOST_TRACE = {
    "n": 8,
    "rounds": [
        {"insert": [[0, 6], [0, 7], [6, 7]], "delete": []},
        {"insert": [], "delete": [[0, 7]]},
    ],
}


def ghost_entry(expect: str = "fail") -> CorpusEntry:
    return CorpusEntry(
        algorithm="triangle",
        n=8,
        trace=json.loads(json.dumps(GHOST_TRACE)),
        signature=GHOST_SIGNATURE,
        expect=expect,
    )


class TestCorpusEntry:
    def test_round_trip(self):
        entry = ghost_entry()
        clone = CorpusEntry.from_dict(entry.to_dict())
        assert clone.entry_id == entry.entry_id
        assert clone.signature == entry.signature
        assert clone.spec().cell_id == entry.spec().cell_id

    def test_older_entries_with_modes_still_load(self):
        data = ghost_entry().to_dict()
        assert "modes" not in data
        clone = CorpusEntry.from_dict({**data, "modes": ["dense", "sparse", "sharded"]})
        assert clone.to_dict() == data

    def test_entry_id_is_content_addressed(self):
        a, b = ghost_entry(), ghost_entry()
        assert a.entry_id == b.entry_id
        b.trace["rounds"].append({"insert": [], "delete": []})
        assert a.entry_id != b.entry_id

    def test_rejects_unknown_expect(self):
        with pytest.raises(ValueError, match="expect"):
            ghost_entry(expect="maybe")

    def test_spec_is_a_valid_scripted_cell(self):
        spec = ghost_entry().spec()
        assert spec.adversary == "scripted"
        assert spec.rounds is None and spec.drain


class TestFaultCarryingEntries:
    """Reproducers found under a fault plan stay self-contained on replay."""

    def fault_entry(self) -> CorpusEntry:
        entry = ghost_entry("pass")
        entry.faults = "crash"
        entry.fault_params = {"crash_p": 0.5, "cycle": 6, "downtime": 2}
        entry.seed = 1234
        return entry

    def test_fault_fields_round_trip(self):
        entry = self.fault_entry()
        clone = CorpusEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
        assert clone.entry_id == entry.entry_id
        assert (clone.faults, clone.fault_params, clone.seed) == (
            "crash",
            {"crash_p": 0.5, "cycle": 6, "downtime": 2},
            1234,
        )
        spec = clone.spec()
        assert spec.faults == "crash" and spec.seed == 1234

    def test_fault_tag_is_part_of_the_identity(self):
        plain, faulted = ghost_entry("pass"), self.fault_entry()
        assert plain.entry_id != faulted.entry_id
        different_seed = self.fault_entry()
        different_seed.seed = 5678
        assert different_seed.entry_id != faulted.entry_id

    def test_fault_free_serialization_is_unchanged(self):
        # Entries recorded before fault support must keep byte-identical
        # JSONL lines and ids: no faults/fault_params/seed keys sneak in.
        data = ghost_entry("pass").to_dict()
        assert {"faults", "fault_params", "seed"}.isdisjoint(data)


class TestCorpusStore:
    def test_add_and_dedupe(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        assert store.add(ghost_entry()) is True
        assert store.add(ghost_entry()) is False
        assert len(store.entries()) == 1

    def test_empty_store(self, tmp_path):
        store = CorpusStore(tmp_path / "nothing")
        assert store.entries() == []
        assert store.replay_all() == []

    def test_torn_lines_are_skipped(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.add(ghost_entry())
        with store.corpus_path.open("a") as handle:
            handle.write('{"algorithm": "tri')  # torn append
        assert len(store.entries()) == 1

    def test_invalid_hand_edits_raise_instead_of_vanishing(self, tmp_path):
        # A line that parses but is not a valid entry is a botched hand-edit
        # (e.g. a typo while flipping expect to "pass"); silently skipping it
        # would remove a regression guard from the replay gate.
        store = CorpusStore(tmp_path / "corpus")
        store.add(ghost_entry())
        bad = ghost_entry().to_dict()
        bad["expect"] = "passd"
        bad["trace"]["rounds"].append({"insert": [], "delete": []})  # new id
        with store.corpus_path.open("a") as handle:
            handle.write(json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match="invalid corpus entry"):
            CorpusStore(tmp_path / "corpus").entries()


class TestReplaySemantics:
    def test_expect_fail_reproduces_on_the_injected_build(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.add(ghost_entry("fail"))
        restore = inject_bug("triangle_ghost_deletes")
        try:
            outcomes = store.replay_all()
        finally:
            restore()
        assert len(outcomes) == 1 and outcomes[0].ok
        assert "still reproduces" in outcomes[0].detail

    def test_expect_fail_flags_staleness_on_the_fixed_build(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.add(ghost_entry("fail"))
        (outcome,) = store.replay_all()
        assert not outcome.ok
        assert "stopped failing-as-expected" in outcome.detail

    def test_expect_pass_guards_against_regressions(self, tmp_path):
        store = CorpusStore(tmp_path / "corpus")
        store.add(ghost_entry("pass"))
        (outcome,) = store.replay_all()
        assert outcome.ok, outcome.detail
        restore = inject_bug("triangle_ghost_deletes")
        try:
            (regressed,) = store.replay_all()
        finally:
            restore()
        assert not regressed.ok
        assert "regression" in regressed.detail


class TestCommittedCorpus:
    """The permanent regressions: every minimized reproducer replays green."""

    def test_corpus_is_committed_and_minimal(self):
        store = CorpusStore(COMMITTED_CORPUS)
        entries = store.entries()
        assert len(entries) >= 5
        for entry in entries:
            assert entry.expect == "pass", (
                f"{entry.entry_id}: open bugs must not be committed as expect=fail"
            )
            assert entry.num_rounds <= 10, (
                f"{entry.entry_id}: committed reproducers must stay one-screen "
                f"({entry.num_rounds} rounds)"
            )

    def test_committed_entry_ids_are_stable(self):
        # entry_id is recomputed from the trace, algorithm and fault fields;
        # it must match the id stored on every committed line.
        for _, data in read_jsonl(COMMITTED_CORPUS / CorpusStore.CORPUS_FILE):
            assert CorpusEntry.from_dict(data).entry_id == data["entry_id"]

    def test_corpus_replays_green(self):
        store = CorpusStore(COMMITTED_CORPUS)
        outcomes = store.replay_all()  # dense and sparse
        bad = [o.describe() for o in outcomes if not o.ok]
        assert not bad, "\n".join(bad)

    def test_corpus_with_modes_keys_still_replays_green(self, tmp_path):
        # Corpora written before the engine-mode selector was removed carry a
        # modes key on every line; they load and replay on dense and sparse.
        lines = [
            json.dumps({**data, "modes": ["dense", "sparse", "sharded"]})
            for _, data in read_jsonl(COMMITTED_CORPUS / CorpusStore.CORPUS_FILE)
        ]
        (tmp_path / CorpusStore.CORPUS_FILE).write_text("\n".join(lines) + "\n")
        store = CorpusStore(tmp_path)
        assert [e.entry_id for e in store.entries()] == [
            e.entry_id for e in CorpusStore(COMMITTED_CORPUS).entries()
        ]
        bad = [o.describe() for o in store.replay_all() if not o.ok]
        assert not bad, "\n".join(bad)

    def test_corpus_carries_a_fault_reproducer(self):
        # The fault work's satellite: at least one committed reproducer runs
        # under a fault plan, so the fault machinery itself stays inside the
        # permanent replay gate.
        store = CorpusStore(COMMITTED_CORPUS)
        faulted = [e for e in store.entries() if e.faults != "none"]
        assert faulted, "no fault-carrying reproducer committed"
        assert any(e.spec().faults != "none" for e in faulted)

    def test_corpus_replay_is_deterministic(self):
        # Two replays of the same entry observe identical signatures -- the
        # minimized traces replay deterministically on every engine.
        store = CorpusStore(COMMITTED_CORPUS)
        entry = store.entries()[0]
        first = store.replay(entry)
        second = store.replay(entry)
        assert first.observed == second.observed
        assert first.ok and second.ok
