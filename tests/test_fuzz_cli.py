"""The ``fuzz`` subcommand: driver loop, acceptance run, replay gating."""

import json

import pytest

from repro.cli import build_fuzz_parser, main
from repro.fuzz.corpus import CorpusStore
from repro.fuzz.driver import FuzzConfig, run_fuzz


class TestParser:
    def test_defaults(self):
        args = build_fuzz_parser().parse_args([])
        assert args.budget == 50
        assert args.seed == 0
        assert not args.shrink and not args.replay

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_fuzz_parser().parse_args(["--profile", "chaos"])

    def test_rejects_unknown_injected_bug(self):
        with pytest.raises(SystemExit):
            build_fuzz_parser().parse_args(["--inject-bug", "nope"])


class TestUsageErrors:
    def test_replay_requires_corpus(self, capsys):
        assert main(["fuzz", "--replay"]) == 2
        assert "--corpus" in capsys.readouterr().err

    def test_unknown_algorithm(self, capsys):
        assert main(["fuzz", "--algorithms", "magic"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_undersized_network(self, capsys):
        assert main(["fuzz", "--nodes", "2", "--budget", "1"]) == 2
        assert "n >= 3" in capsys.readouterr().err

    def test_replay_of_missing_corpus_is_an_error_not_a_green_gate(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", "--corpus", str(tmp_path / "nope")]) == 2
        assert "no corpus entries" in capsys.readouterr().err

    def test_replay_ignores_fuzz_only_flags(self, capsys):
        # the fuzzing knobs are documented as not applying to --replay, so
        # they must not be validated against it either
        from pathlib import Path

        corpus = Path(__file__).parent / "data" / "fuzz_corpus"
        code = main(
            [
                "fuzz", "--replay", "--corpus", str(corpus), "--nodes", "2",
            ]
        )
        assert code == 0
        assert "6 ok" in capsys.readouterr().out


class TestCleanBuild:
    def test_small_budget_runs_clean(self, capsys):
        code = main(
            [
                "fuzz", "--budget", "4", "--seed", "3", "--algorithms", "triangle",
                "--nodes", "7", "--schedule-rounds", "12",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 schedules fuzzed: 0 failing" in out

    def test_report_file(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "fuzz", "--budget", "2", "--algorithms", "triangle", "--nodes", "7",
                "--schedule-rounds", "10", "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] and report["num_cells"] == 2
        assert report["config"]["modes"] == ["dense", "sparse"]


class TestInjectedBugAcceptance:
    """The ISSUE acceptance run: ``fuzz --budget 200 --seed 7 --shrink`` on a
    seeded injected-bug build produces a minimized trace of <= 10 rounds."""

    def test_budget_200_seed_7_shrinks_to_one_screen(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "fuzz", "--budget", "200", "--seed", "7", "--shrink",
                "--corpus", str(corpus_dir), "--report", str(report_path),
                "--inject-bug", "triangle_ghost_deletes",
                "--algorithms", "triangle",
            ]
        )
        assert code == 1  # failures found
        report = json.loads(report_path.read_text())
        assert not report["ok"] and report["num_failing"] > 0
        shrunk = [f for f in report["failures"] if f["shrink"] is not None]
        assert shrunk, "at least the first failure class must be minimized"
        for failure in shrunk:
            assert failure["shrink"]["rounds_after"] <= 10
            trace = failure["reproducer"]["adversary_params"]["trace"]
            assert len(trace["rounds"]) <= 10
        # minimized reproducers were banked
        entries = CorpusStore(corpus_dir).entries()
        assert entries
        assert any(e.num_rounds <= 10 for e in entries)
        err = capsys.readouterr().err
        assert "injected bug" in err
        assert "minimized reproducer" in err

    def test_replay_gates_the_banked_corpus(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        main(
            [
                "fuzz", "--budget", "6", "--seed", "7", "--shrink",
                "--corpus", str(corpus_dir), "--inject-bug", "triangle_ghost_deletes",
                "--algorithms", "triangle",
            ]
        )
        capsys.readouterr()
        # on the injected build the expect=fail entries still reproduce: ok
        assert main(["fuzz", "--replay", "--corpus", str(corpus_dir),
                     "--inject-bug", "triangle_ghost_deletes"]) == 0
        capsys.readouterr()
        # on the fixed build they stop failing-as-expected: the gate trips
        assert main(["fuzz", "--replay", "--corpus", str(corpus_dir)]) == 1
        assert "stale" in capsys.readouterr().out


class TestDriverDedupe:
    def test_known_failure_classes_are_not_rebanked(self, tmp_path):
        from repro.fuzz.injected import inject_bug

        corpus = CorpusStore(tmp_path / "corpus")
        restore = inject_bug("triangle_ghost_deletes")
        try:
            config = FuzzConfig(budget=8, seed=7, algorithms=("triangle",))
            first = run_fuzz(config, corpus=corpus)
            banked_after_first = len(corpus.entries())
            second = run_fuzz(
                FuzzConfig(budget=8, seed=8, algorithms=("triangle",)), corpus=corpus
            )
        finally:
            restore()
        assert first.num_failing > 0 and second.num_failing > 0
        # the second session saw only already-banked classes: nothing new
        assert len(corpus.entries()) == banked_after_first
        assert all(f.corpus_id is None for f in second.failures)

    def test_fixed_classes_do_not_suppress_regressions(self, tmp_path):
        # An expect="pass" entry records a FIXED bug; if the same failure
        # class reappears, it is a regression and must be shrunk and banked
        # anew, not treated as already-known.
        from repro.fuzz.corpus import CorpusEntry
        from repro.fuzz.injected import inject_bug
        from repro.fuzz.signature import FailureSignature

        corpus = CorpusStore(tmp_path / "corpus")
        corpus.add(
            CorpusEntry(
                algorithm="triangle",
                n=3,
                trace={"n": 3, "rounds": [{"insert": [[0, 1]], "delete": []}]},
                signature=FailureSignature(
                    checks=(("no_ghost_triangles", "known_triangles"),)
                ),
                expect="pass",
            )
        )
        restore = inject_bug("triangle_ghost_deletes")
        try:
            report = run_fuzz(
                FuzzConfig(budget=8, seed=7, algorithms=("triangle",), shrink=True),
                corpus=corpus,
            )
        finally:
            restore()
        assert report.num_failing > 0
        banked = [f for f in report.failures if f.corpus_id is not None]
        assert banked and banked[0].shrink is not None

    def test_new_class_tangled_with_known_one_is_still_banked(self, tmp_path):
        # A failure mixing an already-banked class with a brand-new one must
        # be shrunk against the new part and banked -- intersection matching
        # alone would swallow the new bug forever.
        from repro.fuzz.corpus import CorpusEntry
        from repro.fuzz.injected import inject_bug
        from repro.fuzz.signature import FailureSignature

        known_pair = ("no_ghost_triangles", "known_triangles")
        corpus = CorpusStore(tmp_path / "corpus")
        corpus.add(
            CorpusEntry(
                algorithm="triangle",
                n=3,
                trace={"n": 3, "rounds": [{"insert": [[0, 1]], "delete": []}]},
                signature=FailureSignature(checks=(known_pair,)),
                expect="fail",
            )
        )
        restore = inject_bug("triangle_ghost_deletes")
        try:
            report = run_fuzz(
                FuzzConfig(budget=10, seed=7, algorithms=("triangle",), shrink=True),
                corpus=corpus,
            )
        finally:
            restore()
        fresh_entries = [
            e for e in corpus.entries() if e.signature.checks != (known_pair,)
        ]
        assert fresh_entries, "the new classes alongside the known one were dropped"
        for entry in fresh_entries:
            assert known_pair not in entry.signature.checks
        assert any(f.shrink is not None for f in report.failures)
