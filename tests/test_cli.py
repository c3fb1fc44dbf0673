"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import (
    ALGORITHMS,
    build_campaign_parser,
    build_parser,
    build_verify_parser,
    main,
)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.algorithm == "triangle"
        assert args.adversary == "churn"
        assert args.nodes == 30

    def test_algorithm_choices_cover_core(self):
        assert {"triangle", "clique", "robust2hop", "robust3hop", "cycles", "twohop", "naive"} <= set(
            ALGORITHMS
        )

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--algorithm", "magic"])


class TestMain:
    def test_churn_run_prints_metrics(self, capsys):
        code = main(["--algorithm", "triangle", "--nodes", "12", "--rounds", "40", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "amortized_round_complexity" in out
        assert "total_changes" in out

    def test_p2p_adversary(self, capsys):
        code = main(["--algorithm", "clique", "--adversary", "p2p", "--nodes", "12", "--rounds", "30"])
        assert code == 0
        assert "amortized_round_complexity" in capsys.readouterr().out

    def test_batch_adversary_with_naive_baseline(self, capsys):
        code = main(
            [
                "--algorithm",
                "naive",
                "--adversary",
                "batch",
                "--nodes",
                "10",
                "--rounds",
                "10",
                "--loose-bandwidth",
            ]
        )
        assert code == 0

    def test_theorem2_adversary(self, capsys):
        code = main(
            [
                "--algorithm",
                "twohop",
                "--adversary",
                "theorem2",
                "--nodes",
                "10",
                "--rounds",
                "200",
                "--pattern",
                "P3",
            ]
        )
        assert code == 0
        assert "inconsistent_rounds" in capsys.readouterr().out


class TestNewAdversaries:
    """Every implemented adversary is reachable from the command line."""

    def test_adversary_choices_cover_all_implemented(self):
        from repro.experiments import ADVERSARIES

        action = next(
            a for a in build_parser()._actions if getattr(a, "dest", "") == "adversary"
        )
        assert set(action.choices) == set(ADVERSARIES)
        assert {"flicker", "threepath", "theorem4", "scripted"} <= set(action.choices)

    def test_flicker_adversary(self, capsys):
        code = main(["--algorithm", "triangle", "--adversary", "flicker", "--nodes", "12", "--rounds", "60"])
        assert code == 0
        assert "amortized_round_complexity" in capsys.readouterr().out

    def test_threepath_adversary(self, capsys):
        code = main(["--algorithm", "null", "--adversary", "threepath", "--nodes", "16", "--rounds", "40"])
        assert code == 0

    def test_scripted_requires_trace(self):
        with pytest.raises(SystemExit):
            main(["--adversary", "scripted", "--nodes", "10", "--rounds", "10"])

    def test_save_trace_then_replay(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        code = main(
            [
                "--algorithm", "triangle", "--adversary", "churn",
                "--nodes", "10", "--rounds", "20", "--seed", "3",
                "--save-trace", str(trace_file),
            ]
        )
        assert code == 0 and trace_file.exists()
        first = capsys.readouterr().out
        code = main(
            [
                "--algorithm", "triangle", "--adversary", "scripted",
                "--trace", str(trace_file), "--nodes", "10", "--rounds", "20",
            ]
        )
        assert code == 0
        replay = capsys.readouterr().out

        def metric(out, name):
            for line in out.splitlines():
                if line.startswith(name):
                    return line.split()[-1]
            raise AssertionError(f"{name} not in output")

        assert metric(replay, "total_changes") == metric(first, "total_changes")
        assert metric(replay, "inconsistent_rounds") == metric(first, "inconsistent_rounds")


class TestCampaignSubcommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        spec = {
            "name": "cli-smoke",
            "base": {
                "algorithm": "triangle",
                "adversary": "churn",
                "rounds": 25,
                "adversary_params": {"inserts_per_round": 3, "deletes_per_round": 2},
            },
            "grid": {"n": [10, 12]},
            "seeds": [0, 1],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_campaign_parser_defaults(self, spec_file):
        args = build_campaign_parser().parse_args(["--spec", str(spec_file)])
        assert args.jobs == 1 and not args.no_resume

    def test_list_cells(self, spec_file, capsys):
        code = main(["campaign", "--spec", str(spec_file), "--list"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 4
        assert all(line.startswith("triangle-churn-") for line in out)

    def test_run_and_resume(self, spec_file, tmp_path, capsys):
        out_dir = tmp_path / "store"
        code = main(["campaign", "--spec", str(spec_file), "--jobs", "2", "--out", str(out_dir)])
        assert code == 0
        first = capsys.readouterr().out
        assert "ran 4 cells, skipped 0" in first
        assert "mean amortized_round_complexity" in first
        assert (out_dir / "results.jsonl").exists()
        assert len(list((out_dir / "traces").glob("*.json"))) == 4

        code = main(["campaign", "--spec", str(spec_file), "--jobs", "2", "--out", str(out_dir)])
        assert code == 0
        assert "ran 0 cells, skipped 4" in capsys.readouterr().out

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(["campaign", "--spec", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_check_failures_gate_the_campaign(self, tmp_path, capsys):
        # n=25 gives the Remark 1 construction D=4 leaves with only 2
        # attached per hub -- no guaranteed overlap, so threepath_visits
        # legitimately fails; the campaign must exit nonzero on it.
        spec = {
            "name": "cli-check-gate",
            "base": {
                "algorithm": "null",
                "adversary": "threepath",
                "n": 25,
                "adversary_params": {"num_components": 2},
                "checks": ["threepath_visits"],
            },
            "grid": {},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["campaign", "--spec", str(path), "--out", str(tmp_path / "store")])
        assert code == 1
        captured = capsys.readouterr()
        assert "check failures" in captured.err
        assert "ran 1 cells" in captured.out

    def test_failing_cell_sets_exit_code(self, tmp_path, capsys):
        spec = {
            "name": "cli-fail",
            "base": {
                "algorithm": "triangle",
                "adversary": "scripted",
                "adversary_params": {"trace_path": str(tmp_path / "missing-trace.json")},
            },
            "grid": {"n": [12]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["campaign", "--spec", str(path), "--out", str(tmp_path / "store")])
        assert code == 1
        assert "1 failed" in capsys.readouterr().out


class TestChecksFlag:
    def test_named_checks_report_metrics(self, capsys):
        code = main(
            [
                "--algorithm", "triangle", "--nodes", "10", "--rounds", "25",
                "--checks", "triangle_oracle,consistent",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "triangle_matches_oracle" in out
        assert "all_consistent" in out
        assert "checks passed: triangle_oracle, consistent" in out

    def test_auto_selects_applicable_checks(self, capsys):
        code = main(
            ["--algorithm", "robust2hop", "--nodes", "10", "--rounds", "20", "--checks", "auto"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "robust2hop_matches_oracle" in out

    def test_unknown_check_is_rejected(self, capsys):
        code = main(["--nodes", "10", "--rounds", "10", "--checks", "magic"])
        assert code == 2
        assert "unknown checks" in capsys.readouterr().err

    def test_inapplicable_check_is_rejected(self, capsys):
        code = main(
            ["--algorithm", "robust2hop", "--nodes", "10", "--rounds", "10",
             "--checks", "triangle_oracle"]
        )
        assert code == 2
        assert "does not apply" in capsys.readouterr().err


class TestVerifySubcommand:
    @pytest.fixture
    def spec_file(self, tmp_path):
        spec = {
            "name": "verify-smoke",
            "base": {
                "algorithm": "triangle",
                "adversary": "churn",
                "rounds": 20,
                "adversary_params": {"inserts_per_round": 2, "deletes_per_round": 1},
            },
            "grid": {"n": [8], "engine_mode": ["dense", "sparse"]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_parser_defaults(self, spec_file):
        args = build_verify_parser().parse_args(["--spec", str(spec_file)])
        assert not args.no_coverage and not args.require_all_checks

    def test_verify_dedupes_engine_axis_and_passes(self, spec_file, capsys):
        code = main(
            ["verify", "--spec", str(spec_file), "--no-coverage"]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The two engine_mode cells normalize to one differential run.
        assert "[1/1]" in out
        assert "0 divergences, 0 check failures" in out
        assert "triangle_oracle" in out

    def test_require_all_checks_fails_without_coverage(self, spec_file, capsys):
        code = main(
            [
                "verify", "--spec", str(spec_file),
                "--no-coverage", "--require-all-checks",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "checks skipped" in captured.out
        assert "never executed" in captured.err

    def test_report_file(self, spec_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify", "--spec", str(spec_file),
                "--no-coverage", "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["modes"] == ["dense", "sparse"]
        assert report["cells"][0]["modes"] == ["dense", "sparse"]
        assert "triangle_oracle" in report["executed_checks"]

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(["verify", "--spec", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestEngineFlag:
    def test_default_engine_is_sparse(self):
        args = build_parser().parse_args([])
        assert args.engine == "sparse"

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "turbo"])

    def test_dense_and_sparse_print_identical_metrics(self, capsys):
        argv = ["--algorithm", "triangle", "--adversary", "churn", "--nodes", "14", "--rounds", "40"]
        assert main(argv + ["--engine", "dense"]) == 0
        dense_out = capsys.readouterr().out
        assert main(argv + ["--engine", "sparse"]) == 0
        sparse_out = capsys.readouterr().out
        assert dense_out == sparse_out


class TestServeSubcommand:
    def test_subscription_spec_errors_name_the_missing_field(self, tmp_path, capsys):
        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps([{"kind": "triangle", "ask": 1}]))
        code = main(["serve", "--nodes", "8", "--subscriptions", str(subs)])
        assert code == 2
        assert "error: a triangle subscription needs 'members'" in capsys.readouterr().err

    def test_malformed_subscription_spec_names_its_position(self, tmp_path, capsys):
        subs = tmp_path / "subs.json"
        subs.write_text(json.dumps([{"kind": "triangle", "members": [0, 1, 2]}, 5]))
        code = main(["serve", "--nodes", "8", "--subscriptions", str(subs)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: a subscription spec must be an object, got 5 (at subscriptions[1])" in err

    def test_non_finite_log_timestamp_names_the_line(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"ts": 0, "u": 0, "v": 1, "op": "up"}\n{"ts": NaN, "u": 1, "v": 2, "op": "up"}\n'
        )
        code = main(["serve", "--source", "log", "--log", str(log), "--nodes", "8"])
        assert code == 2
        assert "error: line 2: 'ts' must be a finite number" in capsys.readouterr().err


#: One fault per trace file (6 nodes, fault in round 2 unless the file has no
#: rounds at all) and the error it must exit 2 with.
_ROUND_1 = {"insert": [[0, 1], [1, 2]], "delete": []}
MALFORMED_TRACES = {
    "repeated_edge": (
        [_ROUND_1, {"insert": [[2, 3], [3, 2]], "delete": []}],
        "trace round 2: round batch touches edge (2, 3) more than once",
    ),
    "self_loop": (
        [_ROUND_1, {"insert": [[4, 4]], "delete": []}],
        "trace round 2: self loops are not allowed: (4, 4)",
    ),
    "one_element_edge": (
        [_ROUND_1, {"insert": [[5]], "delete": []}],
        "trace round 2: an edge is a pair of node ids, got [5]",
    ),
    "absent_deletion": (
        [_ROUND_1, {"insert": [], "delete": [[3, 4]]}],
        "trace round 2: cannot delete missing edge (3, 4)",
    ),
    "no_rounds_key": (None, "a trace needs an integer 'n' and a 'rounds' list"),
    "round_without_delete": (
        [_ROUND_1, {"insert": [[3, 4]]}],
        "trace round 2 needs an 'insert' and a 'delete' list",
    ),
    "float_node_id": (
        [_ROUND_1, {"insert": [[0, 1.9], [2.5, 3]], "delete": []}],
        "trace round 2: node identifiers must be integers, got 1.9",
    ),
    "string_node_id": (
        [_ROUND_1, {"insert": [["3", 1]], "delete": []}],
        "trace round 2: node identifiers must be integers, got '3'",
    ),
    "bool_node_id": (
        [_ROUND_1, {"insert": [], "delete": [[True, 2]]}],
        "trace round 2: node identifiers must be integers, got True",
    ),
}


class TestMalformedTraceFiles:
    """A malformed trace file is a usage error under both replay commands."""

    @pytest.mark.parametrize("fault", sorted(MALFORMED_TRACES))
    @pytest.mark.parametrize("command", ["scripted", "serve"])
    def test_exits_2_naming_the_round(self, command, fault, tmp_path, capsys):
        rounds, message = MALFORMED_TRACES[fault]
        data = {"n": 6} if rounds is None else {"n": 6, "rounds": rounds}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(data))
        if command == "scripted":
            argv = ["--adversary", "scripted", "--trace", str(path), "--nodes", "6",
                    "--algorithm", "triangle"]
        else:
            argv = ["serve", "--source", "trace", "--trace", str(path), "--nodes", "6"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestBandwidthFactorValidation:
    """A non-positive factor is a usage error on every entry point: exit 2."""

    MESSAGE = "error: bandwidth_factor must be a positive number, got"

    @pytest.mark.parametrize("factor", ["0", "-2"])
    def test_single_run(self, factor, capsys):
        code = main(["--nodes", "8", "--rounds", "5", "--bandwidth-factor", factor])
        assert code == 2
        assert f"{self.MESSAGE} {factor}" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", ["0", "-2"])
    def test_serve(self, factor, capsys):
        code = main(["serve", "--nodes", "8", "--rounds", "5", "--bandwidth-factor", factor])
        assert code == 2
        assert f"{self.MESSAGE} {factor}" in capsys.readouterr().err

    @pytest.mark.parametrize("factor", [0, -2])
    def test_campaign_spec(self, factor, tmp_path, capsys):
        spec = {
            "name": "bad-factor",
            "base": {"algorithm": "triangle", "adversary": "churn", "n": 8, "rounds": 5,
                     "bandwidth_factor": factor},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["campaign", "--spec", str(path), "--out", str(tmp_path / "store")])
        assert code == 2
        assert f"{self.MESSAGE} {factor}" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()


class TestSpecFieldTypes:
    """A wrongly typed spec field is a usage error, not a traceback: exit 2."""

    @pytest.mark.parametrize("subcommand", ["campaign", "verify"])
    def test_string_rounds_exits_2(self, subcommand, tmp_path, capsys):
        spec = {
            "name": "typed",
            "base": {"algorithm": "triangle", "adversary": "churn", "n": 8, "rounds": "3"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [subcommand, "--spec", str(path)]
        if subcommand == "campaign":
            argv += ["--out", str(tmp_path / "store")]
        assert main(argv) == 2
        assert "error: rounds must be an integer or null, got '3'" in capsys.readouterr().err


class TestRemovedInputs:
    """Inputs of the removed multi-process engine exit 2 with a clear message."""

    @pytest.mark.parametrize("subcommand", ["campaign", "verify"])
    @pytest.mark.parametrize(
        "field,value", [("engine", "sharded"), ("num_workers", 3)]
    )
    def test_removed_spec_fields_exit_2(self, subcommand, field, value, tmp_path, capsys):
        spec = {
            "name": "removed",
            "base": {"algorithm": "triangle", "adversary": "churn", "n": 8, "rounds": 3,
                     field: value},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [subcommand, "--spec", str(path)]
        if subcommand == "campaign":
            argv += ["--out", str(tmp_path / "store")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert f"got {value!r}: the multi-process engine was removed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("subcommand", ["campaign", "verify"])
    def test_removed_engine_grid_axis_exit_2(self, subcommand, tmp_path, capsys):
        spec = {
            "name": "removed-axis",
            "base": {"algorithm": "triangle", "adversary": "churn", "n": 8, "rounds": 3},
            "grid": {"engine": ["serial", "sharded"]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [subcommand, "--spec", str(path)]
        if subcommand == "campaign":
            argv += ["--out", str(tmp_path / "store")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (
            "error: engine must be 'serial', got 'sharded': "
            "the multi-process engine was removed"
        ) in err
        assert "Traceback" not in err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--spec", "spec.json", "--modes", "dense,sparse"],
            ["fuzz", "--modes", "dense,sparse"],
            ["serve", "--engine", "sharded"],
        ],
        ids=["verify-modes", "fuzz-modes", "serve-engine"],
    )
    def test_removed_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if "--modes" in argv:
            assert "unrecognized arguments: --modes dense,sparse" in err
        else:
            assert "argument --engine: invalid choice: 'sharded'" in err
