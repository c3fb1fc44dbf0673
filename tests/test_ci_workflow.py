"""Offline guard for the CI workflow: every step calls something that exists.

Only GitHub Actions runs ``.github/workflows/ci.yml``, so a broken module
name, script path, subcommand, spec or gate program there shows up only
after a push -- or never, if the file stops being valid YAML.  This test
loads the workflow with PyYAML and checks every ``run`` step without
running any job:

* every ``python -m <module>`` resolves;
* every ``*.py`` script path exists in the repository;
* every ``repro-dynamic-subgraphs <sub> ...`` names a registered
  subcommand, and its arguments parse with that subcommand's own parser,
  the way its ``*_main`` parses them (shell loop variables expanded over
  their ``for`` lists);
* every heredoc JSON spec (``cat > spec.json <<'EOF'``) passes
  :class:`~repro.experiments.CampaignSpec` validation, cells included;
* every inline ``python - <<'EOF'`` program compiles.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import shlex
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List

import pytest

from repro import cli
from repro.cli import SUBCOMMANDS
from repro.experiments import CampaignSpec

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A heredoc: the command line before ``<<'TAG'``, then the body up to TAG.
_HEREDOC = re.compile(
    r"^(?P<command>[^\n]*?)<<\s*'(?P<tag>\w+)'[^\n]*\n(?P<body>.*?)\n[ \t]*(?P=tag)[ \t]*$",
    re.M | re.S,
)
_MODULE = re.compile(r"\bpython3?\s+-m\s+([\w.]+)")
_SCRIPT = re.compile(r"\bpython3?\s+([\w./-]+\.py)\b")
_CONSOLE_SCRIPT = "repro-dynamic-subgraphs"
_LOOP = re.compile(r"\bfor\s+(\w+)\s+in\s+([^;\n]+);")

#: How each subcommand's ``*_main`` parses its arguments (``None``: the
#: single run, which has no subcommand word).
PARSERS = {
    None: (cli.build_parser, "parse_args"),
    "campaign": (cli.build_campaign_parser, "parse_args"),
    "verify": (cli.build_verify_parser, "parse_args"),
    "fuzz": (cli.build_fuzz_parser, "parse_args"),
    "telemetry": (cli.build_telemetry_parser, "parse_intermixed_args"),
    "serve": (cli.build_serve_parser, "parse_args"),
}


def invocations(script: str, commands: str) -> Iterator[List[str]]:
    """The argument list of every console-script call in ``commands``.

    A call ends at the first shell operator.  ``$var`` bound by a
    ``for var in ...;`` loop of ``script`` yields one call per loop value.
    """
    loops = {var: values.split() for var, values in _LOOP.findall(script)}
    for line in commands.splitlines():
        if _CONSOLE_SCRIPT not in line:
            continue
        lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
        lexer.whitespace_split = True
        tokens = list(lexer)
        for start in (i for i, tok in enumerate(tokens) if tok == _CONSOLE_SCRIPT):
            args: List[str] = []
            for token in tokens[start + 1:]:
                if token and all(ch in "();<>|&" for ch in token):
                    break
                args.append(token)
            calls = [args]
            for var, values in loops.items():
                if any(f"${var}" in arg for arg in args):
                    calls = [
                        [arg.replace(f"${var}", value) for arg in call]
                        for call in calls
                        for value in values
                    ]
            yield from calls


def argument_problems(args: List[str]) -> List[str]:
    """Why ``args`` would fail before the program runs (empty if sound)."""
    sub = args[0] if args and not args[0].startswith("-") else None
    if sub is not None and sub not in SUBCOMMANDS:
        return [f"{sub!r} is not a registered subcommand"]
    build, parse = PARSERS[sub]
    rest = args[1:] if sub is not None else args
    usage = io.StringIO()
    try:
        with contextlib.redirect_stderr(usage):
            getattr(build(), parse)(rest)
    except SystemExit:
        error = usage.getvalue().strip().splitlines()[-1]
        return [f"arguments {shlex.join(args)!r} do not parse: {error}"]
    return []


def check_workflow(text: str) -> Dict[str, List[str]]:
    """Everything the workflow calls, plus a ``problems`` list (empty if sound)."""
    found: Dict[str, List[str]] = {
        "problems": [],
        "modules": [],
        "scripts": [],
        "subcommands": [],
        "specs": [],
        "programs": [],
    }
    problems = found["problems"]
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        problems.append(f"invalid YAML: {exc}")
        return found
    for job_name, job in doc["jobs"].items():
        for step in job.get("steps", []):
            script = step.get("run")
            if not script:
                continue
            where = f"{job_name} / {step.get('name', script.splitlines()[0])}"
            for match in _HEREDOC.finditer(script):
                command = match.group("command")
                body = textwrap.dedent(match.group("body"))
                if "cat >" in command:
                    name = command.split("cat >", 1)[1].split()[0]
                    found["specs"].append(name)
                    try:
                        CampaignSpec.from_json(body).expand()
                    except ValueError as exc:
                        problems.append(f"{where}: spec {name} is invalid: {exc}")
                elif re.search(r"\bpython3?\s+-\s*$", command.strip() + " "):
                    found["programs"].append(where)
                    try:
                        compile(body, where, "exec")
                    except SyntaxError as exc:
                        problems.append(f"{where}: inline program does not compile: {exc}")
            # Commands outside heredoc bodies, with continuations joined.
            commands = _HEREDOC.sub(lambda m: m.group("command"), script)
            commands = commands.replace("\\\n", " ")
            for module in _MODULE.findall(commands):
                found["modules"].append(module)
                if importlib.util.find_spec(module) is None:
                    problems.append(f"{where}: module {module!r} does not resolve")
            for path in _SCRIPT.findall(commands):
                found["scripts"].append(path)
                if not (ROOT / path).is_file():
                    problems.append(f"{where}: script {path} does not exist")
            for args in invocations(script, commands):
                if args and not args[0].startswith("-"):
                    found["subcommands"].append(args[0])
                problems.extend(f"{where}: {p}" for p in argument_problems(args))
    return found


@pytest.fixture(scope="module")
def workflow_text() -> str:
    return WORKFLOW.read_text()


class TestWorkflow:
    def test_every_step_calls_something_that_exists(self, workflow_text):
        found = check_workflow(workflow_text)
        assert found["problems"] == []
        # The parser must actually have seen what the workflow holds.
        assert len(found["specs"]) == workflow_text.count("cat > ") == 6
        assert len(found["programs"]) == len(re.findall(r"python3? - <<", workflow_text))
        assert found["programs"]
        assert "pytest" in found["modules"]
        assert "perfbench/run.py" in found["scripts"]
        assert set(found["subcommands"]) == set(SUBCOMMANDS)
        # The serve loop expands to one call per engine.
        assert found["subcommands"].count("serve") == 2

    def test_every_subcommand_has_its_parser(self):
        assert set(PARSERS) - {None} == set(SUBCOMMANDS)

    @pytest.mark.parametrize(
        "old,new,problem",
        [
            pytest.param(
                "- name: Tier-1 tests\n",
                "- name: Tier-1 tests: fast\n",
                "invalid YAML",
                id="unquoted-colon-in-step-name",
            ),
            pytest.param(
                '{"engine_mode": "dense"},\n',
                '{"engine_mode": "dense"},\n                {"engine_mode": "columnar"},\n',
                "engine_mode must be one of",
                id="columnar-leg",
            ),
            pytest.param(
                "python -m pytest perfbench",
                "python -m pytestt perfbench",
                "module 'pytestt' does not resolve",
                id="unknown-module",
            ),
            pytest.param(
                "benchmarks/bench_fuzz_stress.py",
                "benchmarks/bench_fuzz_stresss.py",
                "does not exist",
                id="missing-script",
            ),
            pytest.param(
                "repro-dynamic-subgraphs verify",
                "repro-dynamic-subgraphs verifyy",
                "not a registered subcommand",
                id="unknown-subcommand",
            ),
            pytest.param(
                "--jobs 4 --out ci-campaign\n",
                "--jobz 4 --out ci-campaign\n",
                "do not parse: repro-dynamic-subgraphs campaign: error: unrecognized arguments",
                id="misspelt-flag",
            ),
            pytest.param(
                "--require-all-checks",
                "--modes dense,sparse --require-all-checks",
                "do not parse: repro-dynamic-subgraphs verify: error: "
                "unrecognized arguments: --modes dense,sparse",
                id="removed-modes-flag",
            ),
            pytest.param(
                "for mode in dense sparse; do",
                "for mode in dense sparse sharded; do",
                "argument --engine: invalid choice: 'sharded'",
                id="serve-loop-value",
            ),
            pytest.param(
                "import json, sys",
                "import json sys",
                "does not compile",
                id="broken-inline-program",
            ),
        ],
    )
    def test_planted_defect_is_reported(self, workflow_text, old, new, problem):
        assert old in workflow_text
        planted = workflow_text.replace(old, new, 1)
        problems = check_workflow(planted)["problems"]
        assert any(problem in p for p in problems), problems
