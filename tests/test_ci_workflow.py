"""Offline guard for the CI workflow: every step calls something that exists.

Only GitHub Actions runs ``.github/workflows/ci.yml``, so a broken module
name, script path, subcommand, spec or gate program there shows up only
after a push -- or never, if the file stops being valid YAML.  This test
loads the workflow with PyYAML and checks every ``run`` step without
running any job:

* every ``python -m <module>`` resolves;
* every ``*.py`` script path exists in the repository;
* every ``repro-dynamic-subgraphs <sub>`` is a registered subcommand;
* every heredoc JSON spec (``cat > spec.json <<'EOF'``) passes
  :class:`~repro.experiments.CampaignSpec` validation, cells included;
* every inline ``python - <<'EOF'`` program compiles.
"""

from __future__ import annotations

import importlib.util
import re
import textwrap
from pathlib import Path
from typing import Dict, List

import pytest

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
_SUBCOMMAND = re.compile(r"\brepro-dynamic-subgraphs\s+(\S+)")


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
            for sub in _SUBCOMMAND.findall(commands):
                if sub.startswith("-"):
                    continue  # a single run's flags, not a subcommand
                found["subcommands"].append(sub)
                if sub not in SUBCOMMANDS:
                    problems.append(f"{where}: {sub!r} is not a registered subcommand")
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
                '{"engine_mode": "sparse"},\n',
                '{"engine_mode": "sparse"},\n                {"engine_mode": "columnar"},\n',
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
