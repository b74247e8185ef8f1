"""The CI workflow installs the test extra and runs the tier-1 command that ROADMAP.md names, with a time limit."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_tier1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text()).group(1)
    (job,) = workflow["jobs"].values()
    assert job["timeout-minutes"] == 30
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[-1] == tier1
    assert any("python-version" in step.get("with", {}) and step["with"]["python-version"] == "3.11"
               for step in job["steps"])
    assert 'python -m pip install -e ".[test]"' in runs


def test_test_extra_lists_hypothesis():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    extra = pyproject["project"]["optional-dependencies"]["test"]
    assert any(re.match(r"hypothesis\b", req) for req in extra)
    # the workflow test reads tier1.yml with PyYAML; without it that test is skipped
    assert any(re.match(r"pyyaml\b", req, re.IGNORECASE) for req in extra)
