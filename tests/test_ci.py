"""The CI workflow installs the test extra, runs CLI smoke commands (a Hopf, an m = 5, a refined m = 5 and a
Hopf compact_lee mass, a pointwise, an annulus and an fd-mode pointwise verify, then Hopf sweeps and a trivial-chart sweep),
summarizes every report they wrote, reruns a mass from the config its report embeds, and runs the tier-1 command
that ROADMAP.md names, with a time limit."""

import json
import os
import re
import subprocess
import sys
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
    # scipy is a test oracle only (Gauss-Jacobi roots), not a runtime dependency
    assert any(re.match(r"scipy\b", req) for req in extra)
    assert not any(re.match(r"scipy\b", req) for req in pyproject["project"]["dependencies"])


def test_workflow_smoke_runs_verify_as_module():
    """A CLI traceback fails the job: the smoke step runs ``python -m weylmass verify`` at 6/3/0 trials."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (smoke,) = [step["run"] for step in job["steps"] if step.get("name") == "CLI smoke"]
    config = json.loads(re.search(r"echo '([^']+)'", smoke).group(1))
    assert config == {"trials": {"identity": 6, "bochner": 3, "integral": 0}}
    assert re.search(r"^PYTHONPATH=src python -m weylmass .*\bverify$", smoke, re.MULTILINE)


def test_workflow_smoke_runs_an_annulus_verify():
    """The same step then runs ``verify`` on one Bochner-integral trial, the streamed annulus, and the
    pointwise verify in fd mode, which takes d^D, delta^D and the (d^D)^2 check through the FD jets."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (smoke,) = [step["run"] for step in job["steps"] if step.get("name") == "CLI smoke"]
    configs = re.findall(r"echo '([^']+)' > \"\$RUNNER_TEMP/(\w+)\.json\"", smoke)
    assert [(json.loads(c), name) for c, name in configs] == [
        ({"trials": {"identity": 6, "bochner": 3, "integral": 0}}, "smoke"),
        ({"trials": {"identity": 0, "bochner": 1, "integral": 1}}, "annulus"),
        ({"mode": "fd", "trials": {"identity": 6, "bochner": 3, "integral": 0}}, "smoke_fd"),
    ]
    commands = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" .*\bverify$",
                          smoke, re.MULTILINE)
    assert commands == ["smoke", "annulus", "smoke_fd"]


def test_workflow_sweep_smoke_runs_a_hopf_sweep():
    """After the verify smoke and before the report smoke, a 2-value radial_profile sweep on the Hopf
    fibration, in dual and in fd mode (the swept jets come from the product rule in both), then a dual
    directional_profile sweep there: its factor has an angular df and an off-diagonal ddf, so the factor
    probe reads a full frame Hessian on the anholonomic chart.  Last, the radial_profile sweep on the
    default trivial chart, whose holonomic frame takes the flux and probe paths without connection terms."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert names.index("CLI smoke") + 1 == names.index("Sweep smoke") == names.index("Report smoke") - 1
    smoke = job["steps"][names.index("Sweep smoke")]["run"]
    configs = [json.loads(c) for c in re.findall(r"echo '([^']+)' > \"\$RUNNER_TEMP/", smoke)]
    sweep = {"name": "radial_profile", "param": "beta", "values": [0.2, 0.4]}
    directional = {"name": "directional_profile", "param": "beta", "values": [0.2, 0.3]}
    assert configs == [{"model": {"fibration": "hopf"}, "sweep": sweep},
                       {"model": {"fibration": "hopf"}, "mode": "fd", "sweep": sweep},
                       {"model": {"fibration": "hopf"}, "sweep": directional},
                       {"sweep": sweep}]
    runs = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" .*\bsweep$",
                      smoke, re.MULTILINE)
    assert runs == ["sweep", "sweep_fd", "sweep_dir", "sweep_trivial"]


def test_workflow_mass_smoke_runs_a_hopf_mass():
    """Right after the install, ``python -m weylmass mass`` on the Hopf model, then at m = 5 at the default
    quadrature, where the sphere rule is the Gauss-Jacobi product (20,000-node shells), then at m = 5 with
    fiber 64 (80,000-node shells, streamed in node blocks), then in dual mode with the bump-supported
    ``compact_lee`` on the Hopf chart, whose jets go through ``autodiff.where``."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert names.index("Install") + 1 == names.index("Mass smoke") == names.index("CLI smoke") - 1
    smoke = job["steps"][names.index("Mass smoke")]["run"]
    configs = re.findall(r"echo '([^']+)' > \"\$RUNNER_TEMP/(\w+)\.json\"", smoke)
    assert [(json.loads(c), name) for c, name in configs] == [
        ({"model": {"fibration": "hopf"}, "family": {"name": "hopf_model"}}, "mass"),
        ({"model": {"m": 5}}, "mass_m5"),
        ({"model": {"m": 5}, "quadrature": {"fiber": 64}}, "mass_m5_fine"),
        ({"model": {"fibration": "hopf"}, "family": {"name": "hopf_model"}, "lee": {"name": "compact_lee"}},
         "mass_compact"),
    ]
    runs = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" .*\bmass$",
                      smoke, re.MULTILINE)
    assert runs == ["mass", "mass_m5", "mass_m5_fine", "mass_compact"]


def test_workflow_report_smoke_reads_every_smoke_report():
    """Between the sweep smoke and the tier-1 tests, ``python -m weylmass report`` reads every JSONL report
    the smoke steps wrote, in order, so a mass record that did not converge (``mass`` itself exits 0 on it)
    or a sweep record whose audit or mass-shift prediction failed fails the job."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert names.index("Sweep smoke") + 1 == names.index("Report smoke") == names.index("Reproduce smoke") - 1
    written = [f"$RUNNER_TEMP/{out}/{command}_report.jsonl"
               for name in ("Mass smoke", "CLI smoke", "Sweep smoke")
               for out, command in re.findall(r"--out \"\$RUNNER_TEMP/(\w+)\" (\w+)$",
                                              job["steps"][names.index(name)]["run"], re.MULTILINE)]
    assert len(written) == 11
    (line,) = job["steps"][names.index("Report smoke")]["run"].strip().splitlines()
    prefix = "PYTHONPATH=src python -m weylmass report "
    assert line.startswith(prefix)
    assert re.findall(r'"([^"]+)"', line[len(prefix):]) == written


def test_workflow_reproduces_a_mass_from_its_report(tmp_path):
    """Right before the tier-1 tests, a partial-section Hopf mass, then a mass from the config record its report
    embeds: the two reports must be the same bytes.  The step's commands are run here as CI runs them."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert names.index("Report smoke") + 1 == names.index("Reproduce smoke") == names.index("Tier-1 tests") - 1
    smoke = job["steps"][names.index("Reproduce smoke")]["run"]
    configs = re.findall(r"echo '([^']+)' > \"\$RUNNER_TEMP/(\w+)\.json\"", smoke)
    assert [(json.loads(c), name) for c, name in configs] == [
        ({"model": {"fibration": "hopf"}, "family": {"name": "hopf_model"}, "radii": {"r0": 30},
          "quadrature": {"fiber": 4}}, "partial")]
    runs = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" "
                      r"--out \"\$RUNNER_TEMP/(\w+)\" mass$", smoke, re.MULTILINE)
    assert runs == [("partial", "partial"), ("reproduce", "reproduce")]
    assert smoke.strip().splitlines()[-1] == ('cmp "$RUNNER_TEMP/partial/mass_report.jsonl" '
                                              '"$RUNNER_TEMP/reproduce/mass_report.jsonl"')
    # `python` in the step is this interpreter where its directory has one
    path = f"{Path(sys.executable).parent}{os.pathsep}{os.environ.get('PATH', '')}"
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path), "PATH": path}
    res = subprocess.run(["bash", "-eo", "pipefail", "-c", smoke], capture_output=True, text=True, env=env,
                         cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr + res.stdout
    assert json.loads((tmp_path / "reproduce.json").read_text())["radii"] == {"r0": 30, "rmax": 320.0, "count": 6}


def test_package_runs_as_module_without_install(tmp_path):
    """``PYTHONPATH=src python -m weylmass`` works from a checkout, as the smoke step runs it."""
    config = tmp_path / "smoke.json"
    config.write_text(json.dumps({"trials": {"identity": 6, "bochner": 3, "integral": 0}}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, "-m", "weylmass", "--config", str(config), "--out",
                          str(tmp_path / "out"), "verify"], capture_output=True, text=True, env=env,
                         cwd=tmp_path, timeout=300)
    assert res.returncode == 0, res.stderr + res.stdout
    assert res.stdout.count("[PASS]") == 9
