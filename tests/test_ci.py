"""The CI workflow installs the test extra, runs CLI smoke commands (a Hopf, an m = 5, a refined m = 5, a
Hopf compact_lee, an m = 6 and an m = 7 mass, a pointwise verify at m = 3, on the Hopf chart and at m = 5, the
pointwise suite at its default trial counts, an annulus verify at m = 3 on one and on two trials and one at
m = 4, then Hopf sweeps, a trivial-chart sweep, a one-value Hopf sweep, a Hopf sweep over the directional_profile axis, an
m = 5 sweep and a Hopf sweep on the hopf_model base),
judges every report they wrote again and compares report's lines with the stdout the m = 5 mass, the
default-trial pointwise verify and the first Hopf sweep kept, reruns a mass, the m = 3 and m = 4 annulus verifies, the m = 5 mass, the Hopf
directional_profile sweep and the default-trial pointwise verify from the configs their reports embed, checks that a
five-trial verify whose Bochner tolerance no residual meets exits 1 and so does the report of it, with
the same lines, and runs the tier-1 command that ROADMAP.md names, with a
time limit."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# a smoke command that keeps its standard output for the report smoke to compare ends with this
KEPT = r'(?: > "\$RUNNER_TEMP/\w+\.out")?'


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
    """The same step then runs the pointwise ``verify`` on the Hopf chart and at m = 5 (n = 6), then the
    pointwise suite at its default 100/20 trials (each check's trials evaluated as one batch per form degree),
    and then ``verify`` on one Bochner-integral trial, the streamed annulus, and on two: trial 0's data
    depend on the fiber, trial 1's do not, so the annulus density also runs on fiber-independent data."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (smoke,) = [step["run"] for step in job["steps"] if step.get("name") == "CLI smoke"]
    configs = re.findall(r"echo '([^']+)' > \"\$RUNNER_TEMP/(\w+)\.json\"", smoke)
    assert [(json.loads(c), name) for c, name in configs] == [
        ({"trials": {"identity": 6, "bochner": 3, "integral": 0}}, "smoke"),
        ({"model": {"fibration": "hopf"}, "trials": {"identity": 6, "bochner": 3, "integral": 0}}, "pointwise_hopf"),
        ({"model": {"m": 5}, "trials": {"identity": 6, "bochner": 3, "integral": 0}}, "pointwise_m5"),
        ({"trials": {"integral": 0}}, "pointwise_default"),
        ({"trials": {"identity": 0, "bochner": 1, "integral": 1}}, "annulus"),
        ({"trials": {"identity": 0, "bochner": 1, "integral": 2}}, "annulus_two"),
        ({"model": {"m": 4}, "trials": {"identity": 0, "bochner": 1, "integral": 1}}, "annulus_m4"),
    ]
    commands = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" .*\bverify" + KEPT + "$",
                          smoke, re.MULTILINE)
    assert commands == ["smoke", "pointwise_hopf", "pointwise_m5", "pointwise_default", "annulus", "annulus_two",
                        "annulus_m4"]


def test_workflow_smoke_runs_an_m4_annulus_verify():
    """Last in the same step, ``verify`` on one Bochner-integral trial at m = 4: the only CLI run of the
    annulus density (Ric^D(a#, a#) by vector-first contractions) at n = 5."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (smoke,) = [step["run"] for step in job["steps"] if step.get("name") == "CLI smoke"]
    lines = smoke.strip().splitlines()
    assert lines[-2] == ('echo \'{"model": {"m": 4}, "trials": {"identity": 0, "bochner": 1, "integral": 1}}\' '
                         '> "$RUNNER_TEMP/annulus_m4.json"')
    assert lines[-1] == ('PYTHONPATH=src python -m weylmass --config "$RUNNER_TEMP/annulus_m4.json" '
                         '--out "$RUNNER_TEMP/annulus_m4" verify')


def test_workflow_sweep_smoke_runs_a_hopf_sweep():
    """After the verify smoke and before the report smoke, a 2-value radial_profile sweep on the Hopf
    fibration (the swept jets come from the product rule), then a
    directional_profile sweep there: its factor has an angular df and an off-diagonal ddf, so the factor
    probe reads a full frame Hessian on the anholonomic chart.  Then the radial_profile sweep on the
    default trivial chart, whose holonomic frame takes the flux and probe paths without connection terms.
    Then a one-value Hopf sweep: one factor, the edge case of the factor axis that the shell kernel
    stacks.  Then a Hopf directional_profile sweep over ``axis`` 0, 1, 2: its factors share one exponent
    and so one stored r**s per evaluation of the stacked field, while each reads its own coordinate slot.
    Then a 2-value radial_profile sweep at m = 5: the one smoke where the Cholesky kernel runs at n = 6
    on blocks with swept gauges.  Last, that Hopf radial_profile sweep on the Hopf-adapted base
    ``hopf_model`` (g = h in the Hopf frame), the base of the Hopf mass smoke."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert names.index("CLI smoke") + 1 == names.index("Sweep smoke") == names.index("Report smoke") - 1
    smoke = job["steps"][names.index("Sweep smoke")]["run"]
    configs = [json.loads(c) for c in re.findall(r"echo '([^']+)' > \"\$RUNNER_TEMP/", smoke)]
    sweep = {"name": "radial_profile", "param": "beta", "values": [0.2, 0.4]}
    directional = {"name": "directional_profile", "param": "beta", "values": [0.2, 0.3]}
    one = {"name": "radial_profile", "param": "beta", "values": [0.3]}
    axes = {"name": "directional_profile", "param": "axis", "values": [0, 1, 2]}
    assert configs == [{"model": {"fibration": "hopf"}, "sweep": sweep},
                       {"model": {"fibration": "hopf"}, "sweep": directional},
                       {"sweep": sweep},
                       {"model": {"fibration": "hopf"}, "sweep": one},
                       {"model": {"fibration": "hopf"}, "sweep": axes},
                       {"model": {"m": 5}, "sweep": sweep},
                       {"model": {"fibration": "hopf"}, "family": {"name": "hopf_model"}, "sweep": sweep}]
    runs = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" .*\bsweep" + KEPT + "$",
                      smoke, re.MULTILINE)
    assert runs == ["sweep", "sweep_dir", "sweep_trivial", "sweep_one", "sweep_axis", "sweep_m5", "sweep_hopf_model"]


def test_workflow_mass_smoke_runs_a_hopf_mass():
    """Right after the install, ``python -m weylmass mass`` on the Hopf model, then at m = 5 at the default
    quadrature, where the sphere rule is the 82-direction symmetric rule (1,312-node shells), then at m = 5
    with fiber 64 (5,248-node shells, streamed in three node blocks), then with the bump-supported
    ``compact_lee`` on the Hopf chart, whose jets go through ``autodiff.where``.  Last, the default mass at
    m = 6 and m = 7, on the 136- and 226-direction symmetric rules."""
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
        ({"model": {"m": 6}}, "mass_m6"),
        ({"model": {"m": 7}}, "mass_m7"),
    ]
    runs = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" .*\bmass" + KEPT + "$",
                      smoke, re.MULTILINE)
    assert runs == ["mass", "mass_m5", "mass_m5_fine", "mass_compact", "mass_m6", "mass_m7"]


def test_workflow_report_smoke_reads_every_smoke_report(tmp_path):
    """Between the sweep smoke and the tier-1 tests, ``python -m weylmass report`` reads every JSONL report
    the smoke steps wrote, in order, so a mass record that did not converge (``mass`` itself exits 0 on it)
    or a sweep record whose audit or mass-shift prediction failed fails the job.  Then, for the m = 5 mass,
    the default-trial pointwise verify and the first Hopf sweep, whose smoke commands keep their standard
    output, ``report`` on the one report must print the command's lines (``diff``), apart from the command's
    ``report:`` line and report's ``== PATH`` line.  Those commands and comparisons are run here as CI runs
    them."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert names.index("Sweep smoke") + 1 == names.index("Report smoke") == names.index("Reproduce smoke") - 1
    smokes = "\n".join(job["steps"][names.index(name)]["run"] for name in ("Mass smoke", "CLI smoke", "Sweep smoke"))
    written = [f"$RUNNER_TEMP/{out}/{command}_report.jsonl"
               for out, command in re.findall(r"--out \"\$RUNNER_TEMP/(\w+)\" (\w+)" + KEPT + "$", smokes, re.MULTILINE)]
    assert len(written) == 20
    assert written[-1] == "$RUNNER_TEMP/sweep_hopf_model/sweep_report.jsonl"
    kept = re.findall(r"--out \"\$RUNNER_TEMP/(\w+)\" (\w+) > \"\$RUNNER_TEMP/(\w+)\.out\"$", smokes, re.MULTILINE)
    assert kept == [("mass_m5", "mass", "mass_m5"), ("pointwise_default", "verify", "pointwise_default"),
                    ("sweep", "sweep", "sweep")]
    line, *diffs = job["steps"][names.index("Report smoke")]["run"].strip().splitlines()
    prefix = "PYTHONPATH=src python -m weylmass report "
    assert line.startswith(prefix)
    assert re.findall(r'"([^"]+)"', line[len(prefix):]) == written
    assert diffs == [f"""diff <(grep -v '^report: ' "$RUNNER_TEMP/{out}.out") """
                     f"""<(PYTHONPATH=src python -m weylmass report "$RUNNER_TEMP/{out}/{command}_report.jsonl" | tail -n +2)"""
                     for out, command in (("pointwise_default", "verify"), ("sweep", "sweep"), ("mass_m5", "mass"))]
    runs = [line for line in smokes.splitlines() if re.search(r'"\$RUNNER_TEMP/(mass_m5|pointwise_default|sweep)[."]', line)]
    assert len(runs) == 6
    # `python` in the step is this interpreter where its directory has one
    path = f"{Path(sys.executable).parent}{os.pathsep}{os.environ.get('PATH', '')}"
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path), "PATH": path}
    res = subprocess.run(["bash", "-e", "-c", "\n".join(line.strip() for line in runs + diffs)],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr + res.stdout
    assert (tmp_path / "sweep.out").read_text().count("[PASS]") == 8


def test_workflow_reproduces_a_mass_from_its_report(tmp_path):
    """Right before the tier-1 tests, a partial-section Hopf mass, then a mass from the config record its report
    embeds: the two reports must be the same bytes.  Then the same for the one-trial annulus verifies of the CLI
    smoke at m = 3 and m = 4: a verify from the config its report embeds must write the same bytes.  Then the same for the
    default m = 5 mass of the mass smoke.  Then the same for the Hopf directional_profile sweep of the sweep
    smoke, whose factors take their flux and probe jets as one stacked field.  Then the same for the CLI
    smoke's pointwise verify at the default trial counts.  Last, the same for the CLI smoke's pointwise verify on
    the Hopf chart, whose second-order jets go through the chart's Jacobians.  The step's commands are run here
    as CI runs them, after the CLI smoke's annulus (m = 3 and m = 4), default-trial pointwise and Hopf pointwise
    commands, the mass smoke's m = 5 commands and the sweep smoke's directional_profile commands."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert (names.index("Report smoke") + 1 == names.index("Reproduce smoke")
            == names.index("Negative control smoke") - 1)
    smoke = job["steps"][names.index("Reproduce smoke")]["run"]
    configs = re.findall(r"echo '([^']+)' > \"\$RUNNER_TEMP/(\w+)\.json\"", smoke)
    assert [(json.loads(c), name) for c, name in configs] == [
        ({"model": {"fibration": "hopf"}, "family": {"name": "hopf_model"}, "radii": {"r0": 30},
          "quadrature": {"fiber": 4}}, "partial")]
    runs = re.findall(r"^PYTHONPATH=src python -m weylmass --config \"\$RUNNER_TEMP/(\w+)\.json\" "
                      r"--out \"\$RUNNER_TEMP/(\w+)\" (\w+)$", smoke, re.MULTILINE)
    assert runs == [("partial", "partial", "mass"), ("reproduce", "reproduce", "mass"),
                    ("reproduce_annulus", "reproduce_annulus", "verify"),
                    ("reproduce_annulus_m4", "reproduce_annulus_m4", "verify"), ("reproduce_m5", "reproduce_m5", "mass"),
                    ("reproduce_sweep", "reproduce_sweep", "sweep"),
                    ("reproduce_pointwise", "reproduce_pointwise", "verify"),
                    ("reproduce_pointwise_hopf", "reproduce_pointwise_hopf", "verify")]
    lines = smoke.strip().splitlines()
    assert lines[4] == 'cmp "$RUNNER_TEMP/partial/mass_report.jsonl" "$RUNNER_TEMP/reproduce/mass_report.jsonl"'
    assert lines[5].startswith('head -n 1 "$RUNNER_TEMP/annulus/verify_report.jsonl" | ')
    assert lines[7] == ('cmp "$RUNNER_TEMP/annulus/verify_report.jsonl" '
                        '"$RUNNER_TEMP/reproduce_annulus/verify_report.jsonl"')
    assert lines[8].startswith('head -n 1 "$RUNNER_TEMP/annulus_m4/verify_report.jsonl" | ')
    assert lines[10] == ('cmp "$RUNNER_TEMP/annulus_m4/verify_report.jsonl" '
                         '"$RUNNER_TEMP/reproduce_annulus_m4/verify_report.jsonl"')
    assert lines[11].startswith('head -n 1 "$RUNNER_TEMP/mass_m5/mass_report.jsonl" | ')
    assert lines[13] == 'cmp "$RUNNER_TEMP/mass_m5/mass_report.jsonl" "$RUNNER_TEMP/reproduce_m5/mass_report.jsonl"'
    assert lines[14].startswith('head -n 1 "$RUNNER_TEMP/sweep_dir/sweep_report.jsonl" | ')
    assert lines[16] == ('cmp "$RUNNER_TEMP/sweep_dir/sweep_report.jsonl" '
                         '"$RUNNER_TEMP/reproduce_sweep/sweep_report.jsonl"')
    assert lines[17].startswith('head -n 1 "$RUNNER_TEMP/pointwise_default/verify_report.jsonl" | ')
    assert lines[19] == ('cmp "$RUNNER_TEMP/pointwise_default/verify_report.jsonl" '
                         '"$RUNNER_TEMP/reproduce_pointwise/verify_report.jsonl"')
    assert lines[20].startswith('head -n 1 "$RUNNER_TEMP/pointwise_hopf/verify_report.jsonl" | ')
    assert lines[-1] == ('cmp "$RUNNER_TEMP/pointwise_hopf/verify_report.jsonl" '
                         '"$RUNNER_TEMP/reproduce_pointwise_hopf/verify_report.jsonl"')
    cli = job["steps"][names.index("CLI smoke")]["run"]
    annulus = "\n".join(line for line in cli.strip().splitlines()
                        if re.search(r'"\$RUNNER_TEMP/annulus(_m4)?[."]', line))
    assert annulus.count("\n") == 3
    pointwise = "\n".join(line for line in cli.strip().splitlines()
                          if re.search(r'"\$RUNNER_TEMP/pointwise_default[."]', line))
    assert pointwise.count("\n") == 1
    pointwise_hopf = "\n".join(line for line in cli.strip().splitlines()
                               if re.search(r'"\$RUNNER_TEMP/pointwise_hopf[."]', line))
    assert pointwise_hopf.count("\n") == 1
    mass = job["steps"][names.index("Mass smoke")]["run"]
    mass_m5 = "\n".join(line for line in mass.strip().splitlines() if re.search(r'"\$RUNNER_TEMP/mass_m5[."]', line))
    assert mass_m5.count("\n") == 1
    sweep = job["steps"][names.index("Sweep smoke")]["run"]
    sweep_dir = "\n".join(line for line in sweep.strip().splitlines()
                          if re.search(r'"\$RUNNER_TEMP/sweep_dir[."]', line))
    assert sweep_dir.count("\n") == 1
    # `python` in the step is this interpreter where its directory has one
    path = f"{Path(sys.executable).parent}{os.pathsep}{os.environ.get('PATH', '')}"
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path), "PATH": path}
    res = subprocess.run(["bash", "-eo", "pipefail", "-c", "\n".join((annulus, pointwise, pointwise_hopf, mass_m5, sweep_dir, smoke))],
                         capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr + res.stdout
    assert json.loads((tmp_path / "reproduce.json").read_text())["radii"] == {"r0": 30, "rmax": 320.0, "count": 6}
    assert json.loads((tmp_path / "reproduce_annulus.json").read_text())["trials"] == {
        "identity": 0, "bochner": 1, "integral": 1}
    m4 = json.loads((tmp_path / "reproduce_annulus_m4.json").read_text())
    assert m4["model"]["m"] == 4 and m4["trials"] == {"identity": 0, "bochner": 1, "integral": 1}
    assert json.loads((tmp_path / "reproduce_m5.json").read_text())["quadrature"] == {
        "sphere": 26, "fiber": 16, "radial": 8}
    assert json.loads((tmp_path / "reproduce_sweep.json").read_text())["sweep"] == {
        "name": "directional_profile", "param": "beta", "values": [0.2, 0.3]}
    assert json.loads((tmp_path / "reproduce_pointwise.json").read_text())["trials"] == {
        "identity": 100, "bochner": 20, "integral": 0}
    hopf = json.loads((tmp_path / "reproduce_pointwise_hopf.json").read_text())
    assert hopf["model"]["fibration"] == "hopf" and hopf["trials"] == {"identity": 6, "bochner": 3, "integral": 0}


def test_workflow_negative_control_fails_as_it_must(tmp_path):
    """Right before the tier-1 tests, a five-trial Bochner ``verify`` whose tolerance no residual meets must
    exit exactly 1, and ``report`` on its report must exit 1 too and print the lines ``verify`` printed:
    the failure path of the exit-code contract.  ``report`` on a copy whose every ``"passed": false`` states
    ``true`` must exit 2: each verdict is derived from the record's numbers, never taken as stated.  Five trials, not one, so that one trial whose residual is exactly 0.0 (which meets even a
    1e-300 tolerance) cannot flip the exit code.  The step is run here as CI runs it."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    names = [step.get("name") for step in job["steps"]]
    assert (names.index("Reproduce smoke") + 1 == names.index("Negative control smoke")
            == names.index("Tier-1 tests") - 1)
    smoke = job["steps"][names.index("Negative control smoke")]["run"]
    lines = smoke.strip().splitlines()
    config = json.loads(re.fullmatch(r"echo '([^']+)' > \"\$RUNNER_TEMP/negative\.json\"", lines[0]).group(1))
    assert config == {"trials": {"identity": 0, "bochner": 5, "integral": 0}, "tolerances": {"bochner": 1e-300}}
    assert lines[1:] == [
        'status=0; PYTHONPATH=src python -m weylmass --config "$RUNNER_TEMP/negative.json" '
        '--out "$RUNNER_TEMP/negative" verify > "$RUNNER_TEMP/negative.out" || status=$?',
        'test "$status" -eq 1',
        'status=0; PYTHONPATH=src python -m weylmass report "$RUNNER_TEMP/negative/verify_report.jsonl" '
        '> "$RUNNER_TEMP/negative.report" || status=$?',
        'test "$status" -eq 1',
        """diff <(grep -v '^report: ' "$RUNNER_TEMP/negative.out") <(tail -n +2 "$RUNNER_TEMP/negative.report")""",
        """sed 's/"passed": false/"passed": true/g' "$RUNNER_TEMP/negative/verify_report.jsonl" """
        '> "$RUNNER_TEMP/negative_flipped.jsonl"',
        'status=0; PYTHONPATH=src python -m weylmass report "$RUNNER_TEMP/negative_flipped.jsonl" '
        '> "$RUNNER_TEMP/negative_flipped.report" 2> "$RUNNER_TEMP/negative_flipped.err" || status=$?',
        'test "$status" -eq 2',
    ]
    path = f"{Path(sys.executable).parent}{os.pathsep}{os.environ.get('PATH', '')}"
    env = {**os.environ, "RUNNER_TEMP": str(tmp_path), "PATH": path}
    res = subprocess.run(["bash", "-e", "-c", smoke], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr + res.stdout
    for output in ("negative.out", "negative.report"):
        assert (tmp_path / output).read_text().count("[FAIL] bochner_pointwise") == 1
    # the report with every failed verdict stated as passed is refused at its first such record, bochner_sign
    error = (tmp_path / "negative_flipped.err").read_text().splitlines()
    assert len(error) == 1 and error[0].startswith(f"error: {tmp_path}/negative_flipped.jsonl line 7 is not a valid")


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
