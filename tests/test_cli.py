"""CLI contract: exit codes, determinism, report formats."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

BASE_CONFIG = {
    "model": {"m": 3, "R": 1.0, "L": 6.283185307179586, "fibration": "trivial"},
    "family": {"name": "kaluza_perturbation", "params": {"mu": 1.0}},
    "lee": {"name": "radial_lee", "params": {"amplitude": 0.4}},
    "sweep": {"name": "radial_profile", "param": "beta", "values": [0.2, 0.4]},
    "radii": {"r0": 40.0, "rmax": 320.0, "count": 6},
    "quadrature": {"sphere": 26, "fiber": 16, "radial": 8},
    "trials": {"identity": 6, "bochner": 3, "integral": 1},
    "seed": 42,
}


def write_config(tmp_path: Path, **changes) -> Path:
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for key, val in changes.items():
        if isinstance(val, dict) and key in cfg and isinstance(cfg[key], dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def run_cli(args, out_dir):
    cmd = [sys.executable, "-m", "weylmass.cli", "--out", str(out_dir)] + args
    return subprocess.run(cmd, capture_output=True, text=True, timeout=560)


def test_verify_flat_config_exits_zero(tmp_path):
    cfg = write_config(tmp_path)
    res = run_cli(["--config", str(cfg), "verify"], tmp_path / "out")
    assert res.returncode == 0, res.stderr + res.stdout
    assert "[PASS] torsion_free" in res.stdout
    report = (tmp_path / "out" / "verify_report.jsonl").read_text().splitlines()
    assert json.loads(report[0])["config"]["seed"] == 42
    assert all(json.loads(line).get("passed", True) for line in report[1:])
    integral = json.loads(report[-1])
    assert integral["identity"] == "bochner_integral"
    # the annulus rule asks for 100 sphere directions; sphere_rule gives 10 x 20
    assert integral["details"]["annulus_nodes"] == 200 * 16 * 8


def test_verify_failed_check_exits_one(tmp_path):
    """Negative control of the exit-code contract: a Bochner tolerance no residual meets fails the checks."""
    cfg = write_config(tmp_path, tolerances={"bochner": 1e-300})
    res = run_cli(["--config", str(cfg), "verify"], tmp_path / "out")
    assert res.returncode == 1
    assert "[FAIL] bochner_pointwise" in res.stdout


def test_verify_deterministic_reruns(tmp_path):
    cfg = write_config(tmp_path)
    res1 = run_cli(["--config", str(cfg), "verify"], tmp_path / "out1")
    res2 = run_cli(["--config", str(cfg), "verify"], tmp_path / "out2")
    assert res1.returncode == res2.returncode == 0
    b1 = (tmp_path / "out1" / "verify_report.jsonl").read_bytes()
    b2 = (tmp_path / "out2" / "verify_report.jsonl").read_bytes()
    assert b1 == b2


def test_config_errors_exit_two(tmp_path):
    bad = write_config(tmp_path, model={"m": 2})
    res = run_cli(["--config", str(bad), "verify"], tmp_path / "out")
    assert res.returncode == 2
    assert "error:" in res.stderr

    bad2 = write_config(tmp_path, family={"name": "unknown_family", "params": {}})
    res2 = run_cli(["--config", str(bad2), "verify"], tmp_path / "out")
    assert res2.returncode == 2

    bad3 = write_config(tmp_path, radii={"r0": 0.5, "rmax": 320.0, "count": 6})
    res3 = run_cli(["--config", str(bad3), "mass"], tmp_path / "out")
    assert res3.returncode == 2

    res4 = run_cli(["--config", str(tmp_path / "missing.json"), "verify"], tmp_path / "out")
    assert res4.returncode == 2


@pytest.mark.parametrize("flag", [["--radii", "40:320:6"], ["--tol", "1e-6"]])
def test_removed_flags_exit_two(tmp_path, flag):
    """Radii and tolerances come from the config file only: the former flags are refused before any work."""
    cfg = write_config(tmp_path)
    res = run_cli(["--config", str(cfg)] + flag + ["verify"], tmp_path / "out")
    assert res.returncode == 2
    assert "weylmass: error:" in res.stderr
    assert not (tmp_path / "out").exists()


def test_mass_flat_product_zero_matrix(tmp_path):
    cfg = write_config(tmp_path, family={"name": "flat_product", "params": {}},
                       lee={"name": "zero_lee", "params": {}})
    res = run_cli(["--config", str(cfg), "mass"], tmp_path / "out")
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "mass_report.jsonl").read_text().splitlines()
    matrix = json.loads(lines[1])["mass_matrix"]
    assert max(abs(v) for row in matrix for v in row) < 1e-8


def test_mass_kaluza_isotropic_and_csv_schema(tmp_path):
    cfg = write_config(tmp_path)
    res = run_cli(["--config", str(cfg), "mass"], tmp_path / "out")
    assert res.returncode == 0, res.stderr
    assert "polarized conformal-mass matrix" in res.stdout
    lines = (tmp_path / "out" / "mass_report.jsonl").read_text().splitlines()
    matrix = json.loads(lines[1])["mass_matrix"]
    for b in range(3):
        for c in range(3):
            if b == c:
                assert matrix[b][c] == pytest.approx(4.0 / 3.0 - 5 * 0.4 / 3.0, abs=1e-8)
            else:
                assert abs(matrix[b][c]) < 1e-6
    csv_lines = (tmp_path / "out" / "mass_table_X1.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# schema=mass_table_v1")
    assert csv_lines[1] == "radius,Q_flux,conf_correction,extrapolated"
    assert len(csv_lines) == 2 + 6


def test_mass_records_state_the_sphere_rule_and_its_angular_error(tmp_path):
    """Each direction record names the sphere rule of its shells.  On the symmetric rule (any request up to
    26 directions) ``angular_error`` is the gap to the embedded degree-5 rule, at roundoff on centred radial
    data; on the product rule (a request of 30) it is null.  ``report`` reads both."""
    for sphere, rule in ((26, "symmetric_degree7"), (30, "gauss_jacobi_product")):
        out = tmp_path / rule
        cfg = write_config(out.parent, quadrature={"sphere": sphere, "fiber": 2})
        res = run_cli(["--config", str(cfg), "mass"], out)
        assert res.returncode == 0, res.stderr
        records = [json.loads(line) for line in (out / "mass_report.jsonl").read_text().splitlines()[2:]]
        assert len(records) == 6 and all(rec["sphere_rule"] == rule for rec in records)
        if rule == "symmetric_degree7":
            assert all(0.0 <= rec["angular_error"] < 1e-13 for rec in records)
        else:
            assert all(rec["angular_error"] is None for rec in records)
        assert run_cli(["report", str(out / "mass_report.jsonl")], out).returncode == 0


def test_mass_rejects_undefined_mass(tmp_path):
    cfg = write_config(tmp_path, family={"name": "slow_tail", "params": {"mu": 1.0}})
    res = run_cli(["--config", str(cfg), "mass"], tmp_path / "out")
    assert res.returncode == 2
    assert "decay probes" in res.stderr


def test_mass_compact_lee_matrix_equals_q_matrix(tmp_path):
    cfg = write_config(tmp_path, lee={"name": "compact_lee",
                                      "params": {"amplitude": 0.5, "r0": 2.0, "r1": 4.0}})
    res = run_cli(["--config", str(cfg), "mass"], tmp_path / "out")
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "mass_report.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    m_mat = np.array(rec["mass_matrix"])
    q_mat = np.array(rec["q_matrix"])
    assert np.max(np.abs(m_mat - q_mat)) < 1e-12


def test_sweep_passes_and_reports(tmp_path):
    cfg = write_config(tmp_path)
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path / "out")
    assert res.returncode == 0, res.stderr + res.stdout
    assert res.stdout.count("[PASS]") >= 8  # 2 values x (3 audits + 1 prediction)
    lines = (tmp_path / "out" / "sweep_report.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    assert rec["factor"].startswith("radial_profile")
    assert all(a["passed"] for a in rec["audits"])


def test_sweep_rejects_non_adapted_factor(tmp_path):
    cfg = write_config(tmp_path, sweep={"name": "log_slow_profile", "param": "beta",
                                        "values": [1.0]})
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path / "out")
    assert_one_error_line(res)
    assert "rejected by probe" in res.stderr


@pytest.mark.parametrize("values", [[-3.0, 0.3], [0.3, -3.0]])
def test_sweep_refuses_non_positive_factor_before_any_audit(tmp_path, values):
    """f = 1 - 3/r is negative for 1 < r < 3: refused wherever it stands in the sweep, before any audit."""
    cfg = write_config(tmp_path, sweep={"name": "radial_profile", "param": "beta", "values": values})
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path / "out")
    assert_one_error_line(res)
    assert "is not positive" in res.stderr
    assert "[PASS]" not in res.stdout and "[FAIL]" not in res.stdout


def test_sweep_checks_every_factor_for_positivity_before_any_adapted_class_probe(tmp_path):
    """f = 1 + beta/log r over [ok, not adapted, not positive]: beta = 0 is f = 1, beta = 1.0 decays too
    slowly for the adapted class, and beta = -1.0 is negative just outside R.  Positivity is checked for
    every factor, in sweep order, before any factor is differentiated, so the refusal names the last one."""
    cfg = write_config(tmp_path, sweep={"name": "log_slow_profile", "param": "beta", "values": [0.0, 1.0, -1.0]})
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path / "out")
    assert_one_error_line(res)
    assert "conformal factor log_slow_profile(beta=-1.0) is not positive: f = " in res.stderr
    assert "[PASS]" not in res.stdout and "[FAIL]" not in res.stdout


def test_sweep_unit_factor_zero_deltas(tmp_path):
    cfg = write_config(tmp_path, sweep={"name": "radial_profile", "param": "beta", "values": [0.0]})
    res = run_cli(["--config", str(cfg), "sweep"], tmp_path / "out")
    assert res.returncode == 0
    lines = (tmp_path / "out" / "sweep_report.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    assert all(abs(a["abs_difference"]) < 1e-12 for a in rec["audits"])
    assert abs(rec["prediction"]["predicted_delta"]) < 1e-14


def test_report_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(["--config", str(cfg), "verify"], out)
    res = run_cli(["report", str(out / "verify_report.jsonl")], out)
    assert res.returncode == 0
    assert "[PASS]" in res.stdout

    bad_cfg = write_config(tmp_path, tolerances={"bochner": 1e-300})
    run_cli(["--config", str(bad_cfg), "verify"], tmp_path / "out_bad")
    res2 = run_cli(["report", str(tmp_path / "out_bad" / "verify_report.jsonl")], out)
    assert res2.returncode == 1


def test_report_fails_a_sweep_whose_prediction_failed(tmp_path):
    """``report`` checks each sweep record's prediction against the file's own mass tolerance, as ``sweep``
    does: a rel_error of 1.0 fails it although every audit passed."""
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["--config", str(cfg), "sweep"], out).returncode == 0
    path = out / "sweep_report.jsonl"
    res = run_cli(["report", str(path)], out)
    assert res.returncode == 0, res.stderr + res.stdout
    assert res.stdout.count("[PASS] mass-shift prediction") == 2
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[2]["prediction"]["rel_error"] = 1.0
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    res = run_cli(["report", str(path)], out)
    assert res.returncode == 1, res.stderr + res.stdout
    assert res.stdout.count("[FAIL]") == 1 and "[FAIL] mass-shift prediction" in res.stdout


def test_out_env_var(tmp_path, monkeypatch):
    import os
    import subprocess as sp

    cfg = write_config(tmp_path, trials={"identity": 2, "bochner": 2, "integral": 1})
    env = dict(os.environ)
    env["WEYLMASS_OUT"] = str(tmp_path / "env_out")
    cmd = [sys.executable, "-m", "weylmass.cli", "--config", str(cfg), "sweep"]
    res = sp.run(cmd, capture_output=True, text=True, env=env, timeout=560)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "env_out" / "sweep_report.jsonl").exists()


def assert_one_error_line(res):
    assert res.returncode == 2, res.stderr + res.stdout
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


@pytest.mark.parametrize("case", ["config_directory", "config_not_utf8", "report_line_not_json",
                                  "report_directory", "out_is_a_file"])
def test_unusable_path_exits_two_naming_it(tmp_path, case):
    """A --config that is a directory or not UTF-8, a report that is a directory or holds a line that is not
    JSON, and an --out naming an existing file each exit 2 with one ``error:`` line naming the path (and the
    report line).  The output directory is refused before any work: ``mass`` prints nothing."""
    bad, out = tmp_path / "bad", tmp_path / "out"
    args, named = ["--config", str(bad), "mass"], str(bad)
    if case in ("config_directory", "report_directory"):
        bad.mkdir()
    elif case == "config_not_utf8":
        bad.write_bytes(b'{"seed": 1, "out": "\xff"}')
    elif case == "report_line_not_json":
        bad.write_text(json.dumps({"config": {}}) + "\nnot json\n")
        named = f"{bad} line 2"
    else:
        bad.write_text("")
        args, out = ["--config", str(write_config(tmp_path)), "mass"], bad
    if case.startswith("report"):
        args = ["report", str(bad)]
    res = run_cli(args, out)
    assert_one_error_line(res)
    assert named in res.stderr
    if case == "out_is_a_file":
        assert res.stdout == "" and bad.read_text() == ""


def test_mass_indefinite_metric_exits_two(tmp_path):
    cfg = write_config(tmp_path, family={"name": "kaluza_perturbation", "params": {"mu": -1.0}},
                       radii={"r0": 1.5, "rmax": 12.0, "count": 6})
    res = run_cli(["--config", str(cfg), "mass"], tmp_path / "out")
    assert_one_error_line(res)
    assert "not positive definite" in res.stderr


@pytest.mark.parametrize("seed", [99, 48])
def test_verify_refuses_an_indefinite_trial_metric_at_m5(tmp_path, seed):
    """At m = 5 the random trial metric I + 0.12 sum_q S_q sin(...) of these seeds is indefinite at one of the
    pointwise checks' trial points.  The trials' grams are factored as one block, which checks definiteness,
    so ``verify`` exits 2 with one line instead of passing on a g that is not a metric (seed 99) or failing
    in a square root (seed 48)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"m": 5}, "trials": {"integral": 0}}))
    res = run_cli(["--config", str(path), "--seed", str(seed), "verify"], tmp_path / "out")
    assert_one_error_line(res)
    assert res.stderr.startswith("error: metric is not positive definite at ")


@pytest.mark.parametrize("command,changes", [
    ("mass", {"family": {"name": "kaluza_perturbation", "params": {"bogus": 1}}}),
    ("mass", {"lee": {"name": "radial_lee", "params": {"bogus": 1}}}),
    ("sweep", {"sweep": {"name": "radial_profile", "param": "bogus", "values": [0.2]}}),
    ("mass", {"family": {"name": "kaluza_perturbation", "params": {"mu": "abc"}}}),
    ("mass", {"lee": {"name": "radial_lee", "params": {"amplitude": "abc"}}}),
    ("sweep", {"sweep": {"name": "radial_profile", "param": "beta", "values": [0.2, "abc"]}}),
])
def test_unknown_builder_parameter_exits_two(tmp_path, command, changes):
    cfg = write_config(tmp_path, **changes)
    res = run_cli(["--config", str(cfg), command], tmp_path / "out")
    assert_one_error_line(res)
    assert ("bogus" if "bogus" in json.dumps(changes) else "'abc'") in res.stderr


@pytest.mark.parametrize("command,changes,message", [
    ("sweep", {"sweep": {"name": "directional_profile", "param": "axis", "values": [5]}},
     "sweep.values[0]: directional_profile axis must satisfy 0 <= axis < m = 3, got 5"),
    ("sweep", {"sweep": {"name": "directional_profile", "param": "axis", "values": [0, -1]}},
     "sweep.values[1]: directional_profile axis must satisfy 0 <= axis < m = 3, got -1"),
    ("mass", {"family": {"name": "hopf_model", "params": {}}},
     "family: hopf_model requires a hopf-fibered model space"),
    ("mass", {"lee": {"name": "compact_lee", "params": {"r0": 3.0, "r1": 3.0}}},
     "lee: compact_lee needs r0 < r1, got r0=3.0 r1=3.0"),
    ("mass", {"lee": {"name": "compact_lee", "params": {"r0": 4, "r1": 2}}},
     "lee: compact_lee needs r0 < r1, got r0=4 r1=2"),
])
def test_builder_domain_error_exits_two(tmp_path, command, changes, message):
    cfg = write_config(tmp_path, **changes)
    res = run_cli(["--config", str(cfg), command], tmp_path / "out")
    assert_one_error_line(res)
    assert message in res.stderr


@pytest.mark.parametrize("command,changes,message", [
    ("verify", {"tolerances": {"identity": "x"}}, "tolerances.identity must be a positive finite number, got 'x'"),
    ("sweep", {"tolerances": {"mass": "x"}}, "tolerances.mass must be a positive finite number, got 'x'"),
    ("verify", {"tolerances": {"bochner": 0}}, "tolerances.bochner must be a positive finite number, got 0"),
    ("verify", {"tolerances": {"integral": -1e-4}}, "tolerances.integral must be a positive finite number"),
    ("verify", {"tolerances": {"identity": True}}, "tolerances.identity must be a positive finite number"),
    ("verify", {"tolerances": {"identity": math.nan}}, "tolerances.identity must be a positive finite number"),
    ("verify", {"tolerances": {"identity": math.inf}}, "tolerances.identity must be a positive finite number"),
    ("verify", {"tolerances": {"identity": -1e-6}}, "tolerances.identity must be a positive finite number"),
    ("verify", {"tolerances": {"identity": 0}}, "tolerances.identity must be a positive finite number"),
    ("verify", {"tolerances": 1e-6}, "tolerances must be an object, got 1e-06"),
    ("verify", {"trials": {"identity": -1, "bochner": -2}}, "trials.identity must be a non-negative integer, got -1"),
    ("verify", {"trials": {"bochner": -2}}, "trials.bochner must be a non-negative integer, got -2"),
    ("verify", {"trials": {"integral": 1.5}}, "trials.integral must be a non-negative integer, got 1.5"),
    ("verify", {"trials": {"identity": "6"}}, "trials.identity must be a non-negative integer, got '6'"),
    ("verify", {"trials": [6, 3, 0]}, "trials must be an object, got [6, 3, 0]"),
    ("mass", {"model": 3}, "model must be an object, got 3"),
    ("mass", {"radii": 5}, "radii must be an object, got 5"),
    ("mass", {"family": 3}, "family must be an object, got 3"),
    ("mass", {"lee": "x"}, "lee must be an object, got 'x'"),
    ("mass", {"quadrature": 5}, "quadrature must be an object, got 5"),
    ("sweep", {"sweep": 4}, "sweep must be an object, got 4"),
    ("verify", [], "config must be an object, got []"),
    ("verify", {"model": {"L": math.inf}}, "model.L must be a positive finite number, got inf"),
    ("mass", {"radii": {"r0": 40, "rmax": math.inf, "count": 3}}, "radii must satisfy 0 < r0 < rmax < inf"),
    ("verify", {"seed": True}, "seed must be a non-negative integer, got True"),
    ("mass", {"quadrature": {"sphere": True}}, "quadrature.sphere must be a positive integer, got True"),
    ("mass", {"model": {"m": 3, "foo": 1}}, "unknown model key 'foo'"),
    ("mass", {"radii": {"r0": 40.0, "rmax": 320.0, "count": 6, "x": 1}}, "unknown radii key 'x'"),
    ("verify", {"mode": "fd"}, "unknown config keys: ['mode']"),
    ("verify", {"corrupt_bochner_sign": True}, "unknown config keys: ['corrupt_bochner_sign']"),
    ("sweep", {"sweep": {"name": "unit_scalar", "param": "beta", "values": [1.0]}},
     "sweep.name must be one of ['directional_profile', 'log_slow_profile', 'radial_profile', 'sqrt_slow_profile'], "
     "got 'unit_scalar'"),
])
def test_invalid_tolerance_or_trials_exits_two(tmp_path, command, changes, message):
    """A malformed value, section or config (a list replaces the whole config): one error line."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg = {**cfg, **changes} if isinstance(changes, dict) else changes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["--config", str(path), command], tmp_path / "out")
    assert_one_error_line(res)
    assert message in res.stderr


@pytest.mark.parametrize("record", [
    {"identity": "x", "max_residual": "a", "passed": True},
    {"Z": "z", "mass": None, "converged": True},
    {"factor": "f", "audits": [], "prediction": {"rel_error": 0.0}},
    {"identity": "x", "max_residual": 0.0, "tolerance": 1e-6, "trials": 1},
    {"Z": "z", "mass": 1.0},
    [{"config": {"tolerances": {"mass": 1e-4}, "sweep": {"param": "beta"}}},
     {"factor": "f", "beta": 0.2, "audits": [{"Z": "1*X1", "rel_difference": 0.0}], "prediction": {"rel_error": 0.0}}],
])
def test_report_refuses_malformed_records(tmp_path, record):
    """A record with a field of the wrong type, a sweep record with no config record before it to give the
    mass tolerance, or a record without its verdict (an identity or audit without ``passed``, a mass direction
    without ``converged``): one ``error:`` line naming the path and the line, exit 2, no traceback, no made-up
    verdict.  A list is a file of several records; the last one is the malformed one."""
    records = record if isinstance(record, list) else [record]
    path = tmp_path / "report.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    res = run_cli(["report", str(path)], tmp_path / "out")
    assert_one_error_line(res)
    assert f"{path} line {len(records)}" in res.stderr


@pytest.mark.parametrize("config,command,codes", [
    ({"trials": {"identity": 6, "bochner": 3, "integral": 0}}, "verify", (0, 0)),
    ({"trials": {"identity": 0, "bochner": 5, "integral": 0}, "tolerances": {"bochner": 1e-300}}, "verify", (1, 1)),
    ({"model": {"fibration": "hopf"}, "sweep": {"name": "radial_profile", "param": "beta", "values": [0.2, 0.4]}},
     "sweep", (0, 0)),
    ({"model": {"m": 5}}, "mass", (0, 0)),
    # no direction's flux sequence converges on these radii: mass exits 0 on that and report exits 1
    ({"family": {"name": "kaluza_two_term", "params": {"kappa": 5.0}}, "radii": {"r0": 5, "rmax": 10, "count": 3}},
     "mass", (0, 1)),
], ids=["verify", "negative_control", "sweep_hopf", "mass_m5", "mass_not_converged"])
def test_report_prints_the_lines_the_command_printed(tmp_path, config, command, codes):
    """One judge prints and decides every record: ``report`` on a command's report prints the command's lines,
    apart from the command's ``report: PATH`` line and report's ``== PATH`` line, and exits as the command
    did, except on a mass direction that did not converge.  ``mass`` prints no ``[FAIL]`` line."""
    from weylmass import cli

    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    report = tmp_path / "out" / f"{command}_report.jsonl"
    runs = []
    for argv in (["--config", str(path), "--out", str(tmp_path / "out"), command], ["report", str(report)]):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            runs.append((cli.main(argv), buf.getvalue().splitlines()))
    (command_code, command_lines), (report_code, report_lines) = runs
    assert (command_code, report_code) == codes
    assert command_lines[-1] == f"report: {report}" and report_lines[0] == f"== {report}"
    assert command_lines[:-1] == report_lines[1:]
    assert sum("NOT CONVERGED" in line for line in command_lines) == (6 if codes == (0, 1) else 0)
    assert command != "mass" or not any("[FAIL]" in line for line in command_lines)


# A config that leaves keys out of every section it gives; the family, lee and sweep builders take defaults.
PARTIAL_CONFIG = {
    "model": {"R": 2.0},
    "family": {"name": "kaluza_two_term", "params": {"mu": 0.5}},
    "lee": {"name": "compact_lee", "params": {"r1": 5.0}},
    "sweep": {"values": [0.2]},
    "radii": {"r0": 30},
    "quadrature": {"fiber": 4},
    "trials": {"identity": 1, "bochner": 1, "integral": 0},
}

RESOLVED_PARTIAL_CONFIG = {
    "model": {"m": 3, "R": 2.0, "L": 6.283185307179586, "fibration": "trivial"},
    "family": {"name": "kaluza_two_term", "params": {"mu": 0.5, "kappa": 0.5}},
    "lee": {"name": "compact_lee", "params": {"amplitude": 0.5, "r0": 2.0, "r1": 5.0}},
    "sweep": {"name": "radial_profile", "param": "beta", "values": [0.2]},
    "radii": {"r0": 30, "rmax": 320.0, "count": 6},
    "quadrature": {"sphere": 26, "fiber": 4, "radial": 8},
    "tolerances": {"identity": 1e-6, "bochner": 1e-5, "integral": 1e-4, "mass": 1e-4, "convergence": 1e-6},
    "trials": {"identity": 1, "bochner": 1, "integral": 0},
    "seed": 42,
}


@pytest.mark.parametrize("command", ["mass", "sweep", "verify"])
def test_config_record_is_the_resolved_config_and_reproduces_the_run(tmp_path, command):
    """The config record of a partial-section run holds every key of every section and the builders'
    default parameters; written out as a config, it resolves to itself and the rerun's report is the same."""
    from weylmass.cli import RunConfig, build_parser

    path = tmp_path / "config.json"
    path.write_text(json.dumps(PARTIAL_CONFIG))
    assert run_cli(["--config", str(path), command], tmp_path / "out").returncode == 0
    report = (tmp_path / "out" / f"{command}_report.jsonl").read_bytes()
    record = json.loads(report.splitlines()[0])["config"]
    assert record == RESOLVED_PARTIAL_CONFIG
    again = tmp_path / "again.json"
    again.write_text(json.dumps(record))
    assert RunConfig.load(str(again), build_parser().parse_args([command])).config == record
    assert run_cli(["--config", str(again), command], tmp_path / "again").returncode == 0
    assert (tmp_path / "again" / f"{command}_report.jsonl").read_bytes() == report


def test_sweep_calls_each_builder_once(tmp_path, monkeypatch):
    """Loading the config builds the family, the Lee form and every factor; the command runs on those."""
    import functools

    from weylmass import cli, families

    calls = []

    def counted(builder):
        @functools.wraps(builder)
        def wrapper(*args, **params):
            calls.append(builder.__name__)
            return builder(*args, **params)
        return wrapper

    for table, name in ((families.METRIC_BUILDERS, "kaluza_perturbation"), (families.LEE_BUILDERS, "radial_lee"),
                        (families.SCALAR_BUILDERS, "radial_profile")):
        monkeypatch.setitem(table, name, counted(table[name]))
    cfg = write_config(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "sweep"]) == 0
    assert sorted(calls) == ["kaluza_perturbation", "radial_lee", "radial_profile", "radial_profile"]


def test_readme_default_config_is_the_resolved_default():
    """README's Configuration section shows the default config as every report embeds it."""
    from weylmass.cli import RunConfig, build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration"):]
    block = section[section.index("```json\n") + len("```json\n"):section.index("```\n", section.index("```json"))]
    assert json.loads(block) == RunConfig.load(None, build_parser().parse_args(["verify"])).config


def test_partial_radii_take_the_defaults(tmp_path):
    """A section that leaves keys out takes their defaults, as model and quadrature do."""
    cfg = {**BASE_CONFIG, "radii": {"r0": 30.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    res = run_cli(["--config", str(path), "mass"], tmp_path / "out")
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "out" / "mass_table_X1.csv").read_text().splitlines()[2:]
    assert len(rows) == 6 and float(rows[0].split(",")[0]) == 30.0 and float(rows[-1].split(",")[0]) == 320.0


NON_NUMBERS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=8), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=40, deadline=None)
@given(where=st.sampled_from(["family", "lee", "sweep"]), value=NON_NUMBERS)
def test_non_number_builder_value_exits_two(where, value):
    from weylmass import cli

    changes = {
        "family": {"family": {"name": "kaluza_perturbation", "params": {"mu": value}}},
        "lee": {"lee": {"name": "radial_lee", "params": {"amplitude": value}}},
        "sweep": {"sweep": {"name": "radial_profile", "param": "beta", "values": [0.2, value]}},
    }[where]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), **changes)
        with contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(cfg), "--out", str(Path(tmp) / "out"), "mass"])
    lines = err.getvalue().strip().splitlines()
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith(f"error: {where}."), lines


def test_mass_q_matrix_equals_polarized_riemannian_limits(tmp_path):
    """The CLI q_matrix equals the polarized per-direction limits of the density oracles."""
    from oracles import direction_limits
    from weylmass.engine import DerivativeEngine
    from weylmass.families import kaluza_perturbation, radial_lee
    from weylmass.model import ModelSpace
    from weylmass.probes import geometric_radii
    from weylmass.quadrature import QuadratureSpec
    from weylmass.weyl import WeylStructure

    cfg = write_config(tmp_path, model={"fibration": "hopf"}, radii={"count": 4},
                       quadrature={"fiber": 4})
    res = run_cli(["--config", str(cfg), "mass"], tmp_path / "out")
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "out" / "mass_report.jsonl").read_text().splitlines()
    q_matrix = np.array(json.loads(lines[1])["q_matrix"])

    space = ModelSpace(m=3, fibration="hopf")
    ws = WeylStructure(space, kaluza_perturbation(space, mu=1.0), radial_lee(space, amplitude=0.4))
    engine = DerivativeEngine()

    def q_limit(z):
        return direction_limits(engine, ws, z, radii=geometric_radii(40.0, 320.0, 4),
                                quad=QuadratureSpec(sphere=26, fiber=4))[0]

    diag = [q_limit(b) for b in range(3)]
    expected = np.diag(diag)
    for b in range(3):
        for c in range(b + 1, 3):
            expected[b, c] = expected[c, b] = 0.5 * (q_limit(np.eye(3)[b] + np.eye(3)[c]) - diag[b] - diag[c])
    assert np.max(np.abs(q_matrix - expected)) < 1e-12


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command,changes,code,report", [
    ("verify", {"trials": {"identity": 2, "bochner": 1, "integral": 0}}, 0, "verify_report.jsonl"),
    ("verify", {"trials": {"identity": 2, "bochner": 1, "integral": 0}, "tolerances": {"bochner": 1e-300}}, 1,
     "verify_report.jsonl"),
    ("sweep", {"sweep": {"name": "radial_profile", "param": "beta", "values": [0.2]}}, 0, "sweep_report.jsonl"),
    ("mass", {}, 0, "mass_report.jsonl"),
])
def test_closed_stdout_keeps_the_command_exit_status(tmp_path, monkeypatch, command, changes, code, report):
    """``weylmass verify | head -2``: no traceback; the command runs to the end and exits with its own status."""
    from weylmass import cli

    cfg = write_config(tmp_path, **changes)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == code
    assert err.getvalue() == ""
    assert (tmp_path / "out" / report).exists()


def test_closed_pipe_from_a_subprocess(tmp_path):
    """A reader that exits before the first line: no traceback, no exit-time flush error, status 0."""
    cfg = write_config(tmp_path, trials={"identity": 2, "bochner": 1, "integral": 0})
    cmd = [sys.executable, "-m", "weylmass.cli", "--out", str(tmp_path / "out"), "--config", str(cfg), "verify"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=560)
    assert proc.returncode == 0, err.decode()
    assert err == b""
    assert (tmp_path / "out" / "verify_report.jsonl").exists()


# A small, cheap base run for the schema property test; every field of it is a drawn target.
SCHEMA_BASE = {
    "model": {"m": 3, "R": 1.0, "L": 6.283185307179586, "fibration": "trivial"},
    "family": {"name": "kaluza_perturbation", "params": {"mu": 1.0}},
    "lee": {"name": "radial_lee", "params": {"amplitude": 0.4}},
    "sweep": {"name": "radial_profile", "param": "beta", "values": [0.2]},
    "radii": {"r0": 40.0, "rmax": 320.0, "count": 2},
    "quadrature": {"sphere": 1, "fiber": 1, "radial": 1},
    "tolerances": {"identity": 1e-6, "bochner": 1e-5, "integral": 1e-4, "mass": 1e-4, "convergence": 1e-6},
    "trials": {"identity": 1, "bochner": 1, "integral": 0},
    "seed": 1,
    "out": "out",
}


def _schema_paths(node, prefix=()):
    """Every field of the base config, sections and their leaves alike, plus the top level."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _schema_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _schema_paths(value, prefix + (i,))


SCHEMA_PATHS = list(_schema_paths(SCHEMA_BASE))

# JSON values of every kind.  Integers stay small: a valid size (m, node counts,
# radii, trials) is run, and the test must stay cheap.  Strings are letters only,
# so a drawn output directory stays inside the temporary directory.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.just(math.inf)
    | st.text("abcxyz_", max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abcmRL", max_size=3), inner, max_size=3),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(path=st.sampled_from(SCHEMA_PATHS), value=JSON_VALUES,
       command=st.sampled_from(["verify", "mass", "sweep"]))
def test_any_config_value_exits_cleanly(path, value, command):
    """One drawn JSON value in one field: exit 0 or 1, or exit 2 with one ``error:`` line; never a traceback."""
    from weylmass import cli

    cfg = json.loads(json.dumps(SCHEMA_BASE))
    if path:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        cfg = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        Path("config.json").write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", "config.json", command])
    lines = err.getvalue().strip().splitlines()
    assert code in (0, 1, 2), (path, value, command, code)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), (path, value, command, lines)


NO_SCIPY_RUNS = [
    # mass at m = 5 builds the Gauss-Jacobi product sphere rule
    ("mass", {"model": {**BASE_CONFIG["model"], "m": 5}, "quadrature": {"sphere": 26, "fiber": 2, "radial": 8}}),
    # one integral trial builds the refined m = 3 annulus rule (Gauss-Jacobi at alpha = 0)
    ("verify", {"trials": {"identity": 0, "bochner": 1, "integral": 1}}),
    ("sweep", {"model": {**BASE_CONFIG["model"], "fibration": "hopf"}}),
]


def test_cli_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: every command exits 0 with scipy made unimportable, and
    importing the CLI loads no scipy module."""
    script = ["import sys", 'sys.modules["scipy"] = None', "from weylmass.cli import main", "codes = []"]
    for command, changes in NO_SCIPY_RUNS:
        run_dir = tmp_path / command
        run_dir.mkdir()
        cfg = write_config(run_dir, **changes)
        args = ["--config", str(cfg), "--out", str(run_dir / "out"), command]
        script.append(f"codes.append(main({args!r}))")
    script.append("print(codes)")
    res = subprocess.run([sys.executable, "-c", "\n".join(script)], capture_output=True, text=True, timeout=560)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0]", res.stdout + res.stderr

    probe = "import sys, weylmass.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# the keys of every JSONL record type, as README's "Report records" table lists them
REPORT_KEYS = {
    "config": {"config"},
    "identity": {"identity", "trials", "max_residual", "tolerance", "passed"},
    "identity with details": {"identity", "trials", "max_residual", "tolerance", "passed", "details"},
    "mass matrix": {"mass_matrix", "eigenvalues", "q_matrix"},
    "mass direction": {"Z", "radii", "q_values", "correction_values", "q_limit", "correction_limit", "mass",
                       "converged", "tol_conv", "omega_n", "fiber_length", "quadrature", "shell_nodes",
                       "extrapolation_rate", "sphere_rule", "angular_error"},
    "sweep row": {"factor", "beta", "audits", "prediction"},
    "audit": {"Z", "factor", "mass_base", "mass_swept", "abs_difference", "rel_difference", "tolerance",
              "passed"},
    "prediction": {"Z", "predicted_delta", "direct_delta", "base_mass", "swept_mass", "rel_error"},
}


def test_report_records_have_the_documented_keys(tmp_path):
    """Every record type of the three reports has exactly the keys of README's table: the config record, an
    identity record with and without details, the mass-matrix and a per-direction mass record, and a sweep
    row over ``beta`` with its audit and its prediction."""
    from weylmass import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Report records"):readme.index("### Configuration")]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| ") and "`" in line]
    assert {name.strip(): set(re.findall(r"`([^`]+)`", keys)) for name, keys in rows} == REPORT_KEYS

    cfg = write_config(tmp_path, trials={"identity": 1, "bochner": 1, "integral": 0},
                       sweep={"values": [0.2]})
    records = {}
    for command in ("verify", "mass", "sweep"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["--config", str(cfg), "--out", str(tmp_path / command), command]) == 0
        lines = (tmp_path / command / f"{command}_report.jsonl").read_text().splitlines()
        records[command] = [json.loads(line) for line in lines]
    verify, mass, sweep = records["verify"], records["mass"], records["sweep"]
    assert all(set(report[0]) == REPORT_KEYS["config"] for report in records.values())
    identities = {rec["identity"]: set(rec) for rec in verify[1:]}
    assert identities["torsion_free"] == REPORT_KEYS["identity"]
    assert identities["codifferential_transform"] == REPORT_KEYS["identity with details"]
    assert all(keys in (REPORT_KEYS["identity"], REPORT_KEYS["identity with details"])
               for keys in identities.values())
    assert set(mass[1]) == REPORT_KEYS["mass matrix"]
    assert len(mass) == 2 + 6 and all(set(rec) == REPORT_KEYS["mass direction"] for rec in mass[2:])
    (row,) = sweep[1:]
    assert set(row) == REPORT_KEYS["sweep row"]
    assert all(set(audit) == REPORT_KEYS["audit"] for audit in row["audits"])
    assert set(row["prediction"]) == REPORT_KEYS["prediction"]
