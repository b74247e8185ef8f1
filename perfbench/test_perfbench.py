"""Tests of the benchmark itself: wrappers, reachability, count repeatability.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.inputs(7, "full") == w.inputs(7, "full")
    changed = [w.name for w in workloads.WORKLOADS.values() if w.inputs(7, "full") != w.inputs(8, "full")]
    assert sorted(changed) == sorted(workloads.WORKLOADS)


def test_untraced_loop_installs_no_wrapper(tmp_path):
    w = workloads.WORKLOADS["verify-pointwise"]
    config, argv = w.inputs(3, "small")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    rc = worker.main(["loop", "--root", str(ROOT), "--workload", w.name, "--config", str(config_path),
                      "--argv", json.dumps(argv), "--seconds", "0", "--trace", "0",
                      "--out", str(tmp_path), "--result", str(tmp_path / "samples.json")])
    assert rc == 0
    samples = json.loads((tmp_path / "samples.json").read_text())
    assert len(samples["reps"]) == 2
    assert all(not rep["traced"] and not rep["problems"] for rep in samples["reps"])
    assert tracing.find_wrappers() == []


def test_no_original_reachable_while_tracing():
    modules = tracing.package_modules()
    from weylmass.autodiff import Taylor2
    from weylmass.engine import DerivativeEngine
    from weylmass.model import ModelSpace

    tracer = tracing.Tracer().install()
    try:
        originals = {id(fn) for fn in tracer.originals()}
        reachable = [v for v in tracing.namespace_values(modules) if id(v) in originals]
        assert reachable == []
        for mod in modules:
            for name, value in vars(mod).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__.startswith("weylmass")):
                    assert hasattr(value, "_perfbench_layer"), f"{mod.__name__}.{name}"
        for cls, names in ((DerivativeEngine, ("jet1", "jet2", "_dual_jet")),
                           (ModelSpace, ("lc_coeffs_h", "frame_from_coord")),
                           (Taylor2, ("__add__", "__radd__", "__mul__", "__pow__"))):
            for name in names:
                assert hasattr(vars(cls)[name], "_perfbench_layer"), f"{cls.__name__}.{name}"
    finally:
        tracer.uninstall()
    assert tracing.find_wrappers(modules) == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_metrics_repeat_exactly(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    timed = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
    runs = []
    for _ in range(2):
        proc = _bench("--workload", name, "--seed", "5", "--seconds", "0", "--trace", "1",
                      "--size", "small")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        runs.append({k: v["value"] for k, v in result["metrics"].items() if k not in timed})
    assert runs[0] == runs[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "sweep-hopf", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
