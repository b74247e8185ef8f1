"""Benchmark of weylmass: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it builds nothing and runs the
program from ``src/``.  The seed makes the workload's inputs
(``workloads.py``).  ``--trace 0`` times the command in a fresh worker
process and prints the end-to-end metrics; ``--trace 1`` runs the same
loop with the layer wrappers of ``tracing.py`` installed for its second
half and prints the per-layer metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the environment, every sample and the spans go to
``.perfbench_out/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(BENCH))
from speed import ReferenceKernel, calibrated  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
DEADLINE_S = 170.0  # the whole invocation, setup runs included

# BLAS/OpenMP pools pinned in every child so timings do not depend on how
# many threads a library decides to start on a shared machine
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "accuracy_digits": "digits"}

# unit of a per-layer metric by the last part of its name; the rest are counts
LAYER_UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "bytes": "bytes", "report_bytes": "bytes",
               "distinct_jet_share": "ratio"}


def per_layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "WEYLMASS_OUT")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(THREAD_PINS)
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weylmass").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_pins": THREAD_PINS,
    }


def time_setup(config_path: Path, argv: list, deadline: float) -> tuple:
    """Seconds from spawn to exit of fresh processes that import and load the config.

    Returns the raw seconds and the reference-kernel seconds around each run.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "setup", "--root", str(ROOT),
           "--config", str(config_path), "--argv", json.dumps(argv)]
    kernel = ReferenceKernel()
    before = kernel()
    samples, kernels = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"setup run failed ({proc.returncode}): {proc.stderr.strip()}")
        after = kernel()
        kernels.append(0.5 * (before + after))
        before = after
    return samples, kernels


def run_worker(args, config_path: Path, argv: list, run_dir: Path, deadline: float) -> dict:
    result_path = run_dir / "samples.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "loop", "--root", str(ROOT),
           "--workload", args.workload, "--config", str(config_path), "--argv", json.dumps(argv),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(run_dir), "--result", str(result_path)]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish before the deadline")
    if rc != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with code {rc}")
    with open(result_path) as fh:
        return json.load(fh)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup: tuple, samples: dict) -> dict:
    reps = samples["reps"]
    accuracy = [r["accuracy_digits"] for r in reps if r["accuracy_digits"] is not None]
    values = {
        "setup_s": calibrated(*setup),
        "wall_s": calibrated([r["wall_s"] for r in reps], [r["kernel_s"] for r in reps]),
        "peak_rss_mb": samples["peak_rss_mb"],
        "accuracy_digits": min(accuracy) if accuracy else 0.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer_metrics(samples: dict) -> dict:
    untraced = [r["wall_s"] for r in samples["reps"] if not r["traced"]]
    traced = [r for r in samples["reps"] if r["traced"]]
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        unit = per_layer_unit(name)
        if unit == "s":  # times: median over the traced commands
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = metric(value, unit)
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(untraced)
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one weylmass benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "weylmass" / "cli.py").is_file():
        print(f"error: no weylmass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config, extra_argv = workload.inputs(args.seed, args.size)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")

    env = environment(args)
    try:
        setup = ([], []) if args.trace else time_setup(config_path, extra_argv, deadline)
        samples = run_worker(args, config_path, extra_argv, run_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["versions_in_worker"] = samples["versions"]

    reps = samples["reps"]
    failed = sum(1 for r in reps if r["problems"])
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print(f"command {i}: {problem}", file=sys.stderr)
    metrics = per_layer_metrics(samples) if args.trace else end_to_end_metrics(setup, samples)

    record = {"env": env, "config": config, "argv": extra_argv, "setup_samples_s": setup[0],
              "setup_kernel_s": setup[1], "samples": samples, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{len(reps)} commands, {failed} failed; raw command seconds " +
          " ".join(f"{r['wall_s']:.3f}" for r in reps) + "; kernel seconds " +
          " ".join(f"{r['kernel_s']:.4f}" for r in reps) + f"; details in {run_dir / 'result.json'}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
