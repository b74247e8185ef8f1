"""Child process of the benchmark: one fresh interpreter per use.

``setup``  imports weylmass and loads the run configuration, then exits; the
           parent times it from spawn to exit.
``loop``   runs one workload's command through ``weylmass.cli.main`` again
           and again in this process (a closed loop, one command at a time)
           until the time budget is spent, checks every command's outputs,
           and writes the samples to a JSON file.  With ``--trace 1`` the
           first half of the budget runs untraced and the second half runs
           with the layer wrappers of ``tracing.py`` installed.

Run it through ``run.py``, which sets the environment (PYTHONPATH, pinned
BLAS/OpenMP thread pools) and turns the samples into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

from speed import ReferenceKernel

MAX_REPS = 200


def _import_cli(root: Path):
    import weylmass
    from weylmass import cli

    src = (root / "src").resolve()
    if src not in Path(weylmass.__file__).resolve().parents:
        raise SystemExit(f"error: imported weylmass from {weylmass.__file__}, not from {src}")
    return cli


def cmd_setup(args) -> int:
    cli = _import_cli(Path(args.root))
    parsed = cli.build_parser().parse_args(["--config", args.config, *json.loads(args.argv), "verify"])
    cli.RunConfig.load(parsed.config, parsed)
    return 0


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _report_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def layer_metrics(tracer, report_bytes: int) -> dict:
    """Per-layer metrics of one traced command (names as in BENCHMARK.json)."""
    out = {}
    for layer, fields in (("engine.dual_jet", ("calls", "points", "self_s")),
                          ("engine.fd_jet", ("calls", "points", "self_s")),
                          ("engine.jet2", ("calls",)),
                          ("autodiff.collect_jet", ("self_s",)),
                          ("model.frame", ("calls", "self_s")),
                          ("weyl.christoffel", ("calls", "points", "self_s")),
                          ("weyl.weyl_coeffs", ("calls",)),
                          ("weyl.curvature", ("calls", "self_s")),
                          ("weyl.covd_block", ("calls", "self_s")),
                          ("weyl.operators", ("self_s",)),
                          ("quadrature.integrate", ("self_s",)),
                          ("mass.q_flux", ("calls", "points", "self_s")),
                          ("mass.lee_flux", ("self_s",)),
                          ("probes", ("calls", "points", "self_s")),
                          ("cli", ("self_s",))):
        calls, points, self_s = tracer.layer(layer)
        values = {"calls": calls, "points": points, "self_s": self_s}
        for field in fields:
            out[f"{layer}.{field}"] = values[field]
    jets = tracer.layer("engine.dual_jet")[0]
    out["engine.distinct_jet_share"] = len(tracer.jet_keys) / jets if jets else 0.0
    ops, nbytes, seconds = tracer.taylor
    out["autodiff.taylor2.ops"] = ops
    out["autodiff.taylor2.bytes"] = nbytes
    out["autodiff.taylor2.self_s"] = seconds
    nodes = tracer.layer("quadrature.nodes")
    out["quadrature.nodes"] = nodes[1]
    out["quadrature.nodes.self_s"] = nodes[2]
    for name, seconds in tracer.checks.items():
        out[f"identities.{name}.s"] = seconds
    out["identities.trials"] = tracer.trials
    out["cli.report_bytes"] = report_bytes
    return out


class Loop:
    """Closed loop over one workload's command, with per-command checks."""

    def __init__(self, cli, workload, config: dict, config_path: str, argv: list, out: Path):
        self.cli = cli
        self.workload = workload
        self.config = config
        self.out = out
        self.argv = ["--config", config_path, "--out", str(out), *argv, workload.command]
        self.reps = []
        self.first_digest = None
        self.kernel = ReferenceKernel()
        self.kernel_after = None

    def run_once(self, tracer=None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        buf = io.StringIO()
        problems = []
        kernel_before = self.kernel_after or self.kernel.median_of(1)
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(self.argv)
        except Exception as exc:  # a crash is one failed command, not the end of the run
            rc = None
            problems.append(f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        # longer commands get more kernel samples around them: about 1 per 1.5 s, up to 5
        self.kernel_after = self.kernel.median_of(max(1, min(5, round(wall / 1.5))))
        if rc != 0:
            problems.append(f"exit code {rc}")
        if "[FAIL]" in buf.getvalue():
            problems.append("[FAIL] line in the output")
        accuracy = None
        if rc == 0:
            try:
                found, accuracy = self.workload.check(self.out, self.config)
                problems += found
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
            digest = _digest(self.out)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("report differs from the first command's report")
        rep = {"wall_s": wall, "kernel_s": 0.5 * (kernel_before + self.kernel_after),
               "problems": problems, "accuracy_digits": accuracy, "traced": tracer is not None}
        if tracer is not None:
            rep["layers"] = layer_metrics(tracer, _report_bytes(self.out))
        self.reps.append(rep)
        return rep

    def run_for(self, seconds: float, min_reps: int, tracer=None) -> None:
        """Run commands while the next one, at the median step time, fits in ``seconds``."""
        start = time.perf_counter()
        steps = []
        while len(steps) < MAX_REPS:
            if len(steps) >= min_reps:
                typical = sorted(steps)[len(steps) // 2]
                if time.perf_counter() - start + typical > seconds:
                    break
            step_start = time.perf_counter()
            self.run_once(tracer)
            steps.append(time.perf_counter() - step_start)


def cmd_loop(args) -> int:
    root = Path(args.root)
    from workloads import WORKLOADS

    cli = _import_cli(root)
    workload = WORKLOADS[args.workload]
    with open(args.config) as fh:
        config = json.load(fh)
    out = Path(args.out)
    loop = Loop(cli, workload, config, args.config, json.loads(args.argv), out / "command")
    result = {}
    if args.trace:
        import tracing

        loop.run_for(args.seconds / 2.0, min_reps=1)
        tracer = tracing.Tracer().install()
        loop.run_for(args.seconds / 2.0, min_reps=1, tracer=tracer)
        # spans of the last traced command
        tracer.write_spans(out / "spans.jsonl")
        result["spans_file"] = str(out / "spans.jsonl")
        tracer.uninstall()
    else:
        loop.run_for(args.seconds, min_reps=2)

    import numpy
    import scipy

    result.update({
        "reps": loop.reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    })
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("--root", required=True, help="checkout root (holds src/weylmass)")
    parser.add_argument("--config", required=True, help="run configuration JSON")
    parser.add_argument("--argv", default="[]", help="JSON list of extra CLI arguments")
    parser.add_argument("--workload")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for command outputs and spans")
    parser.add_argument("--result", help="where to write the samples as JSON")
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.mode == "setup" else cmd_loop(args)


if __name__ == "__main__":
    sys.exit(main())
