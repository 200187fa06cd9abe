"""qlax benchmark: one workload, one run, metrics on stdout.

Usage, from the repository root:

    python3 perfbench/run.py --workload matrix_flow --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics (set-up time, verdicts per
second, command latency p50/p90, peak RSS) with tracing off; the timings
are scaled to a reference host speed (see ``hostspeed.py``).  ``--trace 1``
replays the workload's first rounds under the span tracer and reports the
per-layer metrics; it runs the traced pass twice, in two processes with
different hash seeds, and requires the counts to agree exactly.

Every metric is printed on its own line with its unit; the last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

SETUP_SAMPLES = 11
RUN_TIMEOUT_S = 170.0

END_TO_END = ("setup_s", "verdicts_per_s", "latency_p50_s", "latency_p90_s", "peak_rss_mb")

# The layer metrics reported in the result line of a traced run (the human
# lines above it show every span the tracer recorded).
PER_LAYER = (
    "laxflow.lax_solve.calls", "laxflow.lax_solve.self_s", "laxflow.iterated_integrals.self_s",
    "laxflow.lax_residual.self_s",
    "qseries.mul.calls", "qseries.mul.self_s", "qseries.invert_unipotent.calls",
    "qseries.invert_unipotent.self_s", "algebra.tpoly_mul.calls", "algebra.tpoly_mul.self_s",
    "algebra.tpoly_add.calls",
    "matrix.mul.calls", "matrix.mul.self_s", "matrix.add.calls", "matrix.convergence_study.self_s",
    "symops.transport.self_s", "symops.biop_mul.calls", "symops.biop_mul.self_s",
    "symops.biop_of.kept_ratio", "symops.biop_apply.calls", "symops.biop_apply.self_s",
    "symops.residual_vanishes.self_s", "symops.apply_series.self_s",
    "symops.transported_solution_check.self_s",
    "psdo.compose.calls", "psdo.compose.self_s", "psdo.compose.out_terms", "diffpoly.mul.calls",
    "diffpoly.dx.calls", "diffpoly.of.calls", "diffpoly.of.self_s", "expr.parse_operator.calls",
    "expr.parse_operator.self_s",
    "problemfile.load_problem_file.calls", "problemfile.load_problem_file.self_s", "render.self_s",
    "render.output_bytes", "cli.main.calls", "cli.main.self_s",
    "import.qlax_s", "size.biop_terms_peak", "size.diffpoly_monomials_peak", "size.fraction_bits_peak",
    "other.self_s", "trace.overhead_ratio", "env.calib_s",
)


def calibration_s() -> float:
    """Host-speed reading for the whole run: a long ``Fraction`` loop."""
    return hostspeed.fraction_loop(60000)


class Worker:
    """A workload process; times its set-up from launch to its READY line."""

    def __init__(self, args, workdir: str, mode: str, extra=(), env=None):
        cmd = [
            sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--workdir", workdir, "--mode", mode, *extra,
        ]
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - self.t0
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"{mode} worker did not reach READY (got {line!r})")

    def finish(self) -> dict | None:
        """Wait for the process; its last stdout line parsed as JSON, if any."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, RUN_TIMEOUT_S - (time.perf_counter() - self.t0)))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker timed out")
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None


def measure(args, workdir: str) -> dict:
    samples, scaled = [], []
    for i in range(SETUP_SAMPLES):
        scale = hostspeed.REFERENCE_START_S / hostspeed.start_probe()
        w = Worker(args, workdir, "run" if i == SETUP_SAMPLES - 1 else "setup")
        samples.append(w.setup_s)
        scaled.append(w.setup_s * scale)
        if i < SETUP_SAMPLES - 1:
            w.finish()
    result = w.finish()
    result["metrics"]["setup_s"] = statistics.median(scaled)
    result["setup_samples_s"] = samples
    result["wall"]["setup_s"] = statistics.median(samples)
    return result


COUNT_SUFFIXES = (".calls", ".out_terms", ".output_bytes", ".kept_ratio")


def is_count(name: str) -> bool:
    return name.startswith("size.") or name.endswith(COUNT_SUFFIXES)


def trace(args, workdir: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="1")
    result = Worker(args, workdir, "trace", env=env).finish()
    env = dict(os.environ, PYTHONHASHSEED="2")
    again = Worker(args, workdir, "trace", extra=("--counts-only",), env=env).finish()
    differing = [
        k for k, v in result["metrics"].items() if is_count(k) and again["metrics"].get(k) != v
    ]
    if differing:
        result["failed"] += 1
        result["failures"].append(["count determinism", [f"counts differ between traced runs: {differing}"]])
    return result


def unit(name: str) -> str:
    if name == "verdicts_per_s":
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("kept_ratio") or name.endswith("overhead_ratio"):
        return "ratio"
    if name.endswith("output_bytes"):
        return "bytes"
    if name.endswith("bits_peak"):
        return "bits"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="qlax benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "qlax", "cli.py")) or not os.path.isdir("problems"):
        sys.stderr.write("error: run from the root of a qlax checkout (src/qlax and problems/ not found)\n")
        return 2

    calib_start = calibration_s()
    workdir = os.path.join(workloads.WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = trace(args, workdir) if args.trace else measure(args, workdir)
    finally:
        workloads.remove_workdir(workdir)
    calib_end = calibration_s()

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, problems in result["failures"]:
        print(f"FAILED {key}: {'; '.join(problems)}")
    metrics = result["metrics"]
    metrics["env.calib_s"] = (calib_start + calib_end) / 2
    if not args.trace:
        print(
            f"commands {attempted} in {result['rounds']} rounds (latency samples: {attempted}; "
            f"rounds repeated after the problem pool ran out: {result['pool_wrapped_rounds']})"
        )
        print("setup samples " + " ".join(f"{s:.4f}" for s in result["setup_samples_s"]) + " s")
        print("unscaled (this host's wall time): " + "  ".join(
            f"{name} {value:.6g}" for name, value in result["wall"].items()))
    for name in sorted(metrics):
        print(f"{name} {metrics[name]:.6g} {unit(name)}")
    print(f"failed_share {failed / attempted:.6g} share ({failed}/{attempted})")
    print(f"env.calib_s start {calib_start:.4f} end {calib_end:.4f} s")
    names = PER_LAYER if args.trace else END_TO_END
    out = {name: {"value": metrics[name], "unit": unit(name)} for name in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
