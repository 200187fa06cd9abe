"""The workload process: set-up, then a timed closed loop or a traced replay.

Started by ``run.py`` from the repository root.  Set-up imports
``qlax.cli``, builds the seeded rounds and writes the problem files of the
first one (a run writes each later round's files when it first reaches it,
outside every timing), then prints ``READY``; the launcher times set-up
from process start to that line.  Then, by mode:

* ``setup``: exit (a set-up time sample).
* ``run``: one client runs whole rounds of commands, one at a time, until
  ``--seconds`` have passed and at least 100 commands completed.  In-process
  workloads call ``qlax.cli.main``; ``cli_cold`` starts ``python -m qlax``
  for every command.  A host-speed probe runs before every command, and
  the reported times are scaled by it (``hostspeed.py``).  Outputs go to
  files; they are checked after the loop.
* ``trace``: replays the workload's first rounds in-process, untraced and
  then traced, and reports the layer metrics.

The last line of stdout is a JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ.pop("QLAX_FORMAT", None)  # it would override --format

import qlax.cli  # noqa: E402  (set-up includes this import)

import hostspeed  # noqa: E402
import workloads  # noqa: E402

MIN_COMMANDS = 100
HARD_STOP_S = 120.0


def run_inprocess(argv) -> tuple:
    """One command through qlax.cli.main: (exit code or None, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = qlax.cli.main(list(argv))
        except SystemExit as e:  # argparse rejects its arguments this way
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is a failed command, not an aborted run
            code = None
            err.write(f"{type(e).__name__}: {e}\n")
        elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue(), err.getvalue()


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_subprocess(argv, env) -> tuple:
    """One command as a fresh ``python -m qlax`` process."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qlax", *argv], env=env, capture_output=True, text=True, timeout=60
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return None, time.perf_counter() - t0, "", "TimeoutExpired: no exit within 60 s\n"
    elapsed = time.perf_counter() - t0
    return proc.returncode, elapsed, proc.stdout, proc.stderr


def check_all(checker, results) -> list:
    """[(key, problems)] for every failed command."""
    failures = []
    for cmd, code, stdout, stderr in results:
        problems = checker.check(cmd, code, stdout, stderr)
        if problems:
            failures.append((cmd.key, problems))
    return failures


def digests_for(workload: str, seed: int) -> dict:
    from checks import load_digests

    if workloads.outputs_depend_on_seed(workload) and seed != workloads.DEFAULT_SEED:
        return {}
    return load_digests(workload)


def timed_loop(workload: str, rounds, seconds: float, outdir: str, probe) -> dict:
    cold = workload == "cli_cold"
    env = child_env() if cold else None
    latencies, slots, probes, records = [], [], [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        if 0 < i < len(rounds):
            # A round's problem files are written when it is first reached,
            # outside every timing; set-up wrote round 0.
            workloads.write_files(rounds[i : i + 1])
        for cmd in rounds[i % len(rounds)].commands:
            probes.append(probe())
            t0 = time.perf_counter()
            if cold:
                code, elapsed, stdout, stderr = run_subprocess(cmd.argv, env)
            else:
                code, elapsed, stdout, stderr = run_inprocess(cmd.argv)
            latencies.append(elapsed)
            # Outputs wait in files, so they neither hold memory nor get
            # checked inside the timed loop.
            path = os.path.join(outdir, f"{len(records)}.out")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(stdout)
            records.append((cmd, code, path, stderr))
            slots.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - t_start
        if (elapsed >= seconds and len(latencies) >= MIN_COMMANDS) or elapsed >= HARD_STOP_S:
            break
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    return {
        "latencies": latencies,
        "slots": slots,
        "scales": hostspeed.scales(probes),
        "records": records,
        "rounds": i,
        "wrapped": max(0, i - len(rounds)),
        "peak_rss_mb": peak_rss_mb,
    }


def mode_run(args, rounds) -> dict:
    from checks import Checker

    outdir = os.path.join(args.workdir, "out")
    os.makedirs(outdir, exist_ok=True)
    probe = hostspeed.Probe()
    gc.freeze()  # the probe's pool too stays out of the collector's passes
    loop = timed_loop(args.workload, rounds, args.seconds, outdir, probe)
    lat, slots, scales = loop["latencies"], loop["slots"], loop["scales"]
    scaled = [t * k for t, k in zip(lat, scales)]
    results = []
    for cmd, code, path, stderr in loop["records"]:
        with open(path, encoding="utf-8") as fh:
            results.append((cmd, code, fh.read(), stderr))
    failures = check_all(Checker(ROOT, digests_for(args.workload, args.seed)), results)
    return {
        "attempted": len(lat),
        "failed": len(failures),
        "failures": failures[:10],
        "rounds": loop["rounds"],
        "pool_wrapped_rounds": loop["wrapped"],
        # Unscaled figures, printed for reference only.
        "wall": {
            "verdicts_per_s": len(lat) / sum(slots),
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": statistics.quantiles(lat, n=10)[8],
            "host_scale": statistics.median(scales),
        },
        "metrics": {
            "verdicts_per_s": len(lat) / sum(t * k for t, k in zip(slots, scales)),
            "latency_p50_s": statistics.median(scaled),
            "latency_p90_s": statistics.quantiles(scaled, n=10)[8],
            "peak_rss_mb": loop["peak_rss_mb"],
        },
    }


def import_time_s() -> float:
    """Cumulative ``import qlax.cli`` time from ``python -X importtime``, median of 3."""
    samples = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qlax.cli"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].rstrip() == " qlax.cli":
                samples.append(int(fields[1]) / 1e6)
    if len(samples) != 3:
        raise RuntimeError("no import time line for qlax.cli")
    return statistics.median(samples)


def replay(commands, tracer=None) -> tuple:
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        results = [run_inprocess(cmd.argv) for cmd in commands]
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, wall


def mode_trace(args, rounds) -> dict:
    from checks import Checker
    from tracer import Tracer

    commands = [cmd for rnd in rounds[: workloads.TRACE_ROUNDS[args.workload]] for cmd in rnd.commands]
    plain, plain_wall = (None, None) if args.counts_only else replay(commands)
    tracer = Tracer()
    traced, traced_wall = replay(commands, tracer)
    results = [(cmd, code, out, err) for cmd, (code, _, out, err) in zip(commands, traced)]
    failures = check_all(Checker(ROOT, digests_for(args.workload, args.seed)), results)
    if plain is not None:
        for cmd, (code_a, _, out_a, _), (code_b, _, out_b, _) in zip(commands, plain, traced):
            if (code_a, out_a) != (code_b, out_b):
                failures.append((cmd.key, ["traced output differs from the untraced output"]))
    metrics = tracer.metrics(traced_wall)
    metrics["render.output_bytes"] = sum(len(out.encode("utf-8")) for _, _, out, _ in traced)
    if plain is not None:
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall
        metrics["import.qlax_s"] = import_time_s()
    failed = len({key for key, _ in failures})
    return {"attempted": len(commands), "failed": failed, "failures": failures[:10], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--counts-only", action="store_true", help="trace mode: traced pass only")
    args = parser.parse_args()

    if args.mode == "trace":
        count = workloads.TRACE_ROUNDS[args.workload]
    else:
        count = workloads.pool_rounds(args.workload, args.seconds)
    rounds = workloads.build_rounds(args.workload, args.seed, count, os.path.join(args.workdir, "problems"))
    workloads.write_files(rounds if args.mode == "trace" else rounds[:1])
    # The harness's own objects (the command pool) stay out of the garbage
    # collector's passes, as they would be in a one-command qlax process.
    gc.freeze()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    result = mode_run(args, rounds) if args.mode == "run" else mode_trace(args, rounds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
