"""gpforge benchmark driver.

    python3 bench/run.py --workload wordproblem --seed 1 --seconds 40 --trace 0

Closed loop with one client: each pass runs in a fresh process
(`one_pass.py`), jobs back to back, no threads; passes repeat until
`--seconds` is spent, with at least three untraced passes (one untraced
and one traced pass with `--trace 1`).  Every time reported is the median
over the passes of the run.  The first pass checks every job's output;
later passes, which only add timings, count a job as failed when it
raises or exits nonzero.  Job and set-up times are corrected for the
speed of the machine while they ran (`speed.py`); the measured times are
printed beside them.

Prints one line per metric, one JSON line with the environment and the
failure record, and as the last line the result object
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
Exits nonzero, without a result, when a pass cannot run at all (for
example outside a checkout with `src/gpforge`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import spans  # noqa: E402

END_TO_END = (
    ("wall_norm_s", "s"),
    ("job_p50_norm_ms", "ms"),
    ("job_p90_norm_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# The same statistics of the measured, uncorrected times; printed and
# kept in the environment record, not metrics.
MEASURED = ("wall_s", "job_p50_ms", "job_p90_ms", "setup_measured_s")
MIN_UNTRACED_PASSES = 3
HARD_LIMIT_S = 170.0


class PassError(Exception):
    pass


def run_pass(workload: str, seed: int, traced: bool, check: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "one_pass.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(int(traced)), "--check", str(int(check)),
    ]
    launched = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise PassError("pass did not finish before the run's time limit") from None
    if proc.returncode != 0:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = result["setup_done_at"] - launched
    result.update(traced=traced, setup_s=setup * result["setup_scale"], setup_measured_s=setup)
    for suffix, times in (("", result["job_times"]), ("_norm", result["job_times_corrected"])):
        p90 = statistics.quantiles(times, n=10)[8]
        result[f"wall{suffix}_s"] = sum(times)
        result[f"job_p50{suffix}_ms"] = statistics.median(times) * 1e3
        result[f"job_p90{suffix}_ms"] = p90 * 1e3
        result[f"beyond_p90{suffix}"] = sum(t > p90 for t in times)
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "gpforge", "cli.py")):
        print("run from the root of a gpforge checkout: src/gpforge not found", file=sys.stderr)
        return 2

    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    modes = (False, True) if args.trace else (False,)
    min_passes = 2 if args.trace else MIN_UNTRACED_PASSES
    passes = []
    try:
        while True:
            mode = modes[len(passes) % len(modes)]
            passes.append(run_pass(args.workload, args.seed, mode, not passes, deadline))
            elapsed = time.perf_counter() - started
            per_pass = elapsed / len(passes)
            if elapsed + 1.5 * per_pass > HARD_LIMIT_S:
                break
            if len(passes) >= min_passes and len(passes) % len(modes) == 0 and elapsed + per_pass > args.seconds:
                break
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace and not traced:
        print("no traced pass fitted in the run's time limit", file=sys.stderr)
        return 1

    def median(key, group=untraced):
        return statistics.median(p[key] for p in group)

    if args.trace:
        # median_low keeps counts whole: it is always one pass's value.
        layers = {name: statistics.median_low(p["layers"][name] for p in traced) for name, _ in spans.PER_LAYER}
        layers["trace.overhead_s"] = median("wall_norm_s", traced) - median("wall_norm_s")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spans.PER_LAYER}
    else:
        metrics = {name: {"value": median(name), "unit": unit} for name, unit in END_TO_END}

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
        },
        "passes": len(untraced),
        "traced_passes": len(traced),
        "jobs_per_pass": passes[0]["attempted"],
        "job_p90_samples_beyond": min(p["beyond_p90_norm"] for p in passes),
        "measured": {name: median(name) for name in MEASURED},
        "reference_unit_ms": statistics.median(d for p in passes for d in p["reference_unit_s"]) * 1e3,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:10],
    }
    if any("probe_job" in p for p in traced):
        record["probe_job"] = next(p["probe_job"] for p in traced if "probe_job" in p)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in record["measured"].items():
            print(f"{args.workload} {name} = {value:.6g} {name.rsplit('_', 1)[1]} (measured, not corrected)")
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
