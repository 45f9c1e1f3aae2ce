"""One pass of one workload, in the fresh process `run.py` starts for it.

Set-up (imports, seeded inputs, input files, expected digests), then
every job back to back with only the job timed, reference units of
`speed.py` between them, then the untimed output checks.  Prints one
JSON object on stdout.

    python3 bench/one_pass.py --workload homology --seed 1 --trace 0
    python3 bench/one_pass.py --workload homology --record   # rewrite digests

`--record` runs the default seed and rewrites `expected/<workload>.json`
from the outputs, after every independent check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORK_ROOT = ".bench_work"
TRACE_ROOT = ".bench_out"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_pass(workload: str, seed: int, traced: bool, expected=None, check: bool = True) -> dict:
    """Set up, run and check one pass.  `expected` maps job ids to output
    digests; None skips the digest comparison.  Without `check` only jobs
    that raised count as failed."""
    workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = None
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer)
        jobs = workloads.JOB_BUILDERS[workload](seed, workdir)

        setup_done_at = time.perf_counter()
        reference = speed.Reference()
        reference.edge()
        job_spans, results = [], []
        for job in jobs:
            reference.between_jobs()
            start = time.perf_counter()
            try:
                result = tracer.run_job(job.id, job.run) if tracer else job.run()
            except Exception as exc:  # a failed job is counted, not fatal
                result = exc
            job_spans.append((start, time.perf_counter()))
            results.append(result)
        reference.edge()

        failures, digests = [], {}
        for job, result in zip(jobs, results):
            try:
                if isinstance(result, Exception):
                    raise result
                if not check:
                    continue
                digests[job.id] = digest(job.check(result))
                if expected is not None and expected.get(job.id) != digests[job.id]:
                    raise workloads.CheckFailed("output digest differs from the committed one")
            except Exception as exc:
                failures.append([job.id, f"{type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {
        "setup_done_at": setup_done_at,
        "setup_scale": reference.setup_scale(),
        "job_times": [end - start for start, end in job_spans],
        "job_times_corrected": reference.corrected(job_spans),
        "reference_unit_s": [d for _, d in reference.units],
        "attempted": len(jobs),
        "failures": failures,
        "digests": digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        os.makedirs(TRACE_ROOT, exist_ok=True)
        tracer.write(os.path.join(TRACE_ROOT, f"spans-{workload}.jsonl"))
        out["layers"] = spans.layer_metrics(tracer.spans)
        probe = [s for s in tracer.spans if s[5] == "meier-probe"]
        if probe:
            out["probe_job"] = {
                k: v
                for k, v in spans.layer_metrics(probe).items()
                if k in ("rewriting.britton.calls", "meier.probe.comparisons", "meier.probe.candidates")
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if args.record:
        result = run_pass(args.workload, gen.DEFAULT_SEED, False)
        if result["failures"]:
            print(json.dumps(result["failures"][:5]), file=sys.stderr)
            return 1
        with open(workloads.expected_path(args.workload), "w", encoding="utf-8") as fh:
            json.dump({"seed": gen.DEFAULT_SEED, "digests": result["digests"]}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        return 0

    expected = workloads.load_digests(args.workload) if args.seed == gen.DEFAULT_SEED else None
    result = run_pass(args.workload, args.seed, bool(args.trace), expected, bool(args.check))
    del result["digests"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
