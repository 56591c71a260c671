#!/usr/bin/env python3
"""Builds and runs the trace-replay benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload table3_missrate [--seed N]
                           [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --runs 10 [--workloads a,b] [--seconds S]
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --workload W --record-digests

The first form builds the benchmark (CMake, RelWithDebInfo, into
.bench_build/) and runs one workload; the last line of its output is the
result object. --runs is the steadiness mode: it runs every workload N times,
alternating workloads, each run with another seed, and prints each end-to-end
metric's median, quartiles and spread against the bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "stc_perfbench"
DIGESTS = HERE / "digests.txt"
# The workloads in BENCHMARK.json; table3_missrate runs on request only.
WORKLOADS = ["table4_fetch", "pipeline_gshare", "stream_compose"]
DEFAULT_SEED = 19990401
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "stc_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def run_binary(args, echo=True):
    """Runs the benchmark binary in a fresh scratch directory; returns
    (exit code, stdout)."""
    scratch = ROOT / ".bench_build" / ("run-%d" % os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.Popen(
            [str(BINARY), "--scratch", str(scratch), "--digests",
             str(DIGESTS)] + args,
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
            return 1, ""
        if echo:
            sys.stdout.write(out)
            sys.stdout.flush()
        return proc.returncode, out
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def last_json(out):
    lines = [line for line in out.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(opts):
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        for m in json.loads(spec.read_text())["end_to_end"]:
            bounds[m["name"]] = m["bound"]
    workloads = opts.workloads.split(",") if opts.workloads else WORKLOADS
    values = {w: {} for w in workloads}
    failures = 0
    for r in range(opts.runs):
        for w in workloads:
            seed = opts.seed + r
            code, out = run_binary(
                ["--workload", w, "--seed", str(seed), "--seconds",
                 str(opts.seconds), "--trace", "0"], echo=False)
            result = last_json(out) if code == 0 else None
            if result is None or not result["correct"]:
                failures += 1
                log("perfbench: %s seed %d failed (exit %d)" % (w, seed, code))
                continue
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log("run %d %s seed %d: %s" % (r, w, seed, " ".join(
                "%s=%.4g" % (n, m["value"])
                for n, m in result["metrics"].items())))
    print("%-16s %-12s %4s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "runs", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name)
            print("%-16s %-12s %4d %12.6g %12.6g %12.6g %7.2f%% %6s" % (
                w, name, len(vals), med, q1, q3, 100 * s,
                "-" if bound is None else "%g" % bound))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=0,
                        help="steadiness mode: runs per workload")
    parser.add_argument("--workloads",
                        help="steadiness mode: comma list (default all)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    opts = parser.parse_args()

    if not build():
        return 1
    if opts.self_test:
        return run_binary(["--self-test"])[0]
    if opts.runs > 0:
        return steadiness(opts)
    if not opts.workload:
        parser.error("--workload is required")
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    if opts.record_digests:
        args.append("--record-digests")
    if opts.trace:
        spans = ROOT / ".bench_build" / ("spans-%s-%d.jsonl" %
                                         (opts.workload, opts.seed))
        args += ["--spans", str(spans)]
    return run_binary(args)[0]


if __name__ == "__main__":
    sys.exit(main())
