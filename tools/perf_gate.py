#!/usr/bin/env python3
"""CI perf-regression gate over replay-throughput bench reports.

Wall-clock events/sec is machine-dependent, so the gate works on *speedup
ratios*: for every simulator cell that has an interp row, events_per_sec in
the compiled replay mode divided by the interp row (the oracle's per-event
reference) measured in the same run on the same machine. Simulators with no
second implementation (seq3, trace_cache, backend) report compiled rows
only and have no ratio. Ratios are compared against a committed baseline
(bench/perf_baseline.json) with a tolerance band:

    current_speedup >= baseline_speedup * (1 - tolerance)

A cell whose ratio falls below the band is a throughput regression and the
gate exits 1, and so does a baseline key the reports no longer produce. The gate additionally requires the best ratio across all cells
to clear the baseline's `min_best_speedup` floor (the compiled engine must
actually be worth having), and validates the report's schema:
schema_version == 3 with a throughput.events_per_sec field.

Usage:
    perf_gate.py BENCH_replay_throughput.json [BENCH_scale_sweep.json ...]
                 [--baseline FILE] [--tolerance 0.15]
                 [--write-baseline FILE] [--scale-non-interp F]

Several reports gate together in one invocation (each is schema-validated
and must be failure-free; their cells merge, and a (sim, mode) pair that
appears in two reports is an error).

--write-baseline records the current run's ratios as a new baseline (after
a deliberate engine change; scale the recorded ratios down first if the
machine is unusually fast). --scale-non-interp multiplies every non-interp
events_per_sec by F before gating — CI uses it to prove the gate catches a
simulated regression (F=0.84 must fail a freshly written baseline at the
default 15% tolerance).
"""

import argparse
import json
import sys


def fail(msg):
    print(f"perf_gate: FAIL: {msg}", file=sys.stderr)
    return 1


def load_cells(report, scale_non_interp, cells):
    """Merges {(sim, mode): events_per_sec} from the report into cells."""
    for result in report.get("results", []):
        params = result.get("params", {})
        metrics = result.get("metrics")
        if metrics is None:
            raise ValueError(
                f"job '{result.get('name')}' has no metrics (failed cell)")
        sim, mode = params.get("sim"), params.get("mode")
        if sim is None or mode is None:
            raise ValueError(
                f"job '{result.get('name')}' lacks sim/mode params")
        if "events_per_sec" not in metrics:
            raise ValueError(
                f"job '{result.get('name')}': metrics lack 'events_per_sec'")
        eps = metrics["events_per_sec"]
        if mode != "interp":
            eps *= scale_non_interp
        if (sim, mode) in cells:
            raise ValueError(
                f"cell ('{sim}', '{mode}') appears in more than one report")
        cells[(sim, mode)] = eps
    return cells


def speedups(cells):
    """{(sim, mode): cell / interp} for every non-interp cell of a sim that
    has an interp row. A sim without one has no ratio; a baseline key it
    would have produced is then reported missing by main()."""
    out = {}
    for (sim, mode), eps in sorted(cells.items()):
        if mode == "interp":
            continue
        interp = cells.get((sim, "interp"))
        if interp is None:
            continue
        if interp <= 0:
            raise ValueError(f"interp reference for sim '{sim}' is {interp}")
        out[f"{sim}/{mode}"] = eps / interp
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="+", metavar="report")
    parser.add_argument("--baseline", default="bench/perf_baseline.json")
    parser.add_argument("--tolerance", type=float, default=0.15)
    parser.add_argument("--write-baseline", metavar="FILE")
    parser.add_argument("--scale-non-interp", type=float, default=1.0)
    args = parser.parse_args()

    cells = {}
    benches = []
    for path in args.reports:
        with open(path) as f:
            report = json.load(f)
        benches.append(report.get("bench"))

        # Schema v3 validation: mandatory throughput.events_per_sec.
        if report.get("schema_version") != 3:
            return fail(f"{path}: schema_version is "
                        f"{report.get('schema_version')!r}, expected 3")
        throughput = report.get("throughput")
        if (not isinstance(throughput, dict)
                or "events_per_sec" not in throughput):
            return fail(f"{path}: report lacks throughput.events_per_sec "
                        "(schema v3)")
        if report.get("failures"):
            return fail(f"{path}: report records "
                        f"{len(report['failures'])} failed jobs")
        try:
            load_cells(report, args.scale_non_interp, cells)
        except ValueError as e:
            return fail(f"{path}: {e}")

    try:
        current = speedups(cells)
    except ValueError as e:
        return fail(str(e))

    if args.write_baseline:
        baseline = {
            "bench": "+".join(benches),
            "tolerance": args.tolerance,
            "min_best_speedup": 2.0,
            "speedups": {k: round(v, 4) for k, v in current.items()},
        }
        with open(args.write_baseline, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
        print(f"perf_gate: wrote baseline {args.write_baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)
    tolerance = args.tolerance
    floor_mult = 1.0 - tolerance

    failed = False
    for key, base in sorted(baseline.get("speedups", {}).items()):
        cur = current.get(key)
        if cur is None:
            print(f"perf_gate: FAIL: baseline cell '{key}' missing from "
                  "report", file=sys.stderr)
            failed = True
            continue
        floor = base * floor_mult
        verdict = "ok" if cur >= floor else "REGRESSION"
        print(f"perf_gate: {key}: speedup {cur:.3f} vs baseline {base:.3f} "
              f"(floor {floor:.3f}) {verdict}")
        if cur < floor:
            failed = True

    min_best = baseline.get("min_best_speedup", 2.0)
    best = max(current.values(), default=0.0)
    print(f"perf_gate: best speedup {best:.3f} (floor {min_best:.3f})")
    if best < min_best:
        print(f"perf_gate: FAIL: best speedup {best:.3f} below "
              f"min_best_speedup {min_best:.3f}", file=sys.stderr)
        failed = True

    if failed:
        return fail("throughput regressed beyond the tolerance band")
    print("perf_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
