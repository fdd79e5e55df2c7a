#!/usr/bin/env python3
"""Statistical p50 regression gate over confanon-bench-v1 JSON files.

Usage:
    bench_diff.py BASELINE.json CURRENT.json [CURRENT2.json ...]
                  [--warn-above PCT] [--noise NOISE.json] [--fail]

Compares the baseline against the best of N current runs. Benchmarks on
shared CI runners are min-stable: scheduler preemption and cache
pollution only ever ADD time, so the minimum of several runs estimates
the machine's true capability far more robustly than any single run or
the mean. Passing several CURRENT files takes, per histogram, the
minimum p50 across runs (the maximum for higher-is-better metrics)
before diffing against the baseline.

Tolerances come from a noise file (--noise), a JSON object:

    {
      "default_tolerance_pct": 25.0,
      "metrics": {
        "core.line_ns":  {"tolerance_pct": 25.0, "gate": true},
        "scale.lines_per_s": {"tolerance_pct": 30.0,
                              "higher_is_better": true}
      }
    }

A metric entry may set "higher_is_better": true to invert the regression
direction (a p50 DROP beyond tolerance regresses, and best-of-runs takes
the maximum) — throughput metrics like scale.lines_per_s read this way.

A metric regressing beyond its tolerance emits a GitHub Actions
annotation. Only metrics marked "gate": true fail the run (exit 1)
under --fail — everything else stays warn-only, so one noisy histogram
cannot block CI while the headline metric is still held to a hard gate.
Without --fail every regression is a warning (local use).

`io.*` and `scale.*` counters are diffed in a separate informational
table that never fails.
"""

import argparse
import json
import sys


def histogram_p50s(doc):
    return {
        name: snap["p50"]
        for name, snap in doc.get("metrics", {}).get("histograms", {}).items()
        if snap.get("count", 0) > 0 and "p50" in snap
    }


INFO_COUNTER_PREFIXES = ("io.", "scale.")


def info_counters(doc):
    return {
        name: value
        for name, value in doc.get("metrics", {}).get("counters", {}).items()
        if name.startswith(INFO_COUNTER_PREFIXES)
    }


def lower_is_better(name, metric_noise):
    # Throughput metrics declare the inversion in the noise file via
    # "higher_is_better": true.
    return not metric_noise.get(name, {}).get("higher_is_better", False)


def best_of_runs(runs, name, metric_noise):
    """Min across runs for latencies, max for inverted metrics."""
    values = [p50s[name] for p50s in runs if name in p50s]
    return (min(values) if lower_is_better(name, metric_noise)
            else max(values))


def load_noise(path):
    if path is None:
        return 25.0, {}
    with open(path) as f:
        doc = json.load(f)
    return doc.get("default_tolerance_pct", 25.0), doc.get("metrics", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="+",
                        help="one or more current-run JSON files; the "
                             "per-metric best (min) of the runs is diffed")
    parser.add_argument("--warn-above", type=float, default=None,
                        metavar="PCT",
                        help="default tolerance (overrides the noise "
                             "file's default_tolerance_pct)")
    parser.add_argument("--noise", metavar="FILE",
                        help="per-metric tolerance/gate JSON file")
    parser.add_argument("--fail", action="store_true",
                        help="exit nonzero when a gated metric regresses")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    runs = []
    for path in args.current:
        with open(path) as f:
            runs.append(histogram_p50s(json.load(f)))

    default_tol, metric_noise = load_noise(args.noise)
    if args.warn_above is not None:
        default_tol = args.warn_above

    base_p50s = histogram_p50s(baseline)
    current_names = set().union(*runs) if runs else set()
    shared = sorted(set(base_p50s) & current_names)
    if not shared:
        print("bench_diff: no shared histograms to compare", file=sys.stderr)
        return 1

    if len(runs) > 1:
        print(f"(best of {len(runs)} runs per metric: min for latencies, "
              f"max for higher-is-better metrics)")

    warned, failed = [], []
    print(f"{'histogram':<24} {'baseline p50':>14} {'current p50':>14} "
          f"{'change':>9} {'tol':>6}")
    for name in shared:
        base = base_p50s[name]
        cur = best_of_runs(runs, name, metric_noise)
        noise = metric_noise.get(name, {})
        tol = noise.get("tolerance_pct", default_tol)
        gated = bool(noise.get("gate", False))
        change = (cur - base) / base * 100.0 if base > 0 else 0.0
        # Regression = p50 up for latencies, p50 down for inverted
        # (higher-is-better) metrics.
        regressed = (change > tol if lower_is_better(name, metric_noise)
                     else change < -tol)
        marker = ""
        if regressed:
            marker = "  <-- regression" + (" (gated)" if gated else "")
            (failed if gated else warned).append((name, base, cur, change,
                                                  tol))
        print(f"{name:<24} {base:>14.0f} {cur:>14.0f} {change:>+8.1f}% "
              f"{tol:>5.0f}%{marker}")

    only = sorted(current_names - set(base_p50s))
    if only:
        print(f"(not in baseline: {', '.join(only)})")

    # io.* / scale.* counters: informational diff, never fails. Only the first current run is shown — counters are
    # deterministic, so the runs agree.
    base_info = info_counters(baseline)
    with open(args.current[0]) as f:
        cur_info = info_counters(json.load(f))
    info_names = sorted(set(base_info) | set(cur_info))
    if info_names:
        print(f"\n{'counter':<24} {'baseline':>14} {'current':>14}")
        for name in info_names:
            base = base_info.get(name, 0)
            cur = cur_info.get(name, 0)
            print(f"{name:<24} {base:>14} {cur:>14}")

    for name, base, cur, change, tol in warned:
        print(f"::warning::bench p50 regression: {name} "
              f"{base:.0f} -> {cur:.0f} ({change:+.1f}%, "
              f"tolerance {tol:.0f}%)")
    for name, base, cur, change, tol in failed:
        level = "error" if args.fail else "warning"
        print(f"::{level}::bench p50 regression (gated): {name} "
              f"{base:.0f} -> {cur:.0f} ({change:+.1f}%, "
              f"tolerance {tol:.0f}%)")
    if failed and args.fail:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
