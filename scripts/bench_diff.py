#!/usr/bin/env python3
"""Compare BENCH_*.json perf metrics against a previous run's artifacts.

Usage:
    bench_diff.py --current PATH [--previous PATH] [--tolerance 0.15]

PATH is a directory of BENCH_*.json files or one such file. For every
artifact present in BOTH (matched by file name; two files are compared
with each other), compares the gated metrics and exits 1 if any regressed
by more than --tolerance (relative):

  * `parallel_speedup` (bench_t1/t2);
  * `window-splice.trace0.trials_per_s` from the benchmark ledger that
    scripts/perf_ledger.py writes. It stands for bench_l1's former
    `lens_off_windows_per_sec`: the same probe (reset-agreement, n=32,
    t=5, lens off), with a much smaller run-to-run spread.

The ledger's same-run ratios (INFORMATIONAL below) are printed but never
gated: their same-seed spread on one host is wider than the tolerance. A
missing previous directory / file / metric is reported and tolerated —
the first run on a branch, or a bench that predates the metric, must not
fail CI.

The REVERSE direction is never silent: a tracked metric (or a whole
artifact) present previously but absent from the current run means a bench
rename or removal just orphaned a gate, and is reported as a loud WARNING
listing the orphaned keys — otherwise a rename would quietly drop the
regression gate along with the metric.
"""

import argparse
import json
import pathlib
import sys

# name -> key path into an artifact. A ledger result keeps each metric as
# {"value": v, "unit": u} under "metrics".
GATED = {
    "parallel_speedup": ("parallel_speedup",),
    "window-splice.trace0.trials_per_s":
        ("window-splice", "trace0", "metrics", "trials_per_s", "value"),
}
INFORMATIONAL = {
    f"{workload}.trace1.{metric}":
        (workload, "trace1", "metrics", metric, "value")
    for workload, metric in (
        ("campaign-lens", "lens.overhead_ratio"),
        ("campaign-lens", "core.pool_efficiency"),
        ("window-adversarial", "sim.adversarial_to_splice_windows_ratio"))
}


def lookup(doc, keys):
    """The number at `keys` inside `doc`, or None."""
    for key in keys:
        if not isinstance(doc, dict):
            return None
        doc = doc.get(key)
    ok = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    return doc if ok else None


def load_metrics(path: pathlib.Path, table=None):
    """The numeric metrics of `table` (default GATED) one artifact holds,
    or {} for anything unusable.

    Truncated, unparsable, or structurally wrong artifacts (a SIGKILLed
    bench, a partial upload) must warn and be skipped, never crash the
    diff: losing one comparison beats failing the whole CI job on a file
    this script didn't write.
    """
    try:
        with path.open() as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        print(f"  ! skipping unreadable {path}: {exc}")
        return {}
    if not isinstance(doc, dict):
        print(f"  ! skipping {path}: top-level JSON is not an object")
        return {}
    found = {m: lookup(doc, keys) for m, keys in (table or GATED).items()}
    return {m: v for m, v in found.items() if v is not None}


def artifacts(path: pathlib.Path):
    """The BENCH_*.json files of a directory, or the file `path` itself."""
    return [path] if path.is_file() else sorted(path.glob("BENCH_*.json"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True, type=pathlib.Path,
                    help="this run's BENCH_*.json: a directory or one file")
    ap.add_argument("--previous", type=pathlib.Path, default=None,
                    help="the previous run's BENCH_*.json: a directory or "
                         "one file")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="max allowed relative regression (default 0.15)")
    args = ap.parse_args()

    current_files = artifacts(args.current)
    if not current_files:
        print(f"bench_diff: no BENCH_*.json under {args.current}", file=sys.stderr)
        return 1

    if args.previous is None or not args.previous.exists():
        print("bench_diff: no previous artifact directory — nothing to compare, passing")
        return 0
    if args.current.is_file() and args.previous.is_file():
        # Two ledgers, e.g. BENCH_17.json and BENCH_18.json: compare them.
        previous = {current_files[0].name: args.previous}
    else:
        previous = {p.name: p for p in artifacts(args.previous)}

    regressions = []
    orphan_warnings = []
    # Artifacts the previous run had but this run did not produce at all:
    # every gated metric they carried is now ungated.
    current_names = {p.name for p in current_files}
    for name, prev_path in sorted(previous.items()):
        gone = sorted(load_metrics(prev_path))
        if name not in current_names and gone:
            orphan_warnings.append((name, gone, "artifact removed"))
    for cur_path in current_files:
        prev_path = previous.get(cur_path.name)
        cur = load_metrics(cur_path)
        if prev_path is None:
            if not cur:
                print(f"{cur_path.name}: no tracked metrics, skipping")
            else:
                print(f"{cur_path.name}: no previous artifact, skipping")
            continue
        prev = load_metrics(prev_path)
        # Gated metrics the previous artifact carried that this run's
        # artifact lost — a bench rename in disguise.
        gone = sorted(set(prev) - set(cur))
        if gone:
            orphan_warnings.append((cur_path.name, gone, "metric removed"))
        if not cur:
            print(f"{cur_path.name}: no tracked metrics, skipping")
            continue
        for metric, cur_val in sorted(cur.items()):
            prev_val = prev.get(metric)
            if prev_val is None:
                print(f"{cur_path.name}: {metric} absent previously, skipping")
                continue
            if prev_val <= 0:
                print(f"{cur_path.name}: previous {metric}={prev_val} unusable, skipping")
                continue
            ratio = cur_val / prev_val
            verdict = "ok"
            if ratio < 1.0 - args.tolerance:
                verdict = "REGRESSION"
                regressions.append((cur_path.name, metric, prev_val, cur_val))
            print(f"{cur_path.name}: {metric} {prev_val:.4f} -> {cur_val:.4f} "
                  f"({(ratio - 1.0) * 100:+.1f}%) {verdict}")
        prev_info = load_metrics(prev_path, INFORMATIONAL)
        for metric, cur_val in sorted(load_metrics(cur_path,
                                                   INFORMATIONAL).items()):
            prev_val = prev_info.get(metric)
            was = "absent" if prev_val is None else f"{prev_val:.4f}"
            print(f"{cur_path.name}: {metric} {was} -> {cur_val:.4f} "
                  f"(not gated)")

    if orphan_warnings:
        print(f"\nbench_diff: WARNING: {len(orphan_warnings)} artifact(s) lost "
              f"previously gated metrics — a bench rename/removal has "
              f"orphaned these gates:", file=sys.stderr)
        for name, keys, why in orphan_warnings:
            print(f"  {name}: {why}, orphaned keys: {', '.join(keys)}",
                  file=sys.stderr)
        print("  (rename the artifact/metric in BOTH runs, or drop it from "
              "GATED deliberately)", file=sys.stderr)

    if regressions:
        print(f"\nbench_diff: {len(regressions)} metric(s) regressed more than "
              f"{args.tolerance:.0%}:", file=sys.stderr)
        for name, metric, prev_val, cur_val in regressions:
            print(f"  {name}: {metric} {prev_val:.4f} -> {cur_val:.4f}",
                  file=sys.stderr)
        return 1
    print("bench_diff: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
