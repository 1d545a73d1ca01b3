#!/usr/bin/env python3
r"""Run the repo benchmark on every workload, untraced and traced, into one ledger.

    python3 scripts/perf_ledger.py --seconds 2 --out build/BENCH_perfbench.json

Run from anywhere inside a checkout. For each workload named in
BENCHMARK.json it runs `perfbench/run.py --seed 1 --seconds S` at
`--trace 0` and at `--trace 1`, and writes one JSON ledger:

    {"host": "<perfbench's host line>",
     "<workload>": {"trace0": <result line>, "trace1": <result line>}, ...}

A result line is perfbench's last stdout line, as parsed JSON. Exits 1
unless every run produced a result with "correct": true and "failed": 0;
the ledger is written either way, holding every result that was produced.
scripts/bench_diff.py reads the ledger as BENCH_<name>.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOST_PREFIX = "host: "


def run_one(workload: str, seconds: float, trace: int):
    """(stdout lines, result dict or None) of one perfbench run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return lines, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return lines, None
    return lines, result if isinstance(result, dict) else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", required=True, type=float,
                    help="perfbench --seconds for every run")
    ap.add_argument("--out", required=True, type=pathlib.Path,
                    help="ledger file to write")
    args = ap.parse_args()

    with (ROOT / "BENCHMARK.json").open() as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]

    ledger = {"host": None}
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            lines, result = run_one(workload, args.seconds, trace)
            ledger["host"] = ledger["host"] or next(
                (ln[len(HOST_PREFIX):] for ln in lines
                 if ln.startswith(HOST_PREFIX)), None)
            good = (result is not None and result.get("correct") is True
                    and result.get("failed") == 0)
            ok = ok and good
            if not good:  # the check lines say which tally or guard failed
                print("\n".join(lines), file=sys.stderr)
            if result is not None:
                ledger.setdefault(workload, {})[f"trace{trace}"] = result
            status = ("no result" if result is None else
                      f"correct {result.get('correct')} "
                      f"failed {result.get('failed')}")
            print(f"{workload} trace {trace}: {status}", flush=True)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    tmp = args.out.with_name(args.out.name + ".tmp")
    tmp.write_text(json.dumps(ledger, indent=2, allow_nan=False) + "\n")
    os.replace(tmp, args.out)
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
