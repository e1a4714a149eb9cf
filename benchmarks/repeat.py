"""Repeat ``run.py`` over several seeds and summarise every metric.

    python3 benchmarks/repeat.py --seeds 1-10 [--workloads fit,simulate_density]
        [--trace 1] [--out BENCH.json] [--baseline OLD_BENCH.json]

Each metric is reported as the median and quartiles of its per-run values
(``statistics.quantiles(values, n=4)``), the quartile distance as a share of
the median, and the sample count.  The run length is ``run_seconds`` from
BENCHMARK.json.  With ``--baseline``, medians are compared with an earlier
summary; a workload whose input digest differs from the baseline's for the
same seed is flagged and not compared, because its inputs changed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else None}


def compare(summary: dict, baseline: dict) -> list:
    lines = []
    for workload, current in summary["workloads"].items():
        old = baseline.get("workloads", {}).get(workload)
        if old is None:
            continue
        differ = [s for s, digest in current["inputs_sha256"].items()
                  if old["inputs_sha256"].get(s, digest) != digest]
        if differ:
            lines.append(f"{workload}: inputs differ from the baseline for seeds "
                         f"{', '.join(differ)}; not compared")
            continue
        for name, stats in current["metrics"].items():
            before = old["metrics"].get(name)
            if before and before["median"]:
                change = stats["median"] / before["median"] - 1.0
                lines.append(f"{workload} {name}: {before['median']:.6g} -> "
                             f"{stats['median']:.6g} ({change:+.1%})")
    return lines


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary JSON here")
    ap.add_argument("--baseline", help="earlier summary JSON to compare against")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in parse_seeds(args.seeds):
            runs[seed] = run_once(workload, seed, spec["run_seconds"], args.trace)
            result = runs[seed]["result"]
            print(f"{workload} seed {seed}: failed {result['failed']}/"
                  f"{result['attempted']}, correct={result['correct']}, "
                  + ", ".join(f"{k}={result['metrics'][k]['value']:.6g}"
                              for k in bounds if k in result["metrics"]), flush=True)
        names = next(iter(runs.values()))["result"]["metrics"]
        metrics = {}
        for name, first in names.items():
            stats = summarise([r["result"]["metrics"][name]["value"] for r in runs.values()])
            metrics[name] = {**stats, "unit": first["unit"]}
            bound = bounds.get(name)
            if bound is not None:
                steady = stats["spread"] is not None and stats["spread"] < bound / 3
                print(f"  {name}: median {stats['median']:.6g} {first['unit']}, "
                      f"quartiles {stats['q1']:.6g}..{stats['q3']:.6g}, "
                      f"spread {stats['spread']} (bound {bound})"
                      + ("" if steady else "  <-- spread >= bound/3"), flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "inputs_sha256": {str(s): r["info"]["inputs_sha256"] for s, r in runs.items()},
            "failures": {str(s): r["info"]["failures"] for s, r in runs.items()
                         if r["info"]["failures"]},
            "env": next(iter(runs.values()))["info"]["env"],
        }
    if args.baseline:
        with open(args.baseline) as fh:
            for line in compare(summary, json.load(fh)):
                print(line)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
