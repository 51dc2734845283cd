"""Run the benchmark over several seeds and summarise it, as the comparison
of two commits needs: per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile distance over the median), plus one
traced run's per-layer metrics.

    python3 perfbench/series.py --runs 10 --first-seed 1 --label NAME \
        [--workload W ...] [--out FILE]

Run from the root of a checkout.  The summary is printed as JSON and, with
``--out``, written to FILE.
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

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(results) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "values": values}
    return out


def machine() -> dict:
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            names = [ln.split(":", 1)[1].strip() for ln in fh
                     if ln.startswith("model name")]
        cpu = names[0] if names else cpu
    return {"cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version(), "system": platform.system()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"label": args.label, "machine": machine(), "run_seconds": seconds,
           "workloads": {}}
    for w in workloads:
        results = [one_run(w, args.first_seed + i, seconds, 0)
                   for i in range(args.runs)]
        traced = one_run(w, args.first_seed, seconds, 1)
        summary = summarise(results)
        doc["workloads"][w] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_wall_s": [round(r["wall_s"], 1) for r in results],
            "traced_run_wall_s": round(traced["wall_s"], 1),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for name, s in summary.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  above bound/3"
            print(f"{w} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.3f}{flag}", file=sys.stderr)
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
