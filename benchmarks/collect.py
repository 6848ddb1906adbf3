#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 benchmarks/collect.py --workloads mc_estimators spectral_oracle \\
        --seeds 1 2 3 4 5 --out .bench_out/summary.json

Runs ``benchmarks/run.py`` once per (workload, seed), one run at a time, and
writes for every metric its values, median, quartiles and spread (the
distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median), next to
the bound from BENCHMARK.json.  The same summary of two commits gives the
before and after numbers of a performance change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / abs(q2)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {seed} exited {proc.returncode}: {proc.stderr}")
            *report, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            result["run_s"] = time.perf_counter() - t
            runs.append(result)
            print(f"{w} seed={seed} {result['run_s']:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            # every metric the run printed, the ungated ones included
            print("\n".join(report[1:-1]), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
                     "bound": bounds.get(name)}
            if len(values) >= 2 and statistics.median(values) != 0:
                q1, q2, q3, sp = spread(values)
                entry.update(q1=q1, median=q2, q3=q3, spread=sp)
            metrics[name] = entry
            if entry.get("spread") is not None and entry["bound"] is not None:
                print(f"  {name:24s} median {entry['median']:.5g} spread {entry['spread']:.4f} "
                      f"(bound {entry['bound']})", flush=True)
        with open(os.path.join(ROOT, ".bench_out",
                               f"{w}-seed{args.seeds[0]}-trace{args.trace}.json")) as fh:
            prov = json.load(fh)["provenance"]
        summary.setdefault("provenance", {k: v for k, v in prov.items()
                                          if k not in ("workload", "seed", "trace")})
        summary["workloads"][w] = {
            "metrics": metrics,
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "run_s": [r["run_s"] for r in runs],
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
