"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads lab-suite --seeds 1-10 --trace 0

`--seeds 1 --trace 0,1` is the one command that prints, for every workload,
its end-to-end metrics, every per-layer metric, and the operations
attempted and failed.

Each run is `perfbench/run.py` in a fresh process with BENCHMARK.json's
run_seconds. Every result line is appended to perfbench/results/<tag>.jsonl;
the summary gives, per workload and metric, the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound. Traced runs also report the wall time
the traced run printed (`traced_wall_s`); its difference from the untraced
`wall_s` is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def _one_set(bench, workload: str, trace: int, seeds: list, out: Path,
             bounds: dict) -> int:
    runs = []
    for seed in seeds:
        cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        took = time.monotonic() - start
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        traced = [float(line.split()[2]) for line in lines
                  if line.startswith("traced wall_s ")]
        if traced:
            result["metrics"]["traced_wall_s"] = {"value": traced[0],
                                                  "unit": "s"}
        runs.append(result)
        with out.open("a") as fh:
            fh.write(json.dumps({"workload": workload, "seed": seed,
                                 "trace": trace, "run_s": took,
                                 **result}) + "\n")
        print(f"{workload} seed {seed} trace {trace}: {took:.1f} s, "
              f"correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    for metric in runs[0]["metrics"]:
        vals = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else 0.0
        bound = bounds.get(metric)
        print(f"  {workload} {metric}: median {med:.6g} "
              f"q1 {q1:.6g} q3 {q3:.6g} spread {share:.2%}"
              + (f" (bound {bound:.0%})" if bound else ""))
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"  {workload} failed share: {sorted(shares)}")
    return 0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--trace", default="0",
                    help="0 (end to end), 1 (per layer) or 0,1 (both)")
    ap.add_argument("--tag", default=time.strftime("%Y%m%dT%H%M%S"))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = HERE / "results" / f"{args.tag}.jsonl"
    out.parent.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            if _one_set(bench, workload, trace, _seeds(args.seeds), out,
                        bounds):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
