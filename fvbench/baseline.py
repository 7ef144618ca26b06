"""Runs the benchmark over several seeds and summarises each metric.

Usage:
    python3 fvbench/baseline.py --out fvbench/baseline.json

It makes one untraced run per seed (1 to 10) and workload, for the
``run_seconds`` and the workloads of BENCHMARK.json, one process at a time
and with the workloads interleaved seed by seed, so that a slow spell of the
machine spreads over all workloads rather than shifting one of them; then one
traced run per workload on the first seed. Each end-to-end metric gets its
median, quartiles and spread (the distance between the quartiles as a share
of the median, from ``statistics.quantiles(values, n=4)``); the traced run
gives the per-layer split. Runs on the same machine before and after a
change compare like with like; figures from another machine do not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".fvbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text(encoding="utf-8"))
    return {"result": result, "report": report}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    untraced = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            untraced[workload].append(run(workload, seed, seconds, 0))
    doc = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in workloads:
        runs = untraced[workload]
        traced = run(workload, SEEDS[0], seconds, 1)
        metrics = {name: summary([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        doc["environment"] = runs[0]["report"]["environment"]
        doc["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "failed": sum(r["result"]["failed"] for r in runs + [traced]),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "hashes": {str(s): r["report"]["hashes"] for s, r in zip(SEEDS, runs)},
        }
        for name, m in metrics.items():
            flag = "" if m["spread"] is not None and m["spread"] < bounds[name] / 3 else \
                "  <-- spread not below a third of the bound"
            print(f"{workload:<16} {name:<22} median {m['median']:<12.6g} "
                  f"spread {m['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
