"""Record a baseline: every workload on ten seeds untraced, and once traced.

    python3 perfbench/baseline.py [OUT.json]

Runs `run.py` as the benchmark's driver would, from the checkout root, and
writes, per workload, each end-to-end metric's ten values, their median and
their spread (distance between the first and third quartile over the
median), plus the per-layer metrics of one traced run, with the Python and
numpy versions and the processor count.  Default output:
perfbench/baseline.json.  It takes about 25 minutes on two cores.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> None:
    out = Path(argv[0]) if argv else HERE / "baseline.json"
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    record = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for seed in SEEDS:
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = {
                "unit": m["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": m["bound"],
                "values": values,
            }
        traced = run_once(name, TRACE_SEED, seconds, 1)
        record["workloads"][name] = {
            "why": w["why"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(name, {k: (round(v["median"], 4), round(v["spread"], 4)) for k, v in metrics.items()}, flush=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
