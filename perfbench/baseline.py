"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py                      # 10 seeds, all workloads
    python3 perfbench/baseline.py --seeds 5 --workload law-symbolic
    python3 perfbench/baseline.py --write perfbench/baseline.json

Each run is `run.py --trace 0` in a fresh interpreter, one after the other.
For every metric it prints the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`) and the spread: the distance between the
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json.  `--write` saves the summary with the machine (Python
version, CPU count and, inside a git checkout, the commit), and adds one run
per workload with `--trace 1` and the first seed, for the per-layer metrics
and the largest self times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers: {result}")
    if trace:
        result["report"] = lines[:-1]
    return result


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--write", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    report = {
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "git_sha": git_sha(),
        "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {},
    }
    for workload in workloads:
        results = [run_once(workload, s, bench["run_seconds"]) for s in seeds]
        table = {name: summarise([r["metrics"][name]["value"] for r in results])
                 for name in bounds}
        report["workloads"][workload] = {
            "attempted": [r["attempted"] for r in results], "metrics": table}
        if args.write:
            traced = run_once(workload, seeds[0], bench["run_seconds"], trace=1)
            report["workloads"][workload].update({
                "traced_seed": seeds[0],
                "per_layer": {k: v["value"]
                              for k, v in traced["metrics"].items()},
                "traced_report": traced["report"]})
        print(workload)
        for name, s in table.items():
            print(f"  {name:<12} median {s['median']:11.4f}  q1 {s['q1']:11.4f}"
                  f"  q3 {s['q3']:11.4f}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}")
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
