"""Time the n=3 symbolic layer on the map of the ROADMAP's performance aim.

    python3 tools/bench_symbolic_n3.py
    python3 tools/bench_symbolic_n3.py --write BENCH_int_coeffs_n3.json

The map is f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3).  Two cases, each
in a fresh interpreter so that each has its own peak RSS:

- `full_slope`: `full_slope(f, 3)`;
- `law_check`: `derive_law_full(f, 3)`, then `check_law_compatibility` on it.

The benchmark in `perfbench/` does not reach the second case.  For every
step the script prints wall seconds, CPU seconds and the size of the result,
and per case the peak RSS of its process.  Wall time follows the machine's
speed; on a shared machine compare runs made back to back.  `--write`
appends the run, with the machine and the commit of the checkout the script
lives in, to the `runs` list of the file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]
F_TEXT = "f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3)"
N = 3
CASES = ("full_slope", "law_check")


def timed(fn, *args) -> tuple:
    wall, cpu = perf_counter(), process_time()
    out = fn(*args)
    return out, {"wall_s": perf_counter() - wall, "cpu_s": process_time() - cpu}


def run_case(case: str) -> dict:
    """One case in this process; the peak RSS is this process's."""
    sys.path.insert(0, str(ROOT / "src"))
    from cubicalc.laws import check_law_compatibility, derive_law_full
    from cubicalc.parser import parse
    from cubicalc.slopes import full_slope

    f = parse(F_TEXT)
    steps = {}
    if case == "full_slope":
        m, steps["full_slope"] = timed(full_slope, f, N)
        steps["full_slope"]["terms"] = sum(len(c.terms) for c in m.comps)
        steps["full_slope"]["in_arity"] = m.in_arity
    else:
        law, steps["derive_law_full"] = timed(derive_law_full, f, N)
        reports, steps["check_law_compatibility"] = timed(
            check_law_compatibility, law)
        steps["check_law_compatibility"]["reports"] = len(reports)
        steps["check_law_compatibility"]["failed"] = sum(
            not r.ok for r in reports)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"steps": steps, "peak_rss_mb": peak_kb / 1024}


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", choices=CASES,
                    help="run one case in this process and print its JSON")
    ap.add_argument("--write", type=Path)
    args = ap.parse_args()
    if args.case:
        print(json.dumps(run_case(args.case)))
        return 0

    run = {
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "git_sha": git_sha(), "map": F_TEXT, "n": N, "cases": {},
    }
    for case in CASES:
        proc = subprocess.run([sys.executable, __file__, "--case", case],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"case {case} exited {proc.returncode}: "
                               f"{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        run["cases"][case] = result
        print(case, f"peak_rss_mb {result['peak_rss_mb']:.1f}")
        for step, figures in result["steps"].items():
            print("  ", step, " ".join(f"{k} {v:.3f}" if isinstance(v, float)
                                       else f"{k} {v}"
                                       for k, v in figures.items()))
    if args.write:
        record = (json.loads(args.write.read_text()) if args.write.exists()
                  else {"runs": []})
        record["runs"].append(run)
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
