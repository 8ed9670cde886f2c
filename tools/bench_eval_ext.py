"""Time `cubicalc eval` at high orders, one request per fresh interpreter.

    python3 tools/bench_eval_ext.py
    python3 tools/bench_eval_ext.py --write BENCH_eval_ext.json --label after

The requests evaluate the symmetric slope f^[n] of the map
f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3) at one fixed point:
`--mode iterated` at orders 4-12 with unit scales (all 2) and at orders
4-10 with zero scales (all 0) and mixed scales (2, 0, -1/3, repeated);
`--mode closed` at orders 4-12 with unit scales, for this map and for
f(x) = x^2.  Closed mode refuses scales that are not units, so it is not
run at zero or mixed scales.

Each request runs in a child process under a 1.5 GB address-space limit
(`RLIMIT_AS`, set in the child only) and a 60 s timeout.  A request that
runs out of either is recorded as not run, and so are the higher orders of
its series, which cost more.  For every request the script records the
wall time of the whole process (interpreter start, import, request), the
time of the request inside it, the peak RSS of the child, the exit code, and
the SHA-256 of standard output, so that two checkouts can be compared on
their answers too.  The script imports cubicalc from `src/` of the checkout
it lives in; copy it (with `bench_cli_cold.py`, whose helpers it uses) into
another checkout to time that one.  `--write` appends the run, with the
machine, the commit and `--label`, to the `runs` list of the file.
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
from time import perf_counter

from bench_cli_cold import _Sink, git_sha

ROOT = Path(__file__).resolve().parents[1]
AIM1 = "f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3)"
SQUARE = "f(x)=x^2"
SCALES = {"unit": ["2"], "zero": ["0"], "mixed": ["2", "0", "-1/3"]}
# (map, mode, scales, orders)
SERIES = [(AIM1, "iterated", "unit", range(4, 13)),
          (AIM1, "iterated", "zero", range(4, 11)),
          (AIM1, "iterated", "mixed", range(4, 11)),
          (AIM1, "closed", "unit", range(4, 13)),
          (SQUARE, "closed", "unit", range(4, 13))]
ADDRESS_LIMIT = 1500 * 10 ** 6  # bytes
TIMEOUT_S = 60


def argv_for(expr: str, mode: str, scales: str, n: int) -> list:
    p = 2 if expr == AIM1 else 1
    cycle = SCALES[scales]
    v = ["1/2", "2", "-3/4", "3"]
    return ["eval", "--expr", expr, "--order", str(n),
            "--point", ",".join(["1", "-2"][:p]),
            "--t", ",".join(cycle[i % len(cycle)] for i in range(n)),
            "--v", ",".join(v[i % 4] for i in range(((1 << n) - 1) * p)),
            "--mode", mode]


def run_request(argv: list) -> dict:
    """One request in this process; the peak RSS is this process's."""
    sys.path.insert(0, str(ROOT / "src"))
    from cubicalc.cli import run

    sink, stdout = _Sink(), sys.stdout
    start = perf_counter()
    sys.stdout = sink
    try:
        code = run(argv)
    finally:
        sys.stdout = stdout
    done = perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"request_s": done - start, "exit": code,
            "out_sha256": sink.digest.hexdigest(), "peak_rss_mb": peak_kb / 1024}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def cold(argv: list) -> dict:
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--request", json.dumps(argv)],
            capture_output=True, text=True, check=False, timeout=TIMEOUT_S,
            preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        return {"status": f"not run: over {TIMEOUT_S} s"}
    wall = perf_counter() - start
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"status": f"not run: exited {proc.returncode} ({last})"}
    return {"status": "ok", "wall_s": wall,
            **json.loads(proc.stdout.strip().splitlines()[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--request", help="run one request (a JSON argv) in this "
                    "process and print its JSON")
    ap.add_argument("--write", type=Path)
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    if args.request is not None:
        print(json.dumps(run_request(json.loads(args.request))))
        return 0

    run = {
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "git_sha": git_sha(), "label": args.label,
        "address_limit_bytes": ADDRESS_LIMIT, "timeout_s": TIMEOUT_S,
        "requests": [],
    }
    for expr, mode, scales, orders in SERIES:
        stopped = None
        for n in orders:
            argv = argv_for(expr, mode, scales, n)
            result = cold(argv) if stopped is None else \
                {"status": f"not run: order {stopped} was not run"}
            if result["status"] != "ok" and stopped is None:
                stopped = n
            run["requests"].append({"map": expr, "mode": mode,
                                    "scales": scales, "order": n, **result})
            shown = (f"wall {result['wall_s']:.3f} s  request "
                     f"{result['request_s']:.3f} s  peak "
                     f"{result['peak_rss_mb']:.1f} MB  exit {result['exit']}"
                     if result["status"] == "ok" else result["status"])
            print(f"{mode:<8} {scales:<5} order {n:>2}  {expr:<10.10}  {shown}",
                  flush=True)
    if args.write:
        record = (json.loads(args.write.read_text()) if args.write.exists()
                  else {"runs": []})
        record["runs"].append(run)
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
