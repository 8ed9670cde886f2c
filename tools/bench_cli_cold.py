"""Time `cubicalc derive` and `cubicalc table` requests from a cold start.

    python3 tools/bench_cli_cold.py
    python3 tools/bench_cli_cold.py --repeat 5 --write BENCH_cli_cold.json

Each request runs in a fresh interpreter, so nothing is cached from an
earlier request: the in-process benchmark (`perfbench/run.py`) runs its
requests in one process with warm caches and does not see this cost.  For
every request the script records, per repetition, the wall time of the whole
process (interpreter start, import, request), the time of the import and of
the request inside it, the peak RSS of the process, the exit code, and the
size and SHA-256 of standard output, so that two checkouts can be compared
on their outputs too.  Wall time follows the machine's speed; on a shared
machine compare runs made back to back.  `--write` appends the run, with the
machine and the commit of the checkout the script lives in, to the `runs`
list of the file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
REQUESTS = (
    ["derive", "--expr", "f(x)=x^2", "--n", "5", "--alpha", "1"],
    ["derive", "--expr", "f(x,y)=(x*y, x^2 + 3/2*y)", "--n", "3"],
    ["derive", "--expr", "f(x)=x^3 - 2*x", "--N", "1,3", "--alpha", "0",
     "--ring", "mod:7", "--format", "json"],
    ["table", "--construction", "gfull", "--N", "1,2,3,4", "--what", "edge"],
    ["table", "--construction", "scaleoid", "--N", "1,2,3", "--what", "edge",
     "--format", "json"],
    ["table", "--construction", "gfull", "--N", "1,2,3,4", "--what", "vertex"],
)


class _Sink:
    """Standard output that keeps only its size and digest."""

    def __init__(self):
        self.size, self.digest = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.size += len(data)
        self.digest.update(data)
        return len(text)

    def flush(self) -> None:
        pass


def run_request(index: int) -> dict:
    """One request in this process; the peak RSS is this process's."""
    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from cubicalc.cli import run

    imported = perf_counter()
    sink, stdout = _Sink(), sys.stdout
    sys.stdout = sink
    try:
        code = run(list(REQUESTS[index]))
    finally:
        sys.stdout = stdout
    done = perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"import_s": imported - start, "request_s": done - imported,
            "exit": code, "out_bytes": sink.size,
            "out_sha256": sink.digest.hexdigest(), "peak_rss_mb": peak_kb / 1024}


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def cold(index: int) -> dict:
    start = perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--request", str(index)],
                          capture_output=True, text=True, check=False)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"request {REQUESTS[index]} exited "
                           f"{proc.returncode}: {proc.stderr}")
    return {"wall_s": wall, **json.loads(proc.stdout.strip().splitlines()[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--request", type=int,
                    help="run one request in this process and print its JSON")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--write", type=Path)
    args = ap.parse_args()
    if args.request is not None:
        print(json.dumps(run_request(args.request)))
        return 0

    run = {
        "machine": {"python": platform.python_version(),
                    "nproc": os.cpu_count(), "platform": platform.platform()},
        "git_sha": git_sha(), "repeat": args.repeat, "requests": [],
    }
    for index, argv in enumerate(REQUESTS):
        reps = [cold(index) for _ in range(args.repeat)]
        summary = {k: statistics.median(r[k] for r in reps)
                   for k in ("wall_s", "import_s", "request_s", "peak_rss_mb")}
        run["requests"].append({"argv": argv, "median": summary, "runs": reps})
        print(" ".join(argv))
        print("   ", " ".join(f"{k} {v:.3f}" for k, v in summary.items()),
              f"exit {reps[0]['exit']} out_bytes {reps[0]['out_bytes']}")
    if args.write:
        record = (json.loads(args.write.read_text()) if args.write.exists()
                  else {"runs": []})
        record["runs"].append(run)
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
