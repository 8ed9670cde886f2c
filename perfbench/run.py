"""cubicalc benchmark runner: one workload, one seed, one caller.

    python3 perfbench/run.py --workload axiom-sampled --seed 1 --seconds 35 --trace 0

The load is a closed loop with a single caller thread: the next op starts when
the previous one has returned.  A pass runs the ops of the workload once, in a
fixed order; passes repeat while another one fits in `--seconds` (at least
one pass always runs).  Op times are measured with SpeedClock.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics.  With `--trace 1` the same untraced passes run, then one
more pass with the layer wrappers of tracing.py installed; the last line then
holds the per-layer metrics, and the spans are written to
`.bench_trace/<workload>.spans.jsonl` under the checkout.

Exit code 2, without a result line, when the program's sources are missing.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from math import exp, log, log1p
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("axiom-sampled", "law-symbolic", "cli-mix")
SETUP_PROBES = 9


class ProgramMissing(RuntimeError):
    pass


class SpeedClock:
    """Op time rescaled to a machine of fixed speed.

    The machine this benchmark was built on is shared, and its speed switches
    between two levels about a factor 2 apart, several times a minute.  The
    clock measures the speed with a calibration loop of fixed Python work
    (exact fractions and a dict, like the program's hot paths) before an op,
    after it, and every TICK_S while it runs (from a SIGALRM handler, so a
    long op sees the switches inside it).  Each stretch of wall time between
    two measurements counts as stretch * CAL_REF_S / (mean of the two
    calibration times); the calibration time itself is left out.
    """

    CAL_REF_S = 0.0005  # figures are seconds of a machine where the loop takes this
    TICK_S = 0.025

    def __init__(self, ticks: bool = True):
        self.ticks = ticks
        self.work = self.wall = 0.0
        self._t = self._c = 0.0
        self._ticking = False

    @staticmethod
    def calibrate() -> float:
        # with the collector off, so that a collection the program owes is
        # not run (and left out of the op time) inside the calibration loop
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            a, s, d = Fraction(1, 3), Fraction(0), {}
            for i in range(100):
                s += a * Fraction(i, 7)
                d[i] = s
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def _mark(self) -> None:
        now = perf_counter()
        c = self.calibrate()
        self.work += (now - self._t) * self.CAL_REF_S / ((c + self._c) / 2)
        self.wall += now - self._t
        self._c = c
        self._t = perf_counter()

    def _tick(self, signum, frame) -> None:
        # one-shot timer, re-armed here, so that ticks never nest
        if self._ticking:
            self._mark()
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S)

    def start(self) -> None:
        self.work = self.wall = 0.0
        self._c = self.calibrate()
        self._t = perf_counter()
        if self.ticks:
            self._ticking = True
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.TICK_S)

    def stop(self) -> float:
        """The op's rescaled time; its wall time is left in self.wall."""
        if self.ticks:
            self._ticking = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._mark()
        return self.work


def load_program():
    """Import cubicalc from the checkout's `src/`, and from nowhere else."""
    pkg = ROOT / "src" / "cubicalc"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no cubicalc sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import cubicalc

    if Path(cubicalc.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"cubicalc was imported from {cubicalc.__file__}")
    return cubicalc


def setup(workload: str, seed: int) -> list:
    import workloads

    return workloads.build_ops(workload, workloads.make_inputs(workload, seed))


def probe_setup_s(workload: str, seed: int) -> float:
    """Time from starting a fresh interpreter to its first op (rescaled by
    the speed measured just before and after)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--probe-setup"]
    clock = SpeedClock(ticks=False)
    clock.start()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        setup_s = clock.stop()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return setup_s


def run_pass(ops, indexes, tracer=None) -> dict:
    """Run the ops at `indexes` once, in order.  Returns, per op index, its
    latency (rescaled by SpeedClock) and the digest of its answer, the wall
    time of the ops, and the number of failed ops.  The traced pass takes no
    speed ticks, which would land inside its spans."""
    clock = SpeedClock(ticks=tracer is None)
    latency, answer = {}, {}
    wall = 0.0
    failed = 0
    for i in indexes:
        op = ops[i]
        if tracer is not None:
            tracer.op_id = i
        clock.start()
        error = None
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        finally:
            latency[i] = clock.stop()
            wall += clock.wall
        if error is not None:
            failed += 1
            answer[i] = f"raised {type(error).__name__}"
            print(f"op {i} ({op.kind}) raised {type(error).__name__}: {error}",
                  file=sys.stderr)
            continue
        ok, text = op.check(result)
        if not ok:
            failed += 1
            print(f"op {i} ({op.kind}) gave a wrong answer", file=sys.stderr)
        answer[i] = hashlib.sha256(f"{ok} {text}".encode()).hexdigest()
    return {"latency": latency, "answer": answer, "wall": wall,
            "failed": failed}


def answers_agree(passes) -> bool:
    """Every op gave the same answer in every pass it ran in."""
    seen: dict = {}
    return all(seen.setdefault(i, a) == a
               for p in passes for i, a in p["answer"].items())


def pass_digest(p) -> str:
    return hashlib.sha256("".join(
        f"{i} {a}\n" for i, a in sorted(p["answer"].items())).encode()).hexdigest()


def quantile(values, q: float, grid: int = 8192) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of the order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density.  Unlike one
    order statistic it does not jump when a gap between two groups of ops
    falls at rank q*n."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = [0.0] * n
    for k in range(grid):
        t = (k + 0.5) / grid
        weights[min(n - 1, int(t * n))] += exp((a - 1) * log(t)
                                               + (b - 1) * log1p(-t))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.probe_setup:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    setup_s = statistics.median(probe_setup_s(args.workload, args.seed)
                                for _ in range(SETUP_PROBES))
    ops = setup(args.workload, args.seed)

    # Whole passes, while the next one fits in --seconds at the length of
    # the last one.  The first pass runs every op; the later ones leave out
    # the few ops that run once per run (Op.every_pass).
    everything = range(len(ops))
    repeated = [i for i, op in enumerate(ops) if op.every_pass]
    passes = []
    begin = perf_counter()
    while True:
        gc.collect()
        start = perf_counter()
        passes.append(run_pass(ops, repeated if passes else everything))
        now = perf_counter()
        if now - begin + (now - start) > args.seconds:
            break
    # an op's latency is its median over the passes it ran in
    per_op = [statistics.median(p["latency"][i] for p in passes
                                if i in p["latency"]) for i in everything]
    attempted = sum(len(p["latency"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and answers_agree(passes)

    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(per_op), "1/s"),
        "op_ms.p50": (1000 * quantile(per_op, 0.5), "ms"),
        "op_ms.p90": (1000 * quantile(per_op, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} ops ({len(repeated)} after the first), {attempted} ops "
          f"in all; answer digest {pass_digest(passes[0])}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<12} {value:12.4f} {unit}")
    print(f"  {'fail_ratio':<12} {failed / attempted:12.4f} 1 "
          f"({failed} of {attempted})")
    print(f"  op_ms.p50 and op_ms.p90 are estimated from {len(ops)} op latencies,"
          f" each the median over the passes it ran in; {len(ops) // 10} lie "
          "above p90")
    print(f"  times are rescaled by SpeedClock; wall clock: "
          f"{attempted / sum(p['wall'] for p in passes):.4f} ops/s")
    metrics = end_to_end

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            traced = run_pass(ops, everything, tracer)
        finally:
            tracer.remove()
        layer = tracer.layer_metrics()
        layer["trace.overhead_ratio"] = sum(traced["latency"].values()) \
            / sum(per_op)
        correct = correct and traced["failed"] == 0 \
            and traced["answer"] == passes[0]["answer"]
        tracer.write_spans(ROOT / ".bench_trace" / f"{args.workload}.spans.jsonl")
        print(f"traced pass: answer digest {pass_digest(traced)}, "
              f"{len(tracer.spans)} spans; self time by layer")
        for name, (self_s, spans) in sorted(tracer.layer_self_times().items(),
                                            key=lambda kv: -kv[1][0]):
            print(f"  {name:<14} {self_s:10.4f} s  {spans:9d} spans")
        print("  largest self times by span name")
        self_s = tracer.self_times()["self_s"]
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
            print(f"    {name:<40} {value:10.4f} s")
        for name, value in layer.items():
            print(f"  {name:<30} {value:14.6f}")
        print("  presentation.accept_ratio is over the "
              f"{tracer.counts['presentation.constrained_satisfies']} satisfies"
              " calls of schemas with constraints (1 when there are none);"
              f" polymap.evals_per_map is over {len(tracer.maps_evaluated)}"
              " PolyMaps")
        metrics = {name: (value, _unit(name)) for name, value in layer.items()}
        attempted += len(traced["latency"])
        failed += traced["failed"]

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_map")):
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
