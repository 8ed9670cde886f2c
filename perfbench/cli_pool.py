"""The request pool of the cli-mix workload, and its expected answers.

    python3 perfbench/cli_pool.py      # rewrite perfbench/cli_expected.json

The pool has 100 slots.  A slot fixes the verb, the ring, the output format
and the size of its requests (map shape, order n, construction, table and
filter); its VARIANTS variants differ in coefficients, points, scales and
check seeds (the variants of a table slot are all the same).  A
run takes one variant per slot, chosen by the workload seed, so every seed
sends the same mix at the same size.  `eval` slots hold pairs of requests,
closed mode then iterated mode, which must print the same value.  Half the
requests use the ring Z/(2^31 - 1).

The expected exit code and the SHA-256 of standard output of every request
were recorded by this script; rerun it only when an output is meant to
change.
"""
from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

POOL_SEED = 20261017
VARIANTS = 6
MOD = "mod:2147483647"
P = 2147483647


def _scalar(rng, modular: bool) -> str:
    """A nonzero scalar: an element of Z/P, or one of the rationals of
    workloads.VALUES, which all have the same height."""
    from workloads import VALUES

    return str(rng.randrange(1, P) if modular else rng.choice(VALUES))


def _monomial(exps, names) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) or "1"


def _shape(rng, arity: int, comps: int, terms: int, degree: int) -> list:
    """Monomials of each component (fixed for a slot)."""
    out = []
    for _ in range(comps):
        mons = set()
        while len(mons) < terms:
            e = [0] * arity
            for _ in range(rng.randint(0, degree)):
                e[rng.randrange(arity)] += 1
            mons.add(tuple(e))
        out.append(sorted(mons, reverse=True))
    return out


def _expr(rng, shape, modular: bool) -> str:
    names = ["x", "y"][:len(shape[0][0])]
    comps = [" + ".join(f"{_scalar(rng, modular)}*{_monomial(e, names)}"
                        for e in comp) for comp in shape]
    body = comps[0] if len(comps) == 1 else "(" + ", ".join(comps) + ")"
    return f"f({','.join(names)}) = {body}"


def _common(modular: bool, fmt: str) -> list:
    return (["--ring", MOD] if modular else []) + ["--format", fmt]


def _slot_requests(kind: str, slot_rng, modular: bool, fmt: str):
    """A generator of variants (lists of argv) for one slot."""
    common = _common(modular, fmt)
    if kind == "slope":
        shape = _shape(slot_rng, slot_rng.choice((1, 2)), slot_rng.choice((1, 2)),
                       3, 3)
        return lambda rng: [["slope", "--expr", _expr(rng, shape, modular)]
                            + common]
    if kind.startswith("derive"):
        n = int(kind[-1])
        arity = 1 if n == 3 else slot_rng.choice((1, 2))
        shape = _shape(slot_rng, arity, 1 if n == 3 else 2, 3, 3)
        alpha = slot_rng.choice([None, "0"] + ["".join(map(str, c))
                                               for k in range(1, n + 1)
                                               for c in itertools.combinations(
                                                   range(1, n + 1), k)])
        extra = ["--alpha", alpha] if alpha is not None else []
        return lambda rng: [["derive", "--expr", _expr(rng, shape, modular),
                             "--n", str(n)] + extra + common]
    if kind.startswith("eval"):
        n = int(kind[-1])
        arity = slot_rng.choice((1, 2))
        shape = _shape(slot_rng, arity, slot_rng.choice((1, 2)), 3, 3)
        digits = ["--digits", "4"] if not modular and fmt == "text" \
            and slot_rng.random() < 0.5 else []

        # scalar lists go as --name=value: a value such as -1/2 would
        # otherwise be read as an option
        def variant(rng):
            args = ["eval", "--expr", _expr(rng, shape, modular),
                    "--order", str(n),
                    "--point=" + ",".join(_scalar(rng, modular)
                                          for _ in range(arity)),
                    "--v=" + ",".join(_scalar(rng, modular)
                                      for _ in range(((1 << n) - 1) * arity)),
                    "--t=" + ",".join(_scalar(rng, modular)
                                      for _ in range(n))] + digits + common
            return [args + ["--mode", "closed"], args + ["--mode", "iterated"]]
        return variant
    if kind == "table":
        construction = slot_rng.choice(("gfull", "scaleoid"))
        N = slot_rng.choice(("1", "1,2", "2,3", "1,2,3"))
        dirs = [int(x) for x in N.split(",")]
        what = slot_rng.choice(("vertex", "edge"))
        subsets = ["".join(map(str, c)) for k in range(len(dirs) + 1)
                   for c in itertools.combinations(dirs, k)]
        if what == "vertex":
            filters = [None] + [["--alpha", s or "0"] for s in subsets]
        else:
            filters = [None] + [["--edge", f"{lo or '0'}>{hi}"]
                                for lo in subsets for hi in subsets
                                if len(hi) == len(lo) + 1 and set(lo) <= set(hi)]
        # a table does not depend on the seed's inputs; its filter is fixed
        # per slot, as the size of its output sets the cost of a request
        argv = ["table", "--construction", construction, "--N", N,
                "--what", what] + (slot_rng.choice(filters) or []) + common
        return lambda rng: [list(argv)]
    if kind == "check":
        construction, n = slot_rng.choice(
            [(c, n) for c in ("pg", "sa", "gsy", "gfull", "scaleoid", "tangent")
             for n in (1, 2)] + [("goverline", 1)])
        with_s = construction == "gsy" and slot_rng.random() < 0.3

        def variant(rng):
            args = ["check", "--construction", construction, "--n", str(n),
                    "--samples", "4", "--seed", str(rng.randrange(1 << 20))]
            if construction == "gsy":
                args.append("--t=" + ",".join(_scalar(rng, modular)
                                              for _ in range(n)))
                if with_s:
                    args.append("--s=" + ",".join(
                        _scalar(rng, modular) for _ in range(n)))
            return [args + common]
        return variant
    raise ValueError(kind)


SLOT_KINDS = (["slope"] * 20 + ["derive1"] * 8 + ["derive2"] * 8
              + ["derive3"] * 4 + ["eval1"] * 6 + ["eval2"] * 8 + ["eval3"] * 6
              + ["table"] * 20 + ["check"] * 20)


def build_pool() -> list:
    """Slots of argv variants (each variant a list of one or two requests)."""
    rng = random.Random(POOL_SEED)
    slots = []
    for i, kind in enumerate(SLOT_KINDS):
        modular = i % 2 == 1
        fmt = "json" if (i // 2) % 2 else "text"
        make = _slot_requests(kind, rng, modular, fmt)
        slots.append({"kind": kind,
                      "variants": [make(rng) for _ in range(VARIANTS)]})
    return slots


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import load_program

    load_program()
    from workloads import CLI_EXPECTED, digest, run_cli

    slots = build_pool()
    for slot in slots:
        variants = []
        for variant in slot["variants"]:
            outs = []
            entries = []
            for argv in variant:
                code, out, err = run_cli(argv)
                if code != 0 or err:
                    raise SystemExit(f"{argv}: exit {code}: {err}")
                outs.append(out)
                entries.append({"argv": argv, "exit": code,
                                "sha256": digest(out)})
            if len(set(outs)) != 1:
                raise SystemExit(f"closed and iterated disagree: {variant}")
            variants.append(entries)
        slot["variants"] = variants
    with open(CLI_EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(f'{{"pool_seed": {POOL_SEED}, "slots": [\n')
        fh.write(",\n".join(json.dumps(slot) for slot in slots))
        fh.write("\n]}\n")
    print(f"wrote {CLI_EXPECTED} ({sum(len(v) for s in slots for v in s['variants'])}"
          " requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
