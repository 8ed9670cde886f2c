"""The three workloads: inputs made from a seed, ops, and their known answers.

An op is one timed call into a public cubicalc entry point.  Every op comes
with a check that compares its result with a known answer and returns the
text of which the op's answer digest is made.  Ops reach cubicalc through
module attributes (`checks.check_edge_category`, ...), so the tracer's
wrappers apply to them.

Random maps have fixed monomials, and random scalars come from VALUES, so
the work of a pass hardly depends on the seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

from cubicalc import checks, cli, constructions, laws, parser, slopes, twotyped
from cubicalc.derive import tlab, vlab
from cubicalc.polymap import Poly, PolyMap
from cubicalc.rings import QQ

WORKLOADS = ("axiom-sampled", "law-symbolic", "cli-mix")
CLI_EXPECTED = Path(__file__).resolve().parent / "cli_expected.json"

# samples per law in every edge and face check: the count of the profile
# that motivated this workload (c04 itself uses 100, at which one pass takes
# about two minutes)
AXIOM_SAMPLES = 10
MUTANT_SAMPLES = 12  # enough that every planted corruption is caught
# cubes of dimension CHECK_EVERY_OTHER_FROM and up (12 to 32 edges, 6 to 24
# faces) have every other edge and face checked, so that a pass fits in a run
# several times at AXIOM_SAMPLES
CHECK_EVERY_OTHER_FROM = 3
BOX = (Fraction(-1), Fraction(1))
# scales of the box-constrained structures; with |t| <= 1 the samplers of
# their constrained schemas reject some points (accept_ratio in the traced run)
SMALL_UNITS = tuple(Fraction(s * a, b) for s in (1, -1)
                    for a, b in ((1, 2), (2, 3), (1, 1), (1, 3), (3, 4)))

F_TEXT = "f(x,y) = (x^3*y + 2*x*y^2 - y^4, x^2 - 3/2*y^3)"
# (terms, input variables) of the results for F_TEXT; n = 3 of full_slope is
# the figure stated with the workload, the others were recorded with it
FULL_SLOPE_SIZE = {1: (21, 5), 2: (309, 11), 3: (25125, 23)}
SYM_ITERATED_SIZE = {1: (21, 5), 2: (138, 10), 3: (1252, 19)}
# random scalars: nonzero, and all of the same height, so that the cost of
# exact arithmetic does not depend on the seed
VALUES = tuple(Fraction(s * a, b) for s in (1, -1)
               for a, b in ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)))
SHAPES = {1: ((3,), (2,), (1,), (0,)),
          2: ((3, 0), (1, 1), (0, 2), (0, 1))}


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (ok, digest text)
    every_pass: bool = True  # False: only in the first pass of a run


def make_inputs(workload: str, seed: int) -> dict:
    """Everything cubicalc receives, as plain data; the same seed gives the
    same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return {"axiom-sampled": _axiom_inputs, "law-symbolic": _law_inputs,
            "cli-mix": _cli_inputs}[workload](rng)


def build_ops(workload: str, inputs: dict) -> list[Op]:
    return {"axiom-sampled": _axiom_ops, "law-symbolic": _law_ops,
            "cli-mix": _cli_ops}[workload](inputs)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _value(rng) -> Fraction:
    return rng.choice(VALUES)


def _shaped_map(coeffs) -> PolyMap:
    """One-component map over x0, x1, ... from (exponents, coefficient) pairs."""
    arity = len(coeffs[0][0])
    return PolyMap(QQ, tuple(f"x{i}" for i in range(arity)),
                   (Poly(QQ, arity, dict(coeffs)),))


def _reports_text(reports) -> str:
    return ";".join(f"{r.law}@{r.location}:{r.status}/{r.samples}"
                    for r in reports)


def _all_pass(reports) -> tuple:
    return (bool(reports) and all(r.ok for r in reports),
            _reports_text(reports))


def _some_fail_with_witness(reports) -> tuple:
    bad = next((r for r in reports if not r.ok), None)
    ok = bad is not None and bad.witness is not None
    wit = json.dumps(bad.witness, sort_keys=True) if ok else ""
    return ok, _reports_text(reports) + "|" + wit


# ---------------------------------------------------------------------------
# axiom-sampled: the c04 list edge by edge and face by face, box-constrained
# gsy, and planted corruptions
# ---------------------------------------------------------------------------


def _axiom_inputs(rng) -> dict:
    pres = []
    for n in (1, 2, 3):
        units = [_value(rng) for _ in range(n)]
        zeros = [Fraction(0)] * n
        mixed = [_value(rng) if i % 2 == 0 else Fraction(0) for i in range(n)]
        pres += [("pair_groupoid", n, None), ("scaled_action", n, None),
                 ("gsy", n, units), ("gsy", n, zeros), ("gsy", n, mixed),
                 ("gfull", n, None), ("scaleoid", n, None)]
    pres += [("g_overline", 1, None), ("g_overline", 2, None)]
    pres += [("gsy_box", n, [rng.choice(SMALL_UNITS) for _ in range(n)])
             for n in (1, 2)]
    return {
        "presentations": [(kind, n, t, rng.randrange(1 << 30))
                          for kind, n, t in pres],
        # which map, scales of gsy(2, t), and the edge, component, input
        # variable and check seed of each planted corruption
        "mutants": [(which, [_value(rng), _value(rng)], rng.randrange(4),
                     rng.randrange(1 << 30), rng.randrange(1 << 30),
                     rng.randrange(1 << 30))
                    for which in ("compose", "target", "unit")],
    }


def _build_presentation(kind, n, t):
    if kind == "pair_groupoid":
        return constructions.pair_groupoid(n, 1)
    if kind == "scaled_action":
        return constructions.scaled_action(n, 1)
    if kind == "gsy":
        return constructions.gsy(n, t)
    if kind == "gsy_box":
        return constructions.gsy(n, t, box=BOX)
    if kind == "gfull":
        return constructions.gfull(n)
    if kind == "scaleoid":
        return constructions.scaleoid(n)
    if kind == "g_overline":
        return twotyped.g_overline(n)
    raise ValueError(f"unknown presentation kind {kind!r}")


def _cube_counts(dim: int) -> tuple:
    """Edges and 2-faces of the dim-cube."""
    return dim * (1 << dim) // 2, comb(dim, 2) * (1 << dim) // 4


def _axiom_ops(inputs) -> list[Op]:
    ops: list[Op] = []
    built: dict = {}  # presentation index -> (presentation, edges, faces)

    for j, (kind, n, t, seed) in enumerate(inputs["presentations"]):
        dim = 2 * n if kind == "g_overline" else n
        n_edges, n_faces = _cube_counts(dim)

        def build(kind=kind, n=n, t=t):
            return _build_presentation(kind, n, t)

        def check_build(p, j=j, n_edges=n_edges, n_faces=n_faces):
            built[j] = (p, list(p.edges), list(p.faces))
            ok = len(p.edges) == n_edges and len(p.faces) == n_faces
            return ok, f"{p.name} {len(p.edges)} {len(p.faces)}"

        ops.append(Op("build", build, check_build))
        stride = 2 if dim >= CHECK_EVERY_OTHER_FROM else 1
        for k in range(0, n_edges, stride):
            ops.append(Op("check_edge_category", lambda j=j, k=k, s=seed:
                          checks.check_edge_category(
                              built[j][0], built[j][1][k], seed=s,
                              samples=AXIOM_SAMPLES), _all_pass))
        for k in range(0, n_faces, stride):
            ops.append(Op("check_face", lambda j=j, k=k, s=seed:
                          checks.check_face(built[j][0], built[j][2][k], seed=s,
                                            samples=AXIOM_SAMPLES), _all_pass))

    mutants: dict = {}
    for j, (which, t, edge, comp, var, seed) in enumerate(inputs["mutants"]):
        def build_mutant(which=which, t=t, edge=edge, comp=comp, var=var):
            p = constructions.gsy(2, t)
            key = list(p.edges)[edge]
            e = p.edges[key]
            m = getattr(e, which)
            comps = list(m.comps)
            c = comp % len(comps)
            comps[c] = comps[c] + m.var(m.in_labels[var % len(m.in_labels)])
            setattr(e, which, PolyMap(QQ, m.in_labels, tuple(comps),
                                      m.out_labels))
            return p, key

        def check_mutant(res, j=j):
            mutants[j] = res
            return True, f"{res[0].name} {res[1]}"

        ops.append(Op("build", build_mutant, check_mutant))
        ops.append(Op("check_edge_category", lambda j=j, s=seed:
                      checks.check_edge_category(
                          mutants[j][0], mutants[j][1], seed=s,
                          samples=MUTANT_SAMPLES), _some_fail_with_witness))
    return ops


# ---------------------------------------------------------------------------
# law-symbolic: slopes, full and symmetric laws, scalar extension
# ---------------------------------------------------------------------------


def _shaped_coeffs(rng, arity: int) -> list:
    return [(e, _value(rng)) for e in SHAPES[arity]]


def _law_inputs(rng) -> dict:
    orders = [1, 2, 3]
    closed_points = []
    for n in orders:
        subsets = [frozenset(c) for k in range(1, n + 1)
                   for c in itertools.combinations(range(1, n + 1), k)]
        closed_points.append({
            "t": [_value(rng) for _ in range(n)],
            "v": {s: [_value(rng) for _ in range(2)]
                  for s in [frozenset()] + subsets}})
    sym_laws = []
    for n in (1, 2, 2, 3, 1, 2, 2, 3):
        sym_laws.append({
            "map": _shaped_coeffs(rng, 1), "n": n,
            "t": [_value(rng) for _ in range(n)],
            "s_unit": [_value(rng) for _ in range(n)],
            # a scalar action that is not invertible: one s_i is 0
            "s_any": [Fraction(0)] + [_value(rng) for _ in range(n - 1)]})
    ext_laws = [{"map": _shaped_coeffs(rng, p), "n": n,
                 "t": [_value(rng) for _ in range(n)]}
                for p, n in ((1, 1), (2, 2), (1, 3), (2, 1), (1, 2), (2, 3))]
    return {
        "slope_orders": orders,
        "closed_points": closed_points,
        # derive_law_full of the fixed map f for n <= 2, of a cubic for n = 3
        "full_laws": [["f", 1], ["f", 2], ["cubic", 3]],
        "cubic": _shaped_coeffs(rng, 1),
        "sym_laws": sym_laws,
        "ext_laws": ext_laws,
        "goid_t": [[_value(rng) for _ in range(n)] for n in (1, 2)],
        # map, scales, and vertex, component and monomial of the corruption
        "mutant": {"map": _shaped_coeffs(rng, 1),
                   "t": [_value(rng) for _ in range(2)],
                   "where": [rng.randrange(1 << 30) for _ in range(4)]},
    }


def _size(m) -> tuple:
    return sum(len(c.terms) for c in m.comps), len(m.in_labels)


def _expect_size(expected):
    def check(m):
        got = _size(m)
        return got == expected, f"{got}"
    return check


def _law_ops(inputs) -> list[Op]:
    f = parser.parse(F_TEXT)
    ops: list[Op] = []
    state: dict = {}  # results that later ops take as input

    def keep_law(key, n):
        def check(law):
            state[key] = law
            return len(law.vertex_maps) == 1 << n, f"{len(law.vertex_maps)}"
        return check

    for n in inputs["slope_orders"]:
        ops.append(Op("full_slope", lambda n=n: slopes.full_slope(f, n),
                      _expect_size(FULL_SLOPE_SIZE[n])))

    for n, point in zip(inputs["slope_orders"], inputs["closed_points"]):
        def keep_iterated(m, n=n):
            state[("iterated", n)] = m
            return _expect_size(SYM_ITERATED_SIZE[n])(m)

        def eval_iterated(n=n, point=point):
            m = state[("iterated", n)]
            pt = {vlab(s, c): x for s, vec in point["v"].items()
                  for c, x in enumerate(vec)}
            pt.update({tlab({i + 1}): tv for i, tv in enumerate(point["t"])})
            return m.eval([pt[l] for l in m.in_labels])

        def keep_value(vals, n=n):
            state[("value", n)] = vals
            return True, ",".join(map(str, vals))

        def same_as_iterated(vals, n=n):
            return vals == state.get(("value", n)), ",".join(map(str, vals))

        ops.append(Op("sym_slope_iterated",
                      lambda n=n: slopes.sym_slope_iterated(f, n),
                      keep_iterated))
        ops.append(Op("polymap_eval", eval_iterated, keep_value))
        ops.append(Op("sym_slope_closed", lambda n=n, point=point:
                      slopes.sym_slope_closed(f, n, point["t"], point["v"]),
                      same_as_iterated))

    bases = {"f": f, "cubic": _shaped_map(inputs["cubic"])}
    for name, n in inputs["full_laws"]:
        base = bases[name]
        n_edges, _ = _cube_counts(n)

        def compat_check(reports, n_edges=n_edges):
            ok, text = _all_pass(reports)
            return ok and len(reports) == 3 * n_edges + 1, text

        # the n = 3 law takes more than half a pass, so it runs once per run
        # and the cheaper ops get more passes in the same time
        once = n == 3
        ops.append(Op("derive_law_full", lambda base=base, n=n:
                      laws.derive_law_full(base, n), keep_law((name, n), n),
                      not once))
        ops.append(Op("check_law_compatibility", lambda key=(name, n):
                      laws.check_law_compatibility(state[key]), compat_check,
                      not once))

    for j, spec in enumerate(inputs["sym_laws"]):
        h, n = _shaped_map(spec["map"]), spec["n"]
        ops.append(Op("derive_law_sym", lambda h=h, n=n, t=spec["t"]:
                      laws.derive_law_sym(h, n, t), keep_law(("sym", j), n)))
        law = lambda j=j: state[("sym", j)]
        for s in (spec["s_unit"], spec["s_any"]):
            ops.append(Op("check_homogeneity", lambda law=law, s=s:
                          laws.check_homogeneity(law(), s), _all_pass))
        for perm in itertools.permutations(range(1, n + 1)):
            sigma = {i + 1: perm[i] for i in range(n)}
            ops.append(Op("check_symmetry", lambda law=law, sigma=sigma:
                          laws.check_symmetry(law(), sigma), _all_pass))
        ops.append(Op("check_law_compatibility", lambda law=law:
                      laws.check_law_compatibility(law()), _all_pass))

    for j, spec in enumerate(inputs["ext_laws"]):
        h, n, t = _shaped_map(spec["map"]), spec["n"], spec["t"]
        ops.append(Op("derive_law_sym", lambda h=h, n=n, t=t:
                      laws.derive_law_sym(h, n, t), keep_law(("ext", j), n)))
        for k in range(1 << n):
            def via_extension(j=j, k=k, h=h, n=n, t=t):
                law = state[("ext", j)]
                alpha = law.src.vertices[k]
                m = laws.sym_law_via_extension(h, n, t, tuple(sorted(alpha)))
                return m.equals(law.vertex_maps[alpha])
            ops.append(Op("sym_law_via_extension", via_extension,
                          lambda same: (same is True, f"{same}")))

    for n, t in zip((1, 2), inputs["goid_t"]):
        ops.append(Op("ring_goid_structure", lambda n=n, t=t:
                      laws.ring_goid_structure(n, t),
                      lambda res: (res["matches_ext_mul"] is True,
                                   f"{res['mismatches']}")))

    mutant = inputs["mutant"]

    def corrupted_law():
        law = laws.derive_law_sym(_shaped_map(mutant["map"]), 2, mutant["t"])
        a, c, l1, l2 = mutant["where"]
        alpha = law.src.vertices[a % len(law.src.vertices)]
        m = law.vertex_maps[alpha]
        comps = list(m.comps)
        labels = m.in_labels
        comps[c % len(comps)] = comps[c % len(comps)] \
            + m.var(labels[l1 % len(labels)]) * m.var(labels[l2 % len(labels)])
        law.vertex_maps[alpha] = PolyMap(QQ, labels, tuple(comps), m.out_labels)
        return law

    def compat_fails(reports):
        bad = [r for r in reports if not r.ok]
        return bool(bad), _reports_text(reports)

    ops.append(Op("derive_law_sym", corrupted_law, keep_law("mutant", 2)))
    ops.append(Op("check_law_compatibility", lambda:
                  laws.check_law_compatibility(state["mutant"]), compat_fails))
    return ops


# ---------------------------------------------------------------------------
# cli-mix: short in-process CLI requests drawn from a committed pool
# ---------------------------------------------------------------------------


def _cli_inputs(rng) -> dict:
    with open(CLI_EXPECTED, encoding="utf-8") as fh:
        pool = json.load(fh)
    return {"requests": [rng.choice(slot["variants"])
                         for slot in pool["slots"]]}


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_ops(inputs) -> list[Op]:
    ops: list[Op] = []
    for variant in inputs["requests"]:
        # a variant is one request, or an eval pair (closed, iterated) whose
        # outputs must agree
        first_out: list = []
        for k, req in enumerate(variant):
            def check(res, req=req, k=k, first_out=first_out):
                code, out, err = res
                ok = (code == req["exit"] and digest(out) == req["sha256"]
                      and not err)
                if k == 0:
                    first_out[:] = [out]
                else:
                    ok = ok and out == first_out[0]
                return ok, f"{code} {digest(out)}"
            ops.append(Op(req["argv"][0], lambda argv=req["argv"]:
                          run_cli(argv), check))
    return ops
