"""Command-line frontend.

Verbs: slope, derive, table, check, eval.  Exit codes: 0 success, 1 check
failure (with a witness report), 2 usage or parse error, 3 internal error (a
broken invariant, `ExactDivisionError`).  Output is plain text or JSON
(--format); everything is exact and deterministically ordered.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .checks import (check_morphism, check_presentation, first_failure,
                     reports_ok)
from .constructions import (gfull, gsy, gsy_scalar_action, pair_groupoid,
                            scaled_action, scaleoid, tangent)
from .derive import display_label, monomial_key
from .hypercube import (MAX_DIM, cube_directions, edges, subset_label,
                        subsets, vertices)
from .laws import full_vertex_map
from .parser import ParseError, parse
from .polymap import ExactDivisionError, PolyError
from .presentation import SamplingError
from .rings import RingError, ring_from_spec
from .slopes import slope, sym_slope_at, sym_slope_closed
from .tables import (edge_label, edge_row, edge_table, render_rows, vertex_row,
                     vertex_table)
from .twotyped import g_overline


# largest `eval --digits`: rendering scales by 10**digits, so the cost of one
# value grows with the digits asked for
MAX_DIGITS = 1000


class UsageError(ValueError):
    pass


def _read_expr(args) -> str:
    if args.expr:
        return args.expr
    if args.file:
        if args.file == "-":
            return sys.stdin.read()
        with open(args.file, "r", encoding="utf-8") as fh:
            return fh.read()
    raise UsageError("one of --expr or --file is required")


def _parse_scalars(ring, text, expect: int | None = None):
    vals = [ring.parse(x.strip()) for x in text.split(",")] if text else []
    if expect is not None and len(vals) != expect:
        raise UsageError(f"expected {expect} comma-separated values, got {len(vals)}")
    return vals


def _parse_directions(text: str) -> tuple:
    """--N: distinct positive directions, e.g. "1,3"."""
    try:
        N = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--N must be a comma list of integers, got {text!r}") from None
    if min(N) < 1 or len(set(N)) != len(N):
        raise UsageError(f"--N must list distinct positive directions, got {text!r}")
    return N


def _parse_alpha(text: str) -> frozenset:
    """--alpha: a vertex as a string of distinct digits, "0" the bottom."""
    if text == "0":
        return frozenset()
    if not text or any(c not in "0123456789" for c in text) \
            or len(set(text)) != len(text):
        raise UsageError(f"--alpha must be 0 or a string of distinct digits, "
                         f"got {text!r}")
    return frozenset(int(c) for c in text)


def _require_range(name: str, value: int, least: int, most: int | None = None) -> int:
    if value < least or (most is not None and value > most):
        bound = f"at least {least}" if most is None else f"between {least} and {most}"
        raise UsageError(f"{name} must be {bound}, got {value}")
    return value


def _require_positive(name: str, value: int) -> int:
    return _require_range(name, value, 1)


def _emit(args, text, payload):
    """Print the output in the requested format; `text` and `payload` are
    callables, so only that format is built."""
    if args.format == "json":
        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        print(text())


def _fmt_scalar(ring, x, digits: int | None):
    if digits is None:
        return ring.fmt(x)
    if not isinstance(x, Fraction):
        return ring.fmt(x)
    scaled = abs(x) * 10 ** digits
    whole = int(scaled)
    if 2 * (scaled - whole) >= 1:
        whole += 1
    sign = "-" if x < 0 else ""
    s = str(whole).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else f"{sign}{s}"


def cmd_slope(args) -> int:
    ring = ring_from_spec(args.ring)
    f = parse(_read_expr(args), ring)
    m = slope(f).factorizer
    _emit(args, lambda: m.fmt(monomial_order=None), lambda: {
        "inputs": [display_label(l) if not isinstance(l, str) else l
                   for l in m.in_labels],
        "components": [c.fmt([str(l) for l in m.in_labels]) for c in m.comps]})
    return 0


def cmd_derive(args) -> int:
    ring = ring_from_spec(args.ring)
    f = parse(_read_expr(args), ring)
    if args.N:
        N = _parse_directions(args.N)
    else:
        n = 1 if args.n is None else _require_positive("--n", args.n)
        N = cube_directions(n)
    alpha = frozenset(N) if args.alpha is None else _parse_alpha(args.alpha)
    if not alpha <= set(N):
        raise UsageError(f"--alpha {args.alpha} is not a subset of the "
                         f"directions {','.join(map(str, N))}")
    m = full_vertex_map(f, N, alpha)
    _emit(args, lambda: m.fmt(monomial_order=monomial_key), lambda: {
        "alpha": sorted(alpha),
        "inputs": [display_label(l) for l in m.in_labels],
        "outputs": [display_label(l) for l in m.out_labels],
        "components": [c.fmt([display_label(l) for l in m.in_labels])
                       for c in m.comps]})
    return 0


def cmd_table(args) -> int:
    ring = ring_from_spec(args.ring)
    if not args.N:
        raise UsageError("--N is required for tables")
    N = _parse_directions(args.N)
    kind = args.construction
    if kind not in ("gfull", "scaleoid"):
        raise UsageError("tables exist for --construction gfull|scaleoid")
    N = cube_directions(N)
    vdim = 0 if kind == "scaleoid" else 1
    # a filtered table builds only the row it prints
    if args.what == "vertex":
        columns = ["N", "alpha", "vertex_set", "coords"]
        if args.alpha is None:
            rows = vertex_table(N, vdim, ring)
        else:
            alpha = next((a for a in vertices(N)
                          if (vdim or a) and subset_label(a) == args.alpha), None)
            if alpha is None:
                raise UsageError(f"--alpha {args.alpha} names no vertex of "
                                 f"the table")
            rows = [vertex_row(N, alpha, vdim)]
    elif args.what == "edge":
        columns = ["N", "edge", "formula", "outputs"]
        if not args.edge:
            rows = edge_table(N, scaleoid_table=(kind == "scaleoid"), ring=ring)
        else:
            edge = next((e for e in edges(N) if edge_label(*e) == args.edge),
                        None)
            if edge is None:
                raise UsageError(f"--edge {args.edge} names no edge of the "
                                 f"table")
            rows = [edge_row(N, *edge, vdim, ring)]
    else:
        raise UsageError("--what must be vertex or edge")
    _emit(args, lambda: render_rows(rows, columns), lambda: rows)
    return 0


_CONSTRUCTIONS = ("pg", "sa", "gsy", "gfull", "scaleoid", "tangent", "goverline")


def cmd_check(args) -> int:
    ring = ring_from_spec(args.ring)
    n = _require_positive("--n", args.n)
    _require_positive("--samples", args.samples)
    # the lower bound first, so that its message says "at least 0"
    _require_range("--vdim", args.vdim, 0)
    _require_range("--vdim", args.vdim, 0, MAX_DIM)
    kind = args.construction
    scalars, reports = None, []
    if kind == "pg":
        pres = pair_groupoid(n, args.vdim, ring)
    elif kind == "sa":
        pres = scaled_action(n, args.vdim, ring)
    elif kind == "gsy":
        t = _parse_scalars(ring, args.t, n) if args.t else [ring.one()] * n
        pres = gsy(n, t, args.vdim, ring)
        if args.s:
            scalars = _parse_scalars(ring, args.s, n)
            src, dst, maps = gsy_scalar_action(n, scalars, t, args.vdim, ring)
            reports = check_morphism(src, dst, maps, seed=args.seed,
                                     samples=args.samples)
    elif kind == "gfull":
        pres = gfull(n, args.vdim, ring)
    elif kind == "scaleoid":
        pres = scaleoid(n, ring)
    elif kind == "tangent":
        pres = tangent(n, args.vdim, ring)
    elif kind == "goverline":
        pres = g_overline(n, args.vdim, ring)
    else:
        raise UsageError(f"--construction must be one of {_CONSTRUCTIONS}")
    reports += check_presentation(pres, seed=args.seed, samples=args.samples)
    if args.format == "json":
        out = {"construction": pres.name, "reports": [r.to_json() for r in reports]}
        if scalars is not None:
            out["scalar_action"] = [ring.fmt(x) for x in scalars]
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        bad = first_failure(reports)
        verdict = "all pass" if bad is None else "FAILURES"
        print(f"{pres.name}: {len(reports)} laws checked, {verdict}"
              if scalars is None else f"{pres.name} with Phi_s: {verdict}")
        if bad is not None:
            print(f"first failure: {bad.law} at {bad.location}")
            print(json.dumps(bad.witness, indent=2, sort_keys=True))
    return 0 if reports_ok(reports) else 1


def cmd_eval(args) -> int:
    ring = ring_from_spec(args.ring)
    f = parse(_read_expr(args), ring)
    # the lower bound first, so that its message says "at least 1"
    n = _require_positive("--order", args.order)
    _require_range("--order", n, 1, MAX_DIM)
    if args.digits is not None:
        _require_range("--digits", args.digits, 0, MAX_DIGITS)
    p = f.in_arity
    point = _parse_scalars(ring, args.point, p)
    t = _parse_scalars(ring, args.t, n)
    if n == 1 and args.mode == "closed":
        args.mode = "iterated"  # the factorizer itself is exact at any t
    vvals = _parse_scalars(ring, args.v) if args.v else []
    if len(vvals) != ((1 << n) - 1) * p:
        raise UsageError(f"--v needs {((1 << n) - 1) * p} values "
                         f"(all v_beta, beta nonempty, in (length, lex) order)")
    v_by = {frozenset(): list(point)}
    for idx, s in enumerate(subsets(range(1, n + 1))[1:]):
        v_by[s] = vvals[idx * p:(idx + 1) * p]

    if args.mode == "closed":
        vals = sym_slope_closed(f, n, t, v_by)
    else:
        vals = sym_slope_at(f, n, t, v_by)
    _emit(args, lambda: ", ".join(_fmt_scalar(ring, x, args.digits)
                                  for x in vals),
          lambda: {"value": [ring.fmt(x) for x in vals]})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cubicalc",
                                 description="exact cubic difference calculus")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--ring", default="rational",
                       help="rational or mod:<m>")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("slope", help="first order difference factorizer")
    p.add_argument("--expr")
    p.add_argument("--file")
    common(p)
    p.set_defaults(func=cmd_slope)

    p = sub.add_parser("derive", help="full cubic vertex map of a map")
    p.add_argument("--expr")
    p.add_argument("--file")
    p.add_argument("--n", type=int)
    p.add_argument("--N", help="comma list of directions, e.g. 1,3")
    p.add_argument("--alpha", help="vertex as digit string, e.g. 12 (0 = bottom)")
    common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("table", help="vertex / edge tables of G^N and G^N 0")
    p.add_argument("--construction", default="gfull")
    p.add_argument("--N", help="comma list of directions")
    p.add_argument("--what", choices=("vertex", "edge"), default="vertex")
    p.add_argument("--alpha")
    p.add_argument("--edge", help='edge as "beta>alpha", e.g. "2>12"')
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", help="run the axiom suite on a construction")
    p.add_argument("--construction", choices=_CONSTRUCTIONS, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--t", help="comma list of scales for gsy")
    p.add_argument("--s", help="scalars: also verify the action morphism "
                               "Phi_s for gsy")
    p.add_argument("--vdim", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=30)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("eval", help="evaluate difference quotients exactly")
    p.add_argument("--expr")
    p.add_argument("--file")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--point", required=True, help="v_0 (comma list)")
    p.add_argument("--v", help="v_beta values, (length, lex) order")
    p.add_argument("--t", required=True, help="comma list of scales")
    p.add_argument("--mode", choices=("closed", "iterated"), default="closed")
    p.add_argument("--digits", type=int,
                   help="render decimals with this many digits (display only)")
    common(p)
    p.set_defaults(func=cmd_eval)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use: parse_args keeps no
    state between calls, and argparse looks up sys.stderr when it prints."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ExactDivisionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ParseError, RingError, PolyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SamplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
