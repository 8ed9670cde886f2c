"""Dict-based law checkers: the reference the positional checkers of
`cubicalc.checks` are compared against; the subst-subtract-divide slope
step and the term-wise step on exponent tuples, the references of
`polymap._shift_quotient`; products, substitutions, re-indexing and
printing on exponent tuples and ring coefficients, the references of the
packed-key kernels of `polymap`; the symmetric law built factorizer by
factorizer for every (alpha, beta) pair, the reference of
`laws.derive_law_sym`;
the symmetry check by composing relabelling maps, the reference of
`laws.check_symmetry`; the dense double loop over coefficient pairs,
the reference of `extension.ext_mul`, which multiplies in split
coordinates; and the power-table evaluator on scalars, the reference of the
integer kernel of `polymap` (`reference_eval`).

A point here is a dict from coordinate label to value, and every evaluation
looks its inputs up by label, so these checkers depend on no label order.
They make the same random draws, in the same order, as the positional
checkers, so on the same seed both must give the same reports, witnesses
included.  `eval_labeled`, their dict evaluation, also serves the tests that
pin map values by label.
"""
from __future__ import annotations

import random
from itertools import product
from math import comb
from operator import add as _add_ints

from cubicalc.checks import (CheckReport, _edge_loc, _edge_sort_key,
                             _require_samples, generic_quad_param)
from cubicalc.constructions import gsy
from cubicalc.derive import CoordLabel, display_label, tag_of, vlab
from cubicalc.hypercube import subset_label, subsets
from cubicalc.polymap import ExactDivisionError, Poly, PolyMap
from cubicalc.presentation import SamplingError, attach_generic_params


def _fmt_point(point: dict, ring) -> dict:
    return {display_label(l): ring.fmt(v) for l, v in sorted(
        point.items(), key=lambda kv: display_label(kv[0]))}


def reference_eval(poly: Poly, values) -> object:
    """The evaluator the integer kernel replaced: a power table per variable
    and one ring operation per multiply and add, on scalars."""
    r = poly.ring
    powers = []
    for x in values:
        row = [r.one()]
        for _ in range(max((e[len(powers)] for e in poly.terms), default=0)):
            row.append(r.mul(row[-1], x))
        powers.append(row)
    acc = r.zero()
    for e, c in poly.terms.items():
        m = c
        for i, k in enumerate(e):
            if k:
                m = r.mul(m, powers[i][k])
        acc = r.add(acc, m)
    return acc


def eval_labeled(m, values: dict) -> dict:
    """m at a point given as a dict from input label to value, returned as a
    dict from output label to value."""
    return dict(zip(m.out_labels, m.eval([values[l] for l in m.in_labels])))


_ev = eval_labeled


def _ev_tagged(m, points: dict) -> dict:
    vals = {}
    for l in m.in_labels:
        tg = tag_of(l)
        inner = l[1] if tg is not None else l
        vals[l] = points[tg][inner]
    return _ev(m, vals)


def _split_tags(point: dict, tags) -> dict:
    out = {tag: {} for tag in tags}
    for l, v in point.items():
        out[tag_of(l)][l[1]] = v
    return out


def _satisfies(schema, point: dict) -> bool:
    for c in schema.constraints:
        vals = c.expr.eval([point[l] for l in c.expr.in_labels])
        if not all(c.lo <= v <= c.hi for v in vals):
            return False
    return True


def reference_schema_sample(schema, rng, count, span=2, max_tries=5000) -> list:
    out = []
    tries = 0
    while len(out) < count:
        if tries > max_tries:
            raise SamplingError("rejection sampling exhausted")
        tries += 1
        point = {}
        for l in schema.labels:
            if l in schema.unit_labels:
                point[l] = schema.ring.rand_unit(rng, span)
            else:
                point[l] = schema.ring.rand(rng, span)
        if _satisfies(schema, point):
            out.append(point)
    return out


def reference_sample_tuples(param, schema, tags, rng, count, span=2,
                            max_tries=5000) -> list:
    """Tagged tuples as {tag: point}; an empty copy is kept."""
    ring = schema.ring
    out = []
    tries = 0
    while len(out) < count:
        if tries > max_tries:
            raise SamplingError("parameter sampling exhausted")
        tries += 1
        vals = {}
        for l in param.in_labels:
            inner = l[1] if tag_of(l) is not None else l
            if inner in schema.unit_labels:
                vals[l] = ring.rand_unit(rng, span)
            else:
                vals[l] = ring.rand(rng, span)
        tup = _split_tags(_ev(param, vals), tags)
        if all(_satisfies(schema, pt) for pt in tup.values()):
            out.append(tup)
    return out


class _LawRun:
    """Collects the first witness for one law."""

    def __init__(self, law: str, location: str, seed):
        self.report = CheckReport(law, location, "pass", 0, seed)

    def check(self, equal: bool, witness_factory):
        self.report.samples += 1
        if not equal and self.report.status == "pass":
            self.report.status = "fail"
            self.report.witness = witness_factory()


def reference_check_edge_category(p, key, seed=0, samples=50) -> list:
    _require_samples(samples)
    e = p.edges[key]
    attach_generic_params(e)
    rng = random.Random(seed)
    ring = p.ring
    loc = _edge_loc(e)

    unit_st = _LawRun("unit-source-target", loc, seed)
    comp_st = _LawRun("compose-source-target", loc, seed)
    unit_abs = _LawRun("unit-absorption", loc, seed)
    assoc = _LawRun("associativity", loc, seed)
    inv_laws = _LawRun("inverse", loc, seed) if e.inverse is not None else None
    runs = [unit_st, comp_st, unit_abs, assoc] + ([inv_laws] if inv_laws else [])

    for y in reference_schema_sample(e.cod, rng, samples):
        zy = _ev(e.unit, y)
        unit_st.check(_ev(e.source, zy) == y and _ev(e.target, zy) == y,
                      lambda y=y: {"object": _fmt_point(y, ring)})

    for pair in reference_sample_tuples(e.pair_param, e.dom, "ab", rng, samples):
        a, b = pair["a"], pair["b"]
        wit = lambda a=a, b=b: {"left": _fmt_point(a, ring), "right": _fmt_point(b, ring)}
        c = _ev_tagged(e.compose, {"a": a, "b": b})
        comp_st.check(_ev(e.source, c) == _ev(e.source, b)
                      and _ev(e.target, c) == _ev(e.target, a), wit)
        za = _ev(e.unit, _ev(e.source, a))
        zb = _ev(e.unit, _ev(e.target, b))
        unit_abs.check(_ev_tagged(e.compose, {"a": a, "b": za}) == a
                       and _ev_tagged(e.compose, {"a": zb, "b": b}) == b, wit)
        if inv_laws is not None:
            ia = _ev(e.inverse, a)
            inv_laws.check(
                _ev(e.source, ia) == _ev(e.target, a)
                and _ev(e.target, ia) == _ev(e.source, a)
                and (_ev_tagged(e.compose, {"a": ia, "b": a})
                     == _ev(e.unit, _ev(e.source, a)))
                and (_ev_tagged(e.compose, {"a": a, "b": ia})
                     == _ev(e.unit, _ev(e.target, a))),
                lambda a=a: {"element": _fmt_point(a, ring)})

    for trip in reference_sample_tuples(e.triple_param, e.dom, "abc", rng, samples):
        a, b, c = trip["a"], trip["b"], trip["c"]
        ab = _ev_tagged(e.compose, {"a": a, "b": b})
        bc = _ev_tagged(e.compose, {"a": b, "b": c})
        assoc.check(_ev_tagged(e.compose, {"a": ab, "b": c})
                    == _ev_tagged(e.compose, {"a": a, "b": bc}),
                    lambda a=a, b=b, c=c: {"a": _fmt_point(a, ring),
                                           "b": _fmt_point(b, ring),
                                           "c": _fmt_point(c, ring)})

    return [r.report for r in runs]


def reference_check_face(p, face, seed=0, samples=50) -> list:
    _require_samples(samples)
    i, j, ei_bot, ei_top, ej_bot, ej_top = p.face_frame(face)
    for e in (ei_bot, ei_top, ej_bot, ej_top):
        attach_generic_params(e)
    rng = random.Random(seed)
    ring = p.ring
    loc = f"face {subset_label(face[0])}>{subset_label(face[1])}"

    proj_comm = _LawRun("projections-commute", loc, seed)
    unit_comm = _LawRun("units-commute", loc, seed)
    proj_fun = _LawRun("projection-functorial", loc, seed)
    unit_fun = _LawRun("unit-functorial", loc, seed)
    inter = _LawRun("interchange", loc, seed)

    for a in reference_schema_sample(ei_top.dom, rng, samples):
        ok = True
        for m_i in (ei_top.source, ei_top.target):
            for m_j in (ej_top.source, ej_top.target):
                down_i = _ev(m_i, a)
                down_j = _ev(m_j, a)
                mj_bot = ej_bot.source if m_j is ej_top.source else ej_bot.target
                mi_bot = ei_bot.source if m_i is ei_top.source else ei_bot.target
                ok = ok and _ev(mj_bot, down_i) == _ev(mi_bot, down_j)
        proj_comm.check(ok, lambda a=a: {"element": _fmt_point(a, ring)})

    for y in reference_schema_sample(ei_bot.cod, rng, samples):
        via_i = _ev(ej_top.unit, _ev(ei_bot.unit, y))
        via_j = _ev(ei_top.unit, _ev(ej_bot.unit, y))
        unit_comm.check(via_i == via_j,
                        lambda y=y: {"object": _fmt_point(y, ring)})

    for pair_edge, proj_edge, img_edge in ((ei_top, ej_top, ei_bot),
                                           (ej_top, ei_top, ej_bot)):
        for pair in reference_sample_tuples(pair_edge.pair_param, pair_edge.dom,
                                            "ab", rng, samples):
            a, b = pair["a"], pair["b"]
            comp = _ev_tagged(pair_edge.compose, {"a": a, "b": b})
            ok = True
            for m in (proj_edge.source, proj_edge.target):
                lhs = _ev(m, comp)
                rhs = _ev_tagged(img_edge.compose, {"a": _ev(m, a), "b": _ev(m, b)})
                ok = ok and lhs == rhs
            proj_fun.check(ok, lambda a=a, b=b: {"left": _fmt_point(a, ring),
                                                 "right": _fmt_point(b, ring)})

    for unit_edge, pair_edge, top_edge in ((ej_top, ei_bot, ei_top),
                                           (ei_top, ej_bot, ej_top)):
        for pair in reference_sample_tuples(pair_edge.pair_param, pair_edge.dom,
                                            "ab", rng, samples):
            u, v = pair["a"], pair["b"]
            lhs = _ev(unit_edge.unit, _ev_tagged(pair_edge.compose, {"a": u, "b": v}))
            rhs = _ev_tagged(top_edge.compose, {"a": _ev(unit_edge.unit, u),
                                                "b": _ev(unit_edge.unit, v)})
            unit_fun.check(lhs == rhs,
                           lambda u=u, v=v: {"left": _fmt_point(u, ring),
                                             "right": _fmt_point(v, ring)})

    quad_param = p.quad_params.get(face)
    if quad_param is None:
        quad_param = generic_quad_param(p, face)
    for q in reference_sample_tuples(quad_param, ei_top.dom, "abcd", rng, samples):
        a, b, c, d = q["a"], q["b"], q["c"], q["d"]
        ab = _ev_tagged(ei_top.compose, {"a": a, "b": b})
        cd = _ev_tagged(ei_top.compose, {"a": c, "b": d})
        lhs = _ev_tagged(ej_top.compose, {"a": ab, "b": cd})
        ac = _ev_tagged(ej_top.compose, {"a": a, "b": c})
        bd = _ev_tagged(ej_top.compose, {"a": b, "b": d})
        rhs = _ev_tagged(ei_top.compose, {"a": ac, "b": bd})
        inter.check(lhs == rhs,
                    lambda a=a, b=b, c=c, d=d: {
                        "a": _fmt_point(a, ring), "b": _fmt_point(b, ring),
                        "c": _fmt_point(c, ring), "d": _fmt_point(d, ring)})

    return [r.report for r in (proj_comm, unit_comm, proj_fun, unit_fun, inter)]


def reference_check_morphism(src, dst, vertex_maps, seed=0, samples=50) -> list:
    _require_samples(samples)
    rng = random.Random(seed)
    ring = src.ring
    out = []
    for key, e in sorted(src.edges.items(), key=lambda kv: _edge_sort_key(kv[0])):
        attach_generic_params(e)
        e2 = dst.edges[key]
        f_hi = vertex_maps[e.hi]
        f_lo = vertex_maps[e.lo]
        loc = _edge_loc(e)
        st_run = _LawRun("morphism-source-target", loc, seed)
        z_run = _LawRun("morphism-unit", loc, seed)
        c_run = _LawRun("morphism-compose", loc, seed)
        for a in reference_schema_sample(e.dom, rng, samples):
            fa = _ev(f_hi, a)
            st_run.check(
                _ev(e2.source, fa) == _ev(f_lo, _ev(e.source, a))
                and _ev(e2.target, fa) == _ev(f_lo, _ev(e.target, a)),
                lambda a=a: {"element": _fmt_point(a, ring)})
        for y in reference_schema_sample(e.cod, rng, samples):
            z_run.check(
                _ev(e2.unit, _ev(f_lo, y)) == _ev(f_hi, _ev(e.unit, y)),
                lambda y=y: {"object": _fmt_point(y, ring)})
        for pair in reference_sample_tuples(e.pair_param, e.dom, "ab", rng, samples):
            a, b = pair["a"], pair["b"]
            lhs = _ev(f_hi, _ev_tagged(e.compose, {"a": a, "b": b}))
            rhs = _ev_tagged(e2.compose, {"a": _ev(f_hi, a), "b": _ev(f_hi, b)})
            c_run.check(lhs == rhs,
                        lambda a=a, b=b: {"left": _fmt_point(a, ring),
                                          "right": _fmt_point(b, ring)})
        out.extend((st_run.report, z_run.report, c_run.report))
    return out


def reference_check_finite_law(plaw, in_dim=1, seed=0, samples=30) -> list:
    ring = plaw.ring
    src = gsy(plaw.n, list(plaw.t), vdim=in_dim, ring=ring)
    dst = gsy(plaw.n, list(plaw.t), vdim=plaw.out_dim, ring=ring)
    rng = random.Random(seed)
    out = []
    for key in sorted(src.edges, key=lambda k: (len(k[1]), sorted(k[1]),
                                                sorted(k[0]))):
        e = attach_generic_params(src.edges[key])
        e2 = dst.edges[key]
        loc = f"edge {sorted(key[0])}>{sorted(key[1])}"
        st_run = _LawRun("finite-law-source-target", loc, seed)
        c_run = _LawRun("finite-law-compose", loc, seed)
        for pair in reference_sample_tuples(e.pair_param, e.dom, "ab", rng, samples):
            a, b = pair["a"], pair["b"]
            fa = plaw.vertex_value(e.hi, a)
            fb = plaw.vertex_value(e.hi, b)
            st_run.check(
                _ev(e2.source, fa) == plaw.vertex_value(e.lo, _ev(e.source, a))
                and _ev(e2.target, fa) == plaw.vertex_value(e.lo, _ev(e.target, a)),
                lambda a=a: {"element": _fmt_point(a, ring)})
            lhs = plaw.vertex_value(e.hi, _ev_tagged(e.compose, {"a": a, "b": b}))
            rhs = _ev_tagged(e2.compose, {"a": fa, "b": fb})
            c_run.check(lhs == rhs,
                        lambda a=a, b=b: {"left": _fmt_point(a, ring),
                                          "right": _fmt_point(b, ring)})
        out.extend((st_run.report, c_run.report))
    return out


def reference_shift_quotient(p, arity, index, partner, tau):
    """(value, slope) as `_shift_quotient` returns them, the way the slope
    was computed before it: substitute x + tau*x', subtract the value and
    divide exactly by every variable of tau."""
    r = p.ring
    var = lambda i: Poly.var(r, arity, i)
    scale = Poly.const(r, arity, r.one())
    for i in tau:
        scale = scale * var(i)
    value = p.subst([var(i) for i in index], arity)
    shift = [var(i) if q is None else var(i) + scale * var(q)
             for i, q in zip(index, partner)]
    slope = p.subst(shift, arity) - value
    for i in tau:
        slope = _divide_by_var(slope, i)
    return value, slope


def _divide_by_var(p, i):
    terms = {}
    for e, c in p.terms.items():
        if e[i] == 0:
            raise ExactDivisionError(f"monomial {e} not divisible by variable {i}")
        terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = c
    return Poly(p.ring, p.arity, terms)


def reference_shift_quotient_terms(p, arity, index, partner, tau) -> tuple:
    """(value, slope) as `_shift_quotient` returns them, as coefficient
    dicts keyed by exponent tuples: term by term on exponent tuples and ring
    coefficients, as the kernel computed them before its keys were
    packed."""
    r = p.ring
    value: dict = {}
    slope: dict = {}
    for e, c in p.terms.items():
        out = [0] * arity
        shifted = []  # (new index, partner index, exponent)
        for i, k in enumerate(e):
            if k:
                out[index[i]] += k
                if partner[i] is not None:
                    shifted.append((index[i], partner[i], k))
        value[tuple(out)] = c
        for js in product(*(range(k + 1) for _, _, k in shifted)):
            total = sum(js)
            if not total:
                continue
            ex = list(out)
            b = 1
            for (i, pi, k), j in zip(shifted, js):
                ex[i] -= j
                ex[pi] += j
                b *= comb(k, j)
            for ti in tau:
                ex[ti] += total - 1
            ex = tuple(ex)
            slope[ex] = r.add(slope.get(ex, r.zero()), r.mul(c, r.from_int(b)))
    return value, slope


def reference_mul_terms(ring, a: dict, b: dict) -> dict:
    """The product of the coefficient dicts a and b, keyed by exponent
    tuples, with the ring's scalar operations; zero coefficients are kept
    (the Poly constructor drops them)."""
    acc: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(_add_ints, e1, e2))
            acc[e] = ring.add(acc.get(e, ring.zero()), ring.mul(c1, c2))
    return acc


def reference_pow_terms(ring, a: dict, k: int, arity: int) -> dict:
    """a**k on exponent tuples, by square-and-multiply."""
    result = {(0,) * arity: ring.one()}
    while k:
        if k & 1:
            result = reference_mul_terms(ring, result, a)
        k >>= 1
        if k:
            a = reference_mul_terms(ring, a, a)
    return result


def reference_mul(a: Poly, b: Poly) -> Poly:
    """a * b on exponent tuples."""
    return Poly(a.ring, a.arity,
                reference_mul_terms(a.ring, dict(a.terms), dict(b.terms)))


def reference_subst_terms(poly: Poly, images, arity: int) -> dict:
    """poly.subst(images, arity) by the expansion before packed keys, as a
    coefficient dict keyed by exponent tuples: ring coefficients, and the
    powers of the images built for this polynomial alone.  It expands even
    when every image is a monomial."""
    r = poly.ring
    powers: dict = {}  # (i, k): images[i]**k
    acc: dict = {}
    for e, c in poly.terms.items():
        prod = {(0,) * arity: c}
        for i, k in enumerate(e):
            if not k:
                continue
            if (i, k) not in powers:
                powers[i, k] = reference_pow_terms(r, dict(images[i].terms),
                                                   k, arity)
            prod = reference_mul_terms(r, prod, powers[i, k])
        for f, v in prod.items():
            acc[f] = r.add(acc.get(f, r.zero()), v)
    return acc


def reference_subst_tuple(poly: Poly, images, arity: int) -> Poly:
    """`reference_subst_terms` as a Poly."""
    return Poly(poly.ring, arity, reference_subst_terms(poly, images, arity))


def reference_reindexed_terms(p: Poly, index, arity: int) -> dict:
    """`Poly._reindexed` on exponent tuples, as a coefficient dict: x_i
    renamed x_index[i], and a term where a variable with index None occurs
    dropped."""
    terms = {}
    for e, c in p.terms.items():
        if any(k and index[i] is None for i, k in enumerate(e)):
            continue
        out = [0] * arity
        for i, k in enumerate(e):
            if k:
                out[index[i]] = k
        terms[tuple(out)] = c
    return terms


def reference_fmt(ring, terms: dict, names, order=None) -> str:
    """`Poly.fmt` of the nonzero coefficient dict `terms`, keyed by
    exponent tuples: terms sorted by (total degree, reverse-lex
    exponents)."""
    terms = {e: c for e, c in terms.items() if not ring.is_zero(c)}
    if not terms:
        return "0"
    var_order = list(order) if order is not None else list(range(len(names)))
    parts = []
    for e, c in sorted(terms.items(), key=lambda item: (
            sum(item[0]), tuple(-item[0][i] for i in var_order))):
        factors = [names[i] if e[i] == 1 else f"{names[i]}^{e[i]}"
                   for i in var_order if e[i]]
        cs = ring.fmt(c)
        if not factors:
            parts.append(cs)
        elif cs == "1":
            parts.append("*".join(factors))
        elif cs == "-1":
            parts.append("-" + "*".join(factors))
        else:
            parts.append("*".join([cs] + factors))
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def _extend_by_subst(m: PolyMap, bigger) -> PolyMap:
    """m over the inputs `bigger`, by substituting variables, as
    `PolyMap.extend_inputs` did before it scattered exponents."""
    bigger = tuple(bigger)
    return m.subst({l: Poly.var(m.ring, len(bigger), bigger.index(l))
                    for l in m.in_labels}, bigger)


def reference_derive_law_sym(f: PolyMap, n: int, t, ring=None) -> dict:
    """The vertex maps of `laws.derive_law_sym(f, n, t, ring)` as they were
    built before each factorizer was derived once: for every beta within
    every vertex alpha, f^[|beta|] is derived anew, relabeled onto beta and
    extended onto the inputs of alpha by substitution."""
    from cubicalc.slopes import sym_slope_iterated

    ring = ring or f.ring
    t = {k + 1: tv for k, tv in enumerate(t)}
    src = gsy(n, [t[k] for k in sorted(t)], vdim=f.in_arity, ring=ring)
    maps = {}
    for alpha in src.vertices:
        in_labels = src.schemas[alpha].labels
        exprs = {}
        for beta in subsets(alpha):
            beta = tuple(sorted(beta))
            m = sym_slope_iterated(f, len(beta))
            table = {i + 1: beta[i] for i in range(len(beta))}
            m = m.rename(lambda l: CoordLabel(
                l.kind, frozenset(table[e] for e in l.index), l.comp), None)
            new_in = tuple(l for l in m.in_labels if l.kind == "v")
            k = len(new_in)
            assign = {l: Poly.const(ring, k, t[next(iter(l.index))])
                      if l.kind == "t" else Poly.var(ring, k, new_in.index(l))
                      for l in m.in_labels}
            fac = _extend_by_subst(m.subst(assign, new_in), in_labels)
            for c in range(f.out_arity):
                exprs[vlab(beta, c)] = fac.comps[c]
        maps[alpha] = PolyMap.from_label_exprs(ring, in_labels, exprs)
    return maps


def reference_check_symmetry(law, sigma: dict) -> list:
    """`laws.check_symmetry` by composition, as it was before it renamed:
    the relabelling maps R_p, R_q of every vertex are built as polynomial
    maps and R_q . F_t is compared with F_{t sigma} . R_p."""
    from cubicalc.laws import _relabel_maps, _sym_vertex_maps
    from cubicalc.slopes import _sym_slopes

    ring, n = law.base.ring, len(law.t)
    inv = {v: k for k, v in sigma.items()}
    t_perm = [law.t[inv[i + 1] - 1] for i in range(n)]
    maps_perm = _sym_vertex_maps(_sym_slopes(law.base, n), t_perm, ring)
    r_p = _relabel_maps(n, sigma, law.base.in_arity, ring, law.src.vertices)
    r_q = _relabel_maps(n, sigma, law.base.out_arity, ring, law.src.vertices)
    out = []
    for alpha in law.src.vertices:
        lhs = r_q[alpha].compose(law.vertex_maps[alpha])
        rhs = maps_perm[frozenset(sigma[e] for e in alpha)].compose(r_p[alpha])
        out.append(CheckReport("law-symmetry", f"vertex {sorted(alpha)}",
                               "pass" if lhs.equals(rhs) else "fail", 0))
    return out


def reference_ext_mul(a, b) -> tuple:
    """The coefficients of a*b in A_t by the dense O(4^k) double loop:
    (a*b)_delta = sum over beta | gamma = delta of
    a_beta * b_gamma * prod_{i in beta & gamma} t_i."""
    r = a.ring
    out = [r.zero()] * len(a.coeffs)
    for mb, cb in enumerate(a.coeffs):
        for mg, cg in enumerate(b.coeffs):
            w = r.mul(cb, cg)
            for i, t in enumerate(a.t):
                if (mb & mg) >> i & 1:
                    w = r.mul(w, t)
            out[mb | mg] = r.add(out[mb | mg], w)
    return tuple(out)
