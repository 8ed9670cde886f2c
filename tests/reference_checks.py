"""Dict-based law checkers: the reference the positional checkers of
`cubicalc.checks` are compared against; and the subst-subtract-divide slope
step, the reference of the term-wise kernel `polymap._shift_quotient`.

A point here is a dict from coordinate label to value, and every evaluation
looks its inputs up by label, so these checkers depend on no label order.
They make the same random draws, in the same order, as the positional
checkers, so on the same seed both must give the same reports, witnesses
included.  `eval_labeled`, their dict evaluation, also serves the tests that
pin map values by label.
"""
from __future__ import annotations

import random

from cubicalc.checks import (_edge_loc, _edge_sort_key, _LawRun,
                             _require_samples, generic_quad_param)
from cubicalc.derive import display_label, tag_of
from cubicalc.hypercube import subset_label
from cubicalc.polymap import ExactDivisionError, Poly
from cubicalc.presentation import SamplingError, attach_generic_params


def _fmt_point(point: dict, ring) -> dict:
    return {display_label(l): ring.fmt(v) for l, v in sorted(
        point.items(), key=lambda kv: display_label(kv[0]))}


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
    from cubicalc.constructions import gsy

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
