"""Randomized exact law checkers for n-fold presentations.

Every check evaluates exact ring arithmetic on sampled composable tuples; a
pass is an identity on the sampled set, never an approximation.  Reports are
JSON-able: law, location, status, witness, samples, seed.

Points are positional: a point is the list of its values in its schema's
`labels` order, and a tagged pair, triple or quadruple is the concatenation
of its copies.  Each check resolves the maps it evaluates to positions once
(`_plan`); labels come back only in witnesses.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .derive import display_label, tag_of
from .hypercube import subset_label
from .polymap import PolyError, PolyMap
from .presentation import (LEFT, RIGHT, EdgeCat, NFoldPresentation,
                           SamplingError, attach_generic_params, tagged)


@dataclass
class CheckReport:
    law: str
    location: str
    status: str  # "pass" | "fail"
    samples: int
    seed: int | None = None
    witness: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        out = {"law": self.law, "location": self.location, "status": self.status,
               "samples": self.samples, "seed": self.seed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def reports_ok(reports) -> bool:
    return all(r.ok for r in reports)


def first_failure(reports):
    for r in reports:
        if not r.ok:
            return r
    return None


def _fmt_point(labels, point: list, ring) -> dict:
    return {display_label(l): ring.fmt(v) for l, v in sorted(
        zip(labels, point), key=lambda kv: display_label(kv[0]))}


def _plan(m: PolyMap, layout, order):
    """`m` resolved once against positional points: the returned function
    takes a point that lists its values in `layout` order and returns m's
    value listed in `order`.  It gathers m's inputs from the point, calls
    `m.eval` and permutes the outputs; an identity step is skipped."""
    layout, order = tuple(layout), tuple(order)
    if m.out_labels is None or len(m.out_labels) != len(order) \
            or set(m.out_labels) != set(order):
        raise PolyError(f"map outputs {m.out_labels} do not match {order}")
    gather = perm = None
    if m.in_labels != layout:
        at = {l: i for i, l in enumerate(layout)}
        gather = [at[l] for l in m.in_labels]
    if m.out_labels != order:
        at = {l: i for i, l in enumerate(m.out_labels)}
        perm = [at[l] for l in order]
    ev = m.eval
    if gather is None and perm is None:
        return ev

    def run(point):
        out = ev(point if gather is None else [point[i] for i in gather])
        return out if perm is None else [out[i] for i in perm]
    return run


def _tuple_layout(tags, schema) -> tuple:
    """The labels of a tagged tuple: the concatenation of one copy of the
    schema labels per tag."""
    return tuple(l for tag in tags for l in tagged(tag, schema.labels))


def _edge_plans(e: EdgeCat) -> tuple:
    """Source, target, unit and compose of an edge, on the positional points
    of its own schemas."""
    dom, cod = e.dom.labels, e.cod.labels
    return (_plan(e.source, dom, cod), _plan(e.target, dom, cod),
            _plan(e.unit, cod, dom),
            _plan(e.compose, _tuple_layout((LEFT, RIGHT), e.dom), dom))


def _sample_tuples(param: PolyMap, schema, tags, rng, count, span=2,
                   max_tries=5000) -> list[list]:
    """Evaluate a composability parameterization at random points.  A tuple
    is the concatenation of its tagged copies, in `tags` order; each copy
    must satisfy the schema constraints."""
    ring = schema.ring
    units = [(l[1] if tag_of(l) is not None else l) in schema.unit_labels
             for l in param.in_labels]
    ev = _plan(param, param.in_labels, _tuple_layout(tags, schema))
    k = schema.dim()
    out = []
    tries = 0
    while len(out) < count:
        if tries > max_tries:
            raise SamplingError(
                f"parameter sampling exhausted after {tries} tries")
        tries += 1
        tup = ev([ring.rand_unit(rng, span) if u else ring.rand(rng, span)
                  for u in units])
        if all(schema.satisfies(tup[j * k:(j + 1) * k]) for j in range(len(tags))):
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


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def check_edge_category(p: NFoldPresentation, key, seed: int = 0,
                        samples: int = 50) -> list[CheckReport]:
    """Category (and groupoid) axioms of one edge on exact random samples."""
    _require_samples(samples)
    e = p.edges[key] if not isinstance(key, EdgeCat) else key
    attach_generic_params(e)
    rng = random.Random(seed)
    ring = p.ring
    loc = _edge_loc(e)
    dom, cod = e.dom.labels, e.cod.labels
    k = len(dom)
    source, target, unit, compose = _edge_plans(e)
    inverse = _plan(e.inverse, dom, dom) if e.inverse is not None else None

    unit_st = _LawRun("unit-source-target", loc, seed)
    comp_st = _LawRun("compose-source-target", loc, seed)
    unit_abs = _LawRun("unit-absorption", loc, seed)
    assoc = _LawRun("associativity", loc, seed)
    inv_laws = _LawRun("inverse", loc, seed) if inverse is not None else None
    runs = [unit_st, comp_st, unit_abs, assoc] + ([inv_laws] if inv_laws else [])

    for y in e.cod.sample(rng, samples):
        zy = unit(y)
        unit_st.check(source(zy) == y and target(zy) == y,
                      lambda y=y: {"object": _fmt_point(cod, y, ring)})

    for pair in _sample_tuples(e.pair_param, e.dom, (LEFT, RIGHT), rng, samples):
        a, b = pair[:k], pair[k:]
        wit = lambda a=a, b=b: {"left": _fmt_point(dom, a, ring),
                                "right": _fmt_point(dom, b, ring)}
        c = compose(pair)
        comp_st.check(source(c) == source(b) and target(c) == target(a), wit)
        za = unit(source(a))
        zb = unit(target(b))
        unit_abs.check(compose(a + za) == a and compose(zb + b) == b, wit)
        if inverse is not None:
            ia = inverse(a)
            inv_laws.check(
                source(ia) == target(a)
                and target(ia) == source(a)
                and compose(ia + a) == unit(source(a))
                and compose(a + ia) == unit(target(a)),
                lambda a=a: {"element": _fmt_point(dom, a, ring)})

    for trip in _sample_tuples(e.triple_param, e.dom, (LEFT, RIGHT, "c"), rng,
                               samples):
        a, b, c = trip[:k], trip[k:2 * k], trip[2 * k:]
        ab = compose(trip[:2 * k])
        bc = compose(trip[k:])
        assoc.check(compose(ab + c) == compose(a + bc),
                    lambda a=a, b=b, c=c: {"a": _fmt_point(dom, a, ring),
                                           "b": _fmt_point(dom, b, ring),
                                           "c": _fmt_point(dom, c, ring)})

    return [r.report for r in runs]


def _edge_loc(e: EdgeCat) -> str:
    return f"edge {subset_label(e.lo)}>{subset_label(e.hi)}"


def generic_quad_param(p: NFoldPresentation, face) -> PolyMap:
    """Interchange-quadruple parameterization for faces whose source maps are
    coordinate projections: d free, c over tgt_i(d), b over tgt_j(d), a pinned
    by tgt_i(b) and tgt_j(c) with the double fiber free."""
    i, j, ei_bot, ei_top, ej_bot, ej_top = p.face_frame(face)
    ring = p.ring
    top = ei_top.dom.labels
    base_i = set(ei_top.cod.labels)  # alpha minus i
    base_j = set(ej_top.cod.labels)  # alpha minus j
    fiber_i = [l for l in top if l not in base_i]
    fiber_j = [l for l in top if l not in base_j]
    rest = [l for l in top if l not in base_i and l not in base_j]

    params = tuple(("d", l) for l in top) + tuple(("c", l) for l in fiber_i) \
        + tuple(("b", l) for l in fiber_j) + tuple(("a", l) for l in rest)
    n = len(params)
    pos = {l: k for k, l in enumerate(params)}

    from .polymap import Poly

    d_pt = {l: Poly.var(ring, n, pos[("d", l)]) for l in top}
    tgt_i_d = ei_top.target.subst(d_pt, params)
    tgt_j_d = ej_top.target.subst(d_pt, params)

    c_pt = {}
    for l in top:
        c_pt[l] = tgt_i_d.component(l) if l in base_i else Poly.var(ring, n, pos[("c", l)])
    b_pt = {}
    for l in top:
        b_pt[l] = tgt_j_d.component(l) if l in base_j else Poly.var(ring, n, pos[("b", l)])

    tgt_i_b = ei_top.target.subst(b_pt, params)
    tgt_j_c = ej_top.target.subst(c_pt, params)
    a_pt = {}
    for l in top:
        if l in base_i:
            a_pt[l] = tgt_i_b.component(l)
        elif l in base_j:
            a_pt[l] = tgt_j_c.component(l)
        else:
            a_pt[l] = Poly.var(ring, n, pos[("a", l)])

    exprs = {}
    for tag, pt in (("a", a_pt), ("b", b_pt), ("c", c_pt), ("d", d_pt)):
        for l in top:
            exprs[(tag, l)] = pt[l]
    return PolyMap.from_label_exprs(ring, params, exprs)


def check_face(p: NFoldPresentation, face, seed: int = 0,
               samples: int = 50) -> list[CheckReport]:
    """Double-category laws of one face: commuting projections and units,
    functoriality of projections and units, and the interchange law."""
    _require_samples(samples)
    i, j, ei_bot, ei_top, ej_bot, ej_top = p.face_frame(face)
    for e in (ei_bot, ei_top, ej_bot, ej_top):
        attach_generic_params(e)
    rng = random.Random(seed)
    ring = p.ring
    loc = f"face {subset_label(face[0])}>{subset_label(face[1])}"
    # the four vertex schemas: alpha on top, gamma+j below it in direction
    # i, gamma+i below it in direction j, gamma at the bottom
    top, at_gj, at_gi, bottom = ei_top.dom, ei_top.cod, ej_top.cod, ei_bot.cod

    def move(m, frm, to):
        return _plan(m, frm.labels, to.labels)

    def composer(edge, schema):
        return _plan(edge.compose, _tuple_layout((LEFT, RIGHT), schema),
                     schema.labels)

    proj_comm = _LawRun("projections-commute", loc, seed)
    unit_comm = _LawRun("units-commute", loc, seed)
    proj_fun = _LawRun("projection-functorial", loc, seed)
    unit_fun = _LawRun("unit-functorial", loc, seed)
    inter = _LawRun("interchange", loc, seed)

    # down in direction i then j equals down in j then i, for the source or
    # the target in each direction
    squares = [(move(m_i, top, at_gj), move(mj_bot, at_gj, bottom),
                move(m_j, top, at_gi), move(mi_bot, at_gi, bottom))
               for m_i, mi_bot in ((ei_top.source, ei_bot.source),
                                   (ei_top.target, ei_bot.target))
               for m_j, mj_bot in ((ej_top.source, ej_bot.source),
                                   (ej_top.target, ej_bot.target))]
    for a in top.sample(rng, samples):
        ok = True
        for down_i, then_j, down_j, then_i in squares:
            ok = ok and then_j(down_i(a)) == then_i(down_j(a))
        proj_comm.check(ok, lambda a=a: {"element": _fmt_point(top.labels, a, ring)})

    up_i = move(ei_bot.unit, bottom, at_gi)
    up_i_j = move(ej_top.unit, at_gi, top)
    up_j = move(ej_bot.unit, bottom, at_gj)
    up_j_i = move(ei_top.unit, at_gj, top)
    for y in bottom.sample(rng, samples):
        unit_comm.check(up_i_j(up_i(y)) == up_j_i(up_j(y)),
                        lambda y=y: {"object": _fmt_point(bottom.labels, y, ring)})

    # projections are morphisms: pi_sigma^{j-top}(a *_i b) equals
    # pi_sigma^{j-top}(a) *_{i-bot} pi_sigma^{j-top}(b), and with i, j swapped.
    k = top.dim()
    for pair_edge, proj_edge, img_edge, side in ((ei_top, ej_top, ei_bot, at_gi),
                                                 (ej_top, ei_top, ej_bot, at_gj)):
        compose = composer(pair_edge, top)
        img_compose = composer(img_edge, side)
        projs = [move(m, top, side) for m in (proj_edge.source, proj_edge.target)]
        for pair in _sample_tuples(pair_edge.pair_param, top, (LEFT, RIGHT),
                                   rng, samples):
            a, b = pair[:k], pair[k:]
            comp = compose(pair)
            ok = True
            for m in projs:
                ok = ok and m(comp) == img_compose(m(a) + m(b))
            proj_fun.check(ok, lambda a=a, b=b: {
                "left": _fmt_point(top.labels, a, ring),
                "right": _fmt_point(top.labels, b, ring)})

    # units are morphisms: z^{j-top}(u *_{i-bot} v) = z^{j-top}(u) *_{i-top} z^{j-top}(v)
    for unit_edge, pair_edge, top_edge, side in ((ej_top, ei_bot, ei_top, at_gi),
                                                 (ei_top, ej_bot, ej_top, at_gj)):
        compose = composer(pair_edge, side)
        top_compose = composer(top_edge, top)
        up = move(unit_edge.unit, side, top)
        n = side.dim()
        for pair in _sample_tuples(pair_edge.pair_param, side, (LEFT, RIGHT),
                                   rng, samples):
            u, v = pair[:n], pair[n:]
            unit_fun.check(up(compose(pair)) == top_compose(up(u) + up(v)),
                           lambda u=u, v=v: {
                               "left": _fmt_point(side.labels, u, ring),
                               "right": _fmt_point(side.labels, v, ring)})

    quad_param = p.quad_params.get(face)
    if quad_param is None:
        quad_param = generic_quad_param(p, face)
    compose_i = composer(ei_top, top)
    compose_j = composer(ej_top, top)
    for q in _sample_tuples(quad_param, top, "abcd", rng, samples):
        a, b, c, d = q[:k], q[k:2 * k], q[2 * k:3 * k], q[3 * k:]
        lhs = compose_j(compose_i(a + b) + compose_i(c + d))
        rhs = compose_i(compose_j(a + c) + compose_j(b + d))
        inter.check(lhs == rhs, lambda a=a, b=b, c=c, d=d: {
            tag: _fmt_point(top.labels, x, ring)
            for tag, x in (("a", a), ("b", b), ("c", c), ("d", d))})

    return [r.report for r in (proj_comm, unit_comm, proj_fun, unit_fun, inter)]


def check_morphism(src: NFoldPresentation, dst: NFoldPresentation,
                   vertex_maps: dict, seed: int = 0,
                   samples: int = 50) -> list[CheckReport]:
    """Verify that a family of vertex maps commutes with source, target, unit
    and composition on every edge (sampled, exact)."""
    _require_samples(samples)
    rng = random.Random(seed)
    ring = src.ring
    out = []
    for key, e in sorted(src.edges.items(), key=lambda kv: _edge_sort_key(kv[0])):
        attach_generic_params(e)
        e2 = dst.edges[key]
        dom, cod = e.dom.labels, e.cod.labels
        dom2, cod2 = e2.dom.labels, e2.cod.labels
        k = len(dom)
        f_hi = _plan(vertex_maps[e.hi], dom, dom2)
        f_lo = _plan(vertex_maps[e.lo], cod, cod2)
        source, target, unit, compose = _edge_plans(e)
        source2, target2, unit2, compose2 = _edge_plans(e2)
        loc = _edge_loc(e)
        st_run = _LawRun("morphism-source-target", loc, seed)
        z_run = _LawRun("morphism-unit", loc, seed)
        c_run = _LawRun("morphism-compose", loc, seed)
        for a in e.dom.sample(rng, samples):
            fa = f_hi(a)
            st_run.check(
                source2(fa) == f_lo(source(a)) and target2(fa) == f_lo(target(a)),
                lambda a=a: {"element": _fmt_point(dom, a, ring)})
        for y in e.cod.sample(rng, samples):
            z_run.check(unit2(f_lo(y)) == f_hi(unit(y)),
                        lambda y=y: {"object": _fmt_point(cod, y, ring)})
        for pair in _sample_tuples(e.pair_param, e.dom, (LEFT, RIGHT), rng, samples):
            a, b = pair[:k], pair[k:]
            c_run.check(f_hi(compose(pair)) == compose2(f_hi(a) + f_hi(b)),
                        lambda a=a, b=b: {"left": _fmt_point(dom, a, ring),
                                          "right": _fmt_point(dom, b, ring)})
        out.extend((st_run.report, z_run.report, c_run.report))
    return out


def _edge_sort_key(key):
    lo, hi = key
    return (subset_label(hi), subset_label(lo))


def check_presentation(p: NFoldPresentation, seed: int = 0,
                       samples: int = 50) -> list[CheckReport]:
    """Run the edge-category axioms on every edge and the double-category
    laws on every face of a presentation."""
    _require_samples(samples)
    out = []
    for key in sorted(p.edges, key=_edge_sort_key):
        out.extend(check_edge_category(p, key, seed=seed, samples=samples))
    for face in sorted(p.faces, key=_edge_sort_key):
        out.extend(check_face(p, face, seed=seed, samples=samples))
    return out
