"""Randomized exact law checkers for n-fold presentations.

Every check evaluates exact ring arithmetic on sampled composable tuples; a
pass is an identity on the sampled set, never an approximation.  Reports are
JSON-able: law, location, status, witness, samples, seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .derive import display_label, tag_of
from .polymap import PolyMap
from .presentation import (EdgeCat, NFoldPresentation, SamplingError,
                           attach_generic_params)


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


def _fmt_point(point: dict, ring) -> dict:
    return {display_label(l): ring.fmt(v) for l, v in sorted(
        point.items(), key=lambda kv: display_label(kv[0]))}


def _ev(m: PolyMap, point: dict) -> dict:
    return m.eval_labeled(point)


def _ev_tagged(m: PolyMap, points: dict) -> dict:
    vals = {}
    for l in m.in_labels:
        tg = tag_of(l)
        inner = l[1] if tg is not None else l
        vals[l] = points[tg][inner]
    return m.eval_labeled(vals)


def _split_tags(point: dict) -> dict:
    out: dict = {}
    for l, v in point.items():
        tg = tag_of(l)
        inner = l[1] if tg is not None else l
        out.setdefault(tg, {})[inner] = v
    return out


def _sample_via_param(param: PolyMap, schema, rng, count, span=2, max_tries=5000):
    """Evaluate a composability parameterization at random points; each tagged
    copy must satisfy the morphism-schema constraints."""
    ring = schema.ring
    out = []
    tries = 0
    while len(out) < count:
        if tries > max_tries:
            raise SamplingError(
                f"parameter sampling exhausted after {tries} tries")
        tries += 1
        vals = {}
        for l in param.in_labels:
            inner = l[1] if tag_of(l) is not None else l
            if inner in schema.unit_labels:
                vals[l] = ring.rand_unit(rng, span)
            else:
                vals[l] = ring.rand(rng, span)
        tup = _split_tags(param.eval_labeled(vals))
        if all(schema.satisfies(pt) for pt in tup.values()):
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

    unit_st = _LawRun("unit-source-target", loc, seed)
    comp_st = _LawRun("compose-source-target", loc, seed)
    unit_abs = _LawRun("unit-absorption", loc, seed)
    assoc = _LawRun("associativity", loc, seed)
    inv_laws = _LawRun("inverse", loc, seed) if e.inverse is not None else None
    runs = [unit_st, comp_st, unit_abs, assoc] + ([inv_laws] if inv_laws else [])

    for y in e.cod.sample(rng, samples):
        zy = _ev(e.unit, y)
        unit_st.check(_ev(e.source, zy) == y and _ev(e.target, zy) == y,
                      lambda y=y: {"object": _fmt_point(y, ring)})

    for pair in _sample_via_param(e.pair_param, e.dom, rng, samples):
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

    for trip in _sample_via_param(e.triple_param, e.dom, rng, samples):
        a, b, c = trip["a"], trip["b"], trip["c"]
        ab = _ev_tagged(e.compose, {"a": a, "b": b})
        bc = _ev_tagged(e.compose, {"a": b, "b": c})
        assoc.check(_ev_tagged(e.compose, {"a": ab, "b": c})
                    == _ev_tagged(e.compose, {"a": a, "b": bc}),
                    lambda a=a, b=b, c=c: {"a": _fmt_point(a, ring),
                                           "b": _fmt_point(b, ring),
                                           "c": _fmt_point(c, ring)})

    return [r.report for r in runs]


def _edge_loc(e: EdgeCat) -> str:
    return f"edge {_vertex_label(e.lo)}>{_vertex_label(e.hi)}"


def _vertex_label(v) -> str:
    from .hypercube import TwoTypedVertex, subset_label

    if isinstance(v, frozenset):
        return subset_label(v)
    if isinstance(v, TwoTypedVertex):
        return v.label()
    return str(v)


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
    loc = f"face {_vertex_label(face[0])}>{_vertex_label(face[1])}"

    proj_comm = _LawRun("projections-commute", loc, seed)
    unit_comm = _LawRun("units-commute", loc, seed)
    proj_fun = _LawRun("projection-functorial", loc, seed)
    unit_fun = _LawRun("unit-functorial", loc, seed)
    inter = _LawRun("interchange", loc, seed)

    for a in ei_top.dom.sample(rng, samples):
        ok = True
        for m_i in (ei_top.source, ei_top.target):
            for m_j in (ej_top.source, ej_top.target):
                down_i = _ev(m_i, a)          # at gamma+j
                down_j = _ev(m_j, a)          # at gamma+i
                mj_bot = ej_bot.source if m_j is ej_top.source else ej_bot.target
                mi_bot = ei_bot.source if m_i is ei_top.source else ei_bot.target
                ok = ok and _ev(mj_bot, down_i) == _ev(mi_bot, down_j)
        proj_comm.check(ok, lambda a=a: {"element": _fmt_point(a, ring)})

    for y in ei_bot.cod.sample(rng, samples):
        via_i = _ev(ej_top.unit, _ev(ei_bot.unit, y))
        via_j = _ev(ei_top.unit, _ev(ej_bot.unit, y))
        unit_comm.check(via_i == via_j,
                        lambda y=y: {"object": _fmt_point(y, ring)})

    # projections are morphisms: pi_sigma^{j-top}(a *_i b) equals
    # pi_sigma^{j-top}(a) *_{i-bot} pi_sigma^{j-top}(b), and with i, j swapped.
    for pair_edge, proj_edge, img_edge in ((ei_top, ej_top, ei_bot),
                                           (ej_top, ei_top, ej_bot)):
        for pair in _sample_via_param(pair_edge.pair_param, pair_edge.dom, rng, samples):
            a, b = pair["a"], pair["b"]
            comp = _ev_tagged(pair_edge.compose, {"a": a, "b": b})
            ok = True
            for m in (proj_edge.source, proj_edge.target):
                lhs = _ev(m, comp)
                rhs = _ev_tagged(img_edge.compose, {"a": _ev(m, a), "b": _ev(m, b)})
                ok = ok and lhs == rhs
            proj_fun.check(ok, lambda a=a, b=b: {"left": _fmt_point(a, ring),
                                                 "right": _fmt_point(b, ring)})

    # units are morphisms: z^{j-top}(u *_{i-bot} v) = z^{j-top}(u) *_{i-top} z^{j-top}(v)
    for unit_edge, pair_edge, top_edge in ((ej_top, ei_bot, ei_top),
                                           (ei_top, ej_bot, ej_top)):
        for pair in _sample_via_param(pair_edge.pair_param, pair_edge.dom, rng, samples):
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
    for q in _sample_via_param(quad_param, ei_top.dom, rng, samples):
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
        f_hi = vertex_maps[e.hi]
        f_lo = vertex_maps[e.lo]
        loc = _edge_loc(e)
        st_run = _LawRun("morphism-source-target", loc, seed)
        z_run = _LawRun("morphism-unit", loc, seed)
        c_run = _LawRun("morphism-compose", loc, seed)
        for a in e.dom.sample(rng, samples):
            fa = _ev(f_hi, a)
            st_run.check(
                _ev(e2.source, fa) == _ev(f_lo, _ev(e.source, a))
                and _ev(e2.target, fa) == _ev(f_lo, _ev(e.target, a)),
                lambda a=a: {"element": _fmt_point(a, ring)})
        for y in e.cod.sample(rng, samples):
            z_run.check(
                _ev(e2.unit, _ev(f_lo, y)) == _ev(f_hi, _ev(e.unit, y)),
                lambda y=y: {"object": _fmt_point(y, ring)})
        for pair in _sample_via_param(e.pair_param, e.dom, rng, samples):
            a, b = pair["a"], pair["b"]
            lhs = _ev(f_hi, _ev_tagged(e.compose, {"a": a, "b": b}))
            rhs = _ev_tagged(e2.compose, {"a": _ev(f_hi, a), "b": _ev(f_hi, b)})
            c_run.check(lhs == rhs,
                        lambda a=a, b=b: {"left": _fmt_point(a, ring),
                                          "right": _fmt_point(b, ring)})
        out.extend((st_run.report, z_run.report, c_run.report))
    return out


def _edge_sort_key(key):
    lo, hi = key
    return (_vertex_label(hi), _vertex_label(lo))


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
