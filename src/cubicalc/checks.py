"""Law checkers for n-fold presentations and their morphisms.

Each law is written once, as a record (`_Law`): a name, witness keys, and
clauses that pair a space with a body, a plain function over lifted maps
that returns the truth of the law at one point.  `_edge_laws`, `_face_laws`
and `_morphism_laws` list the laws of one structure in report order, and
`_run` checks them on a back-end: `_Sampled` evaluates exact ring arithmetic
at seeded random points (a pass is an identity on the sampled set, never an
approximation), `_Symbolic` composes polynomial maps (a pass is a polynomial
identity).  Sampled points are positional and in content form: a point
lists the canonical (numerator, denominator) pairs of its values
(`Ring.content`) in its schema's `labels` order, from the draw
(`Ring.draw`) through every map to the `==` that compares them, and each map
is resolved to positions once (`_plan`).  Labels and scalars come back only
in witnesses.  Reports are JSON-able: law, location, status, witness,
samples, seed.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from typing import NamedTuple

from .derive import display_label, tag_of
from .hypercube import subset_label
from .polymap import Poly, PolyError, PolyMap
from .presentation import (LEFT, RIGHT, CoordSchema, EdgeCat,
                           NFoldPresentation, SamplingError,
                           attach_generic_params, tagged)


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
    """A witness: each value of a content point, by its label's display."""
    return {display_label(l): ring.fmt(ring.join(*v)) for l, v in sorted(
        zip(labels, point), key=lambda kv: display_label(kv[0]))}


def _plan(m: PolyMap, layout, order):
    """`m` resolved once against positional content points: the returned
    function takes a point that lists the pairs of its values in `layout`
    order and returns the pairs of m's value listed in `order`.  It is m's
    kernel positioned there and bound to m's ring (`_Kernel.at`: inputs
    gathered from the point, outputs permuted, constants made once)."""
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
    return m._kernel.at(m.ring, gather, perm)


def _tuple_layout(tags, schema) -> tuple:
    """The labels of a tagged tuple: the concatenation of one copy of the
    schema labels per tag."""
    return tuple(l for tag in tags for l in tagged(tag, schema.labels))


def _sample_tuples(param: PolyMap, schema, tags, rng, count, span=2,
                   max_tries=5000) -> list[list]:
    """Evaluate a composability parameterization at random points, drawn
    and evaluated in content form.  A tuple is the concatenation of its
    tagged copies, in `tags` order; each copy must satisfy the schema
    constraints."""
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
        tup = ev(ring.draw(rng, units, span))
        if all(schema.satisfies(tup[j * k:(j + 1) * k]) for j in range(len(tags))):
            out.append(tup)
    return out


def _require_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


@dataclass(eq=False)
class _Space:
    """The points of `schema` or, given `param`, the tuples it yields, one
    copy of the schema per tag.  Laws share a space as one object, drawn
    once per check call."""

    schema: CoordSchema
    param: PolyMap | None = None
    tags: tuple = ()


class _Law(NamedTuple):
    """A law: its name, the witness keys of a point's elements, and its
    clauses, (space, body) pairs; a body returns the law's truth at one
    point of its space."""

    name: str
    witness: tuple
    clauses: tuple


class _Sampled:
    """Seeded random points: a map is a positional `_plan`, a point is the
    list of the canonical pairs of its values, and equality is `==`."""

    eq = staticmethod(operator.eq)

    def __init__(self, ring, seed: int, samples: int):
        self.ring, self.seed, self.samples = ring, seed, samples
        self.rng = random.Random(seed)

    @staticmethod
    def map(m: PolyMap, frm, to):
        return _plan(m, frm.labels, to.labels)

    @staticmethod
    def composer(edge: EdgeCat, schema):
        run = _plan(edge.compose, _tuple_layout((LEFT, RIGHT), schema),
                    schema.labels)
        return lambda x, y: run(x + y)

    def draw(self, space: _Space) -> list:
        if space.param is None:
            return [(pt,) for pt in space.schema.draw(self.rng, self.samples)]
        k = space.schema.dim()
        return [tuple(tup[j * k:(j + 1) * k] for j in range(len(space.tags)))
                for tup in _sample_tuples(space.param, space.schema, space.tags,
                                          self.rng, self.samples)]

    def report(self, law: _Law, location: str, samples: int, failure):
        out = CheckReport(law.name, location, "pass", samples, self.seed)
        if failure is not None:
            labels, pt = failure
            out.status, out.witness = "fail", {
                key: _fmt_point(labels, x, self.ring)
                for key, x in zip(law.witness, pt)}
        return out


class _Symbolic:
    """Polynomial identities: a point is a `PolyMap` from the parameters of
    its space, a map acts by `compose`, and equality is `PolyMap.equals`."""

    def __init__(self, ring):
        self.ring = ring
        # each free point drawn, by id; holding it keeps its id from reuse
        self._free: dict = {}

    @staticmethod
    def eq(x: PolyMap, y: PolyMap) -> bool:
        return x.equals(y)

    def map(self, m: PolyMap, frm, to):
        free = self._free

        def run(x):
            # at the free point, an identity, m is m over the point's inputs
            if free.get(id(x)) is x:
                return m.extend_inputs(x.in_labels)
            return m.compose(x)
        return run

    def composer(self, edge: EdgeCat, schema):
        # the pair (x, y) is both points' components under the tags: nothing
        # is substituted until compose
        return lambda x, y: edge.compose.compose(PolyMap(
            self.ring, x.in_labels, x.comps + y.comps,
            tagged(LEFT, x.out_labels) + tagged(RIGHT, y.out_labels)))

    def draw(self, space: _Space) -> list:
        labels = space.schema.labels
        if space.param is None:
            x = PolyMap.identity(self.ring, labels)
            self._free[id(x)] = x
            return [(x,)]
        comps = dict(zip(space.param.out_labels, space.param.comps))
        return [tuple(PolyMap(self.ring, space.param.in_labels,
                              tuple(comps[l] for l in tagged(tag, labels)), labels)
                      for tag in space.tags)]

    @staticmethod
    def report(law: _Law, location: str, samples: int, failure):
        return CheckReport(law.name, location,
                           "pass" if failure is None else "fail", 0)


def _run(B, location: str, laws) -> list[CheckReport]:
    """One report per law of a table, in table order, on back-end B.  A space
    is drawn on its first use, which keeps the draws in law order; every
    point is a sample, and the first that fails is the witness."""
    drawn, out = {}, []
    for law in laws:
        samples, failure = 0, None
        for space, body in law.clauses:
            if space not in drawn:
                drawn[space] = B.draw(space)
            for pt in drawn[space]:
                samples += 1
                if not body(*pt) and failure is None:
                    failure = space.schema.labels, pt
        out.append(B.report(law, location, samples, failure))
    return out


def _commutes(eq, squares):
    """The body of commuting squares (f, g, h, k): g after f is k after h."""
    return lambda x: all(eq(g(f(x)), k(h(x))) for f, g, h, k in squares)


def _functorial(eq, maps, compose, img_compose):
    """The body of `maps` carrying composites to composites of images."""
    def body(a, b):
        comp = compose(a, b)
        return all(eq(m(comp), img_compose(m(a), m(b))) for m in maps)
    return body


def _edge_laws(B, e: EdgeCat) -> list[_Law]:
    """The category axioms of one edge, and the inverse law of a groupoid
    edge."""
    source, target = B.map(e.source, e.dom, e.cod), B.map(e.target, e.dom, e.cod)
    unit, compose, eq = B.map(e.unit, e.cod, e.dom), B.composer(e, e.dom), B.eq
    pairs = _Space(e.dom, e.pair_param, (LEFT, RIGHT))

    def unit_source_target(y):
        zy = unit(y)
        return eq(source(zy), y) and eq(target(zy), y)

    def compose_source_target(a, b):
        c = compose(a, b)
        return eq(source(c), source(b)) and eq(target(c), target(a))

    def unit_absorption(a, b):
        return eq(compose(a, unit(source(a))), a) \
            and eq(compose(unit(target(b)), b), b)

    def associativity(a, b, c):
        return eq(compose(compose(a, b), c), compose(a, compose(b, c)))

    laws = [_Law("unit-source-target", ("object",),
                 ((_Space(e.cod), unit_source_target),)),
            _Law("compose-source-target", ("left", "right"),
                 ((pairs, compose_source_target),)),
            _Law("unit-absorption", ("left", "right"), ((pairs, unit_absorption),)),
            _Law("associativity", ("a", "b", "c"),
                 ((_Space(e.dom, e.triple_param, (LEFT, RIGHT, "c")),
                   associativity),))]
    if e.inverse is not None:
        inverse = B.map(e.inverse, e.dom, e.dom)

        def inverse_law(a, b):
            ia = inverse(a)
            return (eq(source(ia), target(a)) and eq(target(ia), source(a))
                    and eq(compose(ia, a), unit(source(a)))
                    and eq(compose(a, ia), unit(target(a))))
        laws.append(_Law("inverse", ("element",), ((pairs, inverse_law),)))
    return laws


def check_edge_category(p: NFoldPresentation, key, seed: int = 0,
                        samples: int = 50) -> list[CheckReport]:
    """Category (and groupoid) axioms of one edge on exact random samples."""
    _require_samples(samples)
    e = p.edges[key] if not isinstance(key, EdgeCat) else key
    attach_generic_params(e)
    B = _Sampled(p.ring, seed, samples)
    return _run(B, _edge_loc(e), _edge_laws(B, e))


def _edge_loc(e: EdgeCat) -> str:
    return f"edge {subset_label(e.lo)}>{subset_label(e.hi)}"


def generic_quad_param(p: NFoldPresentation, face) -> PolyMap:
    """Interchange-quadruple parameterization for faces whose source maps are
    coordinate projections: d free, c over tgt_i(d), b over tgt_j(d), a pinned
    by tgt_i(b) and tgt_j(c) with the double fiber free."""
    _, _, _, ei_top, _, ej_top = p.face_frame(face)
    top = ei_top.dom.labels
    base_i = set(ei_top.cod.labels)  # alpha minus i
    base_j = set(ej_top.cod.labels)  # alpha minus j
    fiber_i, fiber_j, rest = ([l for l in top if l not in base]
                              for base in (base_i, base_j, base_i | base_j))
    params = tagged("d", top) + tagged("c", fiber_i) + tagged("b", fiber_j) \
        + tagged("a", rest)
    var = Poly.coords(p.ring, params)

    def element(tag, pinned: dict) -> dict:
        return {l: pinned[l] if l in pinned else var((tag, l)) for l in top}

    def below(edge, point: dict, base) -> dict:
        tgt = edge.target.subst(point, params)
        return {l: tgt.component(l) for l in base}

    d = element("d", {})
    c = element("c", below(ei_top, d, base_i))
    b = element("b", below(ej_top, d, base_j))
    # on base_i, a is pinned by tgt_i(b); on the rest of base_j, by tgt_j(c)
    a = element("a", {**below(ej_top, c, base_j), **below(ei_top, b, base_i)})
    return PolyMap.from_label_exprs(p.ring, params, {
        (tag, l): pt[l] for tag, pt in (("a", a), ("b", b), ("c", c), ("d", d))
        for l in top})


def _face_laws(B, p: NFoldPresentation, face) -> list[_Law]:
    """Double-category laws of one face: commuting projections and units,
    functoriality of projections and units, and the interchange law."""
    i, j, ei_bot, ei_top, ej_bot, ej_top = p.face_frame(face)
    for e in (ei_bot, ei_top, ej_bot, ej_top):
        attach_generic_params(e)
    # the four vertex schemas: alpha on top, gamma+j below it in direction
    # i, gamma+i below it in direction j, gamma at the bottom
    top, at_gj, at_gi, bottom = ei_top.dom, ei_top.cod, ej_top.cod, ei_bot.cod
    move, composer, eq = B.map, B.composer, B.eq

    def functorial(maps, pair_edge, img_edge, frm, to):
        return (_Space(frm, pair_edge.pair_param, (LEFT, RIGHT)),
                _functorial(eq, [move(m, frm, to) for m in maps],
                            composer(pair_edge, frm), composer(img_edge, to)))

    # down in direction i then j equals down in j then i, for the source or
    # the target in each direction
    projections = [(move(m_i, top, at_gj), move(mj_bot, at_gj, bottom),
                    move(m_j, top, at_gi), move(mi_bot, at_gi, bottom))
                   for m_i, mi_bot in ((ei_top.source, ei_bot.source),
                                       (ei_top.target, ei_bot.target))
                   for m_j, mj_bot in ((ej_top.source, ej_bot.source),
                                       (ej_top.target, ej_bot.target))]
    units = [(move(ei_bot.unit, bottom, at_gi), move(ej_top.unit, at_gi, top),
              move(ej_bot.unit, bottom, at_gj), move(ei_top.unit, at_gj, top))]
    quad_param = p.quad_params.get(face)
    if quad_param is None:
        quad_param = generic_quad_param(p, face)
    compose_i, compose_j = composer(ei_top, top), composer(ej_top, top)

    def interchange(a, b, c, d):
        return eq(compose_j(compose_i(a, b), compose_i(c, d)),
                  compose_i(compose_j(a, c), compose_j(b, d)))

    pair = ("left", "right")
    return [
        _Law("projections-commute", ("element",),
             ((_Space(top), _commutes(eq, projections)),)),
        _Law("units-commute", ("object",), ((_Space(bottom), _commutes(eq, units)),)),
        # projections are morphisms: pi_sigma^{j-top}(a *_i b) equals
        # pi_sigma^{j-top}(a) *_{i-bot} pi_sigma^{j-top}(b), and with i, j swapped
        _Law("projection-functorial", pair, (
            functorial((ej_top.source, ej_top.target), ei_top, ei_bot, top, at_gi),
            functorial((ei_top.source, ei_top.target), ej_top, ej_bot, top, at_gj))),
        # units are morphisms:
        # z^{j-top}(u *_{i-bot} v) = z^{j-top}(u) *_{i-top} z^{j-top}(v)
        _Law("unit-functorial", pair, (
            functorial((ej_top.unit,), ei_bot, ei_top, at_gi, top),
            functorial((ei_top.unit,), ej_bot, ej_top, at_gj, top))),
        _Law("interchange", tuple("abcd"),
             ((_Space(top, quad_param, tuple("abcd")), interchange),))]


def check_face(p: NFoldPresentation, face, seed: int = 0,
               samples: int = 50) -> list[CheckReport]:
    """Double-category laws of one face: commuting projections and units,
    functoriality of projections and units, and the interchange law."""
    _require_samples(samples)
    B = _Sampled(p.ring, seed, samples)
    laws = _face_laws(B, p, face)
    return _run(B, f"face {subset_label(face[0])}>{subset_label(face[1])}", laws)


def _morphism_laws(B, src: NFoldPresentation, dst: NFoldPresentation, key,
                   lift, prefix: str, finite: bool = False) -> list[_Law]:
    """The laws of vertex maps, lifted by `lift(vertex, frm, to)`, commuting
    with the structure maps of the edge `key`.  A finite-part law is known
    only pointwise: its source-target law runs on the left element of each
    composable pair, and it has no unit law."""
    e = attach_generic_params(src.edges[key])
    e2 = dst.edges[key]
    f_hi, f_lo = lift(e.hi, e.dom, e2.dom), lift(e.lo, e.cod, e2.cod)
    source, target = B.map(e.source, e.dom, e.cod), B.map(e.target, e.dom, e.cod)
    source2 = B.map(e2.source, e2.dom, e2.cod)
    target2 = B.map(e2.target, e2.dom, e2.cod)
    compose, compose2, eq = B.composer(e, e.dom), B.composer(e2, e2.dom), B.eq
    pairs = _Space(e.dom, e.pair_param, (LEFT, RIGHT))

    def source_target(a, *right):
        fa = f_hi(a)
        return eq(source2(fa), f_lo(source(a))) and eq(target2(fa), f_lo(target(a)))

    st = _Law(prefix + "source-target", ("element",),
              ((pairs if finite else _Space(e.dom), source_target),))
    comp = _Law(prefix + "compose", ("left", "right"),
                ((pairs, _functorial(eq, [f_hi], compose, compose2)),))
    if finite:
        return [st, comp]
    unit_square = (f_lo, B.map(e2.unit, e2.cod, e2.dom),
                   B.map(e.unit, e.cod, e.dom), f_hi)
    return [st, _Law(prefix + "unit", ("object",),
                     ((_Space(e.cod), _commutes(eq, [unit_square])),)), comp]


def check_morphism(src: NFoldPresentation, dst: NFoldPresentation,
                   vertex_maps: dict, seed: int = 0,
                   samples: int = 50) -> list[CheckReport]:
    """Verify that a family of vertex maps commutes with source, target, unit
    and composition on every edge (sampled, exact)."""
    _require_samples(samples)
    B = _Sampled(src.ring, seed, samples)

    def lift(vertex, frm, to):
        return B.map(vertex_maps[vertex], frm, to)
    return [r for key in sorted(src.edges, key=_edge_sort_key)
            for r in _run(B, _edge_loc(src.edges[key]),
                          _morphism_laws(B, src, dst, key, lift, "morphism-"))]


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
