"""Builders for the concrete n-fold groupoids and categories.

Pair groupoids and scaled action cats come from their closed-form structure
theorems; the symmetric cubic groupoid from its explicit edge formulas; the
full cubic groupoid and the scaleoids from the one-step groupoid of each
direction, pushed through the later directions by `derive._staged`, with
source, unit and composition read off the coordinate labels.  Every edge
category except the pair groupoid's splice comes from one of two builders,
`additive_edge_cat` and `action_edge`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .derive import (_canon, _shift_target, _staged, _staged_labels, _v_labels,
                     slab, tlab, vlab, with_tag)
from .extension import ExtElement, _Split
from .hypercube import (alpha_stair, cube_directions, kcubes, subset_label,
                        subsets)
from .polymap import Poly, PolyMap, PolyRing
from .presentation import (BoxConstraint, CoordSchema, EdgeCat,
                           NFoldPresentation, edge_order, subset_faces,
                           subsets_presentation_vertices, tagged)
from .rings import QQ, Ring, RingError


class ConstructionError(ValueError):
    pass


def additive_edge_cat(ring: Ring, direction, lo, hi, dom: CoordSchema,
                      cod: CoordSchema, target: PolyMap) -> EdgeCat:
    """Edge category whose source is the coordinate projection, unit the
    zero-padding inclusion, and composition addition of the fiber block."""
    dom_l, cod_l = dom.labels, cod.labels
    if target.in_labels != dom_l:
        target = target.extend_inputs(dom_l)
    cod_set = set(cod_l)
    fiber = [l for l in dom_l if l not in cod_set]
    source = PolyMap.projection(ring, dom_l, cod_l)
    y = Poly.coords(ring, cod_l)
    unit = PolyMap.from_label_exprs(ring, cod_l, {
        **{l: y(l) for l in cod_l},
        **{l: Poly.zero(ring, len(cod_l)) for l in fiber}})
    pair_labels = tagged("a", dom_l) + tagged("b", dom_l)
    ab = Poly.coords(ring, pair_labels)
    compose = PolyMap.from_label_exprs(ring, pair_labels, {
        **{l: ab(("b", l)) for l in cod_l},
        **{l: ab(("a", l)) + ab(("b", l)) for l in fiber}})
    x = Poly.coords(ring, dom_l)
    inverse = PolyMap.from_label_exprs(ring, dom_l, {
        **{l: target.component(l) for l in cod_l},
        **{l: -x(l) for l in fiber}})
    return EdgeCat(direction, lo, hi, dom, cod, source, target, unit, compose,
                   inverse)


def action_edge(ring: Ring, k: int, lo, hi, dom: CoordSchema, cod: CoordSchema,
                scaled) -> EdgeCat:
    """Edge category of the scale action in direction k; the morphisms carry
    the object coordinates and s_k.  The source multiplies s_k into t_k, the
    target multiplies it into the `scaled` block, the unit sets s_k = 1, and
    composition multiplies the s_k and keeps the left t_k.  Not a groupoid.

    Composable chains are parameterized from the left scales, so that no
    division is needed: t_k chains leftwards (t_right = s_left t_left) and
    the scaled block of an element is the rightmost one's times the s_k of
    everything to its right."""
    sk, tk = slab({k}), tlab({k})
    dom_l, cod_l = dom.labels, cod.labels
    scaled = tuple(scaled)
    x = Poly.coords(ring, dom_l)
    source = PolyMap.from_label_exprs(ring, dom_l, {
        **{l: x(l) for l in cod_l if l != tk}, tk: x(sk) * x(tk)})
    target = PolyMap.from_label_exprs(ring, dom_l, {
        l: x(sk) * x(l) if l in scaled else x(l) for l in cod_l})
    y = Poly.coords(ring, cod_l)
    unit = PolyMap.from_label_exprs(ring, cod_l, {
        **{l: y(l) for l in cod_l}, sk: Poly.const(ring, len(cod_l), ring.one())})
    pair_labels = tagged("a", dom_l) + tagged("b", dom_l)
    ab = Poly.coords(ring, pair_labels)
    compose = PolyMap.from_label_exprs(ring, pair_labels, {
        **{l: ab(("b", l)) for l in cod_l if l != tk},
        sk: ab(("a", sk)) * ab(("b", sk)), tk: ab(("a", tk))})
    fixed = tuple(l for l in cod_l if l != tk and l not in scaled)

    def chain(tags: tuple) -> PolyMap:
        last = tags[-1]
        params = tuple((last, l) for l in fixed + scaled) \
            + tuple((tg, sk) for tg in tags) + ((tags[0], tk),)
        v = Poly.coords(ring, params)
        t_of = {tags[0]: v((tags[0], tk))}
        for left, right in zip(tags, tags[1:]):
            t_of[right] = v((left, sk)) * t_of[left]
        exprs = {}
        for idx, tg in enumerate(tags):
            for l in fixed:
                exprs[(tg, l)] = v((last, l))
            for l in scaled:
                acc = v((last, l))
                for right in tags[idx + 1:]:
                    acc = v((right, sk)) * acc
                exprs[(tg, l)] = acc
            exprs[(tg, sk)] = v((tg, sk))
            exprs[(tg, tk)] = t_of[tg]
        return PolyMap.from_label_exprs(ring, params, exprs)

    return EdgeCat(k, lo, hi, dom, cod, source, target, unit, compose, None,
                   pair_param=chain(("a", "b")),
                   triple_param=chain(("a", "b", "c")))


# ---------------------------------------------------------------------------
# pair groupoid (edge-symmetric n-fold iteration of M x M over M)
# ---------------------------------------------------------------------------


def pair_groupoid(n: int, carrier_dim: int = 1, ring: Ring = QQ) -> NFoldPresentation:
    """PG^n M: vertex alpha carries M^(2^|alpha|), projections pick the
    i-block, units are diagonal, composition splices blocks."""
    verts = subsets_presentation_vertices(n)
    schemas = {a: CoordSchema(ring, _v_labels(a, carrier_dim)) for a in verts}
    edges = {}
    for lo, hi in kcubes(verts, 1):
        (i,) = hi - lo
        dom, cod = schemas[hi], schemas[lo]
        x, y = Poly.coords(ring, dom.labels), Poly.coords(ring, cod.labels)
        target = PolyMap.from_label_exprs(ring, dom.labels, {
            vlab(g, c): x(vlab(g | {i}, c))
            for g in subsets(lo) for c in range(carrier_dim)})
        source = PolyMap.projection(ring, dom.labels, cod.labels)
        unit = PolyMap.from_label_exprs(ring, cod.labels, {
            **{l: y(l) for l in cod.labels},
            **{vlab(g | {i}, c): y(vlab(g, c))
               for g in subsets(lo) for c in range(carrier_dim)}})
        pair_labels = tagged("a", dom.labels) + tagged("b", dom.labels)
        ab = Poly.coords(ring, pair_labels)
        compose = PolyMap.from_label_exprs(ring, pair_labels, {
            l: ab(("b" if i not in l.index else "a", l)) for l in dom.labels})
        inverse = PolyMap.from_label_exprs(ring, dom.labels, {
            **{vlab(g, c): x(vlab(g | {i}, c))
               for g in subsets(lo) for c in range(carrier_dim)},
            **{vlab(g | {i}, c): x(vlab(g, c))
               for g in subsets(lo) for c in range(carrier_dim)}})
        edges[(lo, hi)] = EdgeCat(i, lo, hi, dom, cod, source, target, unit,
                                  compose, inverse)
    return NFoldPresentation(f"PG^{n}", ring, tuple(range(1, n + 1)), verts,
                             schemas, edges, subset_faces(verts))


# ---------------------------------------------------------------------------
# scaled action category (S = K = the base ring acting on V = K^d)
# ---------------------------------------------------------------------------


def scaled_action(n: int, vdim: int = 1, ring: Ring = QQ) -> NFoldPresentation:
    """A^n V: each s_i acts on V and multiplies into the i-th scale slot.

    Not a groupoid (no inverses); the source maps are not projections, so all
    composability parameterizations come with the edges (`action_edge`).
    """
    verts = subsets_presentation_vertices(n)
    schemas = {}
    for a in verts:
        labels = [vlab((), c) for c in range(vdim)]
        labels += [slab({k}) for k in sorted(a)]
        labels += [tlab({k}) for k in range(1, n + 1)]
        schemas[a] = CoordSchema(ring, _canon(labels))
    v_block = tuple(vlab((), c) for c in range(vdim))
    edges = {}
    for lo, hi in kcubes(verts, 1):
        (i,) = hi - lo
        edges[(lo, hi)] = action_edge(ring, i, lo, hi, schemas[hi], schemas[lo],
                                      v_block)
    faces = subset_faces(verts)
    quads = {}
    pres = NFoldPresentation(f"SA^{n}", ring, tuple(range(1, n + 1)), verts,
                             schemas, edges, faces, quads)
    for face in faces:
        quads[face] = _sa_quad_param(pres, face, vdim)
    return pres


def _sa_quad_param(p: NFoldPresentation, face, vdim: int) -> PolyMap:
    """Interchange quadruples for a scaled-action face (directions i, j)."""
    i, j, *_ = p.face_frame(face)
    ring = p.ring
    top = p.schemas[face[1]].labels
    ti, si = tlab({i}), slab({i})
    tj, sj = tlab({j}), slab({j})

    params = tuple(with_tag("d", l) for l in top if l not in (ti, tj)) \
        + (("c", si), ("c", ti), ("b", sj), ("b", tj))
    v = Poly.coords(ring, params)
    d_pt = {l: v(("d", l)) for l in top if l not in (ti, tj)}
    d_pt[ti] = v(("c", si)) * v(("c", ti))
    d_pt[tj] = v(("b", sj)) * v(("b", tj))

    def build(scale_i, scale_j, s_i, t_i, s_j, t_j):
        pt = {}
        for l in top:
            if l.kind == "v":
                acc = d_pt[l]
                if scale_i:
                    acc = acc * d_pt[si]
                if scale_j:
                    acc = acc * d_pt[sj]
                pt[l] = acc
            elif l == si:
                pt[l] = s_i
            elif l == sj:
                pt[l] = s_j
            elif l == ti:
                pt[l] = t_i
            elif l == tj:
                pt[l] = t_j
            else:
                pt[l] = d_pt[l]
        return pt

    c_pt = build(True, False, v(("c", si)), v(("c", ti)), d_pt[sj], d_pt[tj])
    b_pt = build(False, True, d_pt[si], d_pt[ti], v(("b", sj)), v(("b", tj)))
    a_pt = build(True, True, v(("c", si)), v(("c", ti)), v(("b", sj)), v(("b", tj)))

    exprs = {}
    for tag, pt in (("a", a_pt), ("b", b_pt), ("c", c_pt), ("d", d_pt)):
        for l in top:
            exprs[(tag, l)] = pt[l]
    return PolyMap.from_label_exprs(ring, params, exprs)


# ---------------------------------------------------------------------------
# symmetric cubic groupoid Gsy^n_t (fixed scales) and its symbolic variant
# ---------------------------------------------------------------------------


def _tprod(ring: Ring, t: dict, gamma) -> object:
    acc = ring.one()
    for k in gamma:
        acc = ring.mul(acc, t[k])
    return acc


def _scaled_sum(ring: Ring, labels: tuple, t: dict, gamma, c: int) -> Poly:
    """The sum over delta within gamma of t_delta * v_{delta,c}, over the
    coordinates `labels`."""
    x = Poly.coords(ring, labels)
    acc = Poly.zero(ring, len(labels))
    for d in subsets(gamma):
        acc = acc + x(vlab(d, c)).scale(_tprod(ring, t, d))
    return acc


def gsy(n: int, t, vdim: int = 1, ring: Ring = QQ, box=None,
        name: str | None = None) -> NFoldPresentation:
    """Gsy^n_t U: vertex alpha carries (v_gamma) for gamma within alpha; the
    target adds t_i * v_{gamma|i}; composition adds the i-block.

    `box` is an optional interval (lo, hi) cutting U out of V = K^vdim; the
    membership conditions are sum over gamma within beta of t.v_gamma in U,
    one for every beta within alpha.  An interval needs an order, so a box
    is refused outside Q, and so is an empty one.
    """
    t = {k + 1: tv for k, tv in enumerate(t)}
    if len(t) != n:
        raise ConstructionError(f"need {n} scales, got {len(t)}")
    if box is not None:
        if ring != QQ:
            raise ConstructionError(f"a box needs an ordered ring; {ring!r} "
                                    "is not ordered")
        if box[0] > box[1]:
            raise ConstructionError(f"empty box: {box[0]} > {box[1]}")
    verts = subsets_presentation_vertices(n)
    schemas = {}
    for a in verts:
        labels = _v_labels(a, vdim)
        constraints = ()
        if box is not None:
            lo_b, hi_b = box
            constraints = tuple(
                BoxConstraint(PolyMap(ring, labels, tuple(
                    _scaled_sum(ring, labels, t, beta, c) for c in range(vdim))),
                    lo_b, hi_b)
                for beta in subsets(a))
        schemas[a] = CoordSchema(ring, labels, constraints)
    edges = {}
    for lo, hi in kcubes(verts, 1):
        (i,) = hi - lo
        dom, cod = schemas[hi], schemas[lo]
        x = Poly.coords(ring, dom.labels)
        target = PolyMap.from_label_exprs(ring, dom.labels, {
            vlab(g, c): x(vlab(g, c)) + x(vlab(g | {i}, c)).scale(t[i])
            for g in subsets(lo) for c in range(vdim)})
        edges[(lo, hi)] = additive_edge_cat(ring, i, lo, hi, dom, cod, target)
    label = name or f"Gsy^{n}_{{{','.join(ring.fmt(t[k]) for k in sorted(t))}}}"
    return NFoldPresentation(label, ring, tuple(range(1, n + 1)), verts,
                             schemas, edges, subset_faces(verts))


def tangent(n: int, vdim: int = 1, ring: Ring = QQ) -> NFoldPresentation:
    """T^n U = Gsy^n at t = 0: source equals target on every edge."""
    return gsy(n, [ring.zero()] * n, vdim, ring, name=f"T^{n}")


def gsy_symbolic(n: int, vdim: int = 1, ring: Ring = QQ) -> NFoldPresentation:
    """Gsy^n with the scales t_1..t_n carried as coordinates of every vertex
    (the form used for symbolic comparisons with the full cubic groupoid)."""
    verts = subsets_presentation_vertices(n)
    t_labels = [tlab({k}) for k in range(1, n + 1)]
    schemas = {}
    for a in verts:
        labels = _canon([vlab(g, c) for g in subsets(a) for c in range(vdim)]
                        + t_labels)
        schemas[a] = CoordSchema(ring, labels)
    edges = {}
    for lo, hi in kcubes(verts, 1):
        (i,) = hi - lo
        dom, cod = schemas[hi], schemas[lo]
        x = Poly.coords(ring, dom.labels)
        exprs = {l: x(l) for l in t_labels}
        for g in subsets(lo):
            for c in range(vdim):
                exprs[vlab(g, c)] = x(vlab(g, c)) \
                    + exprs[tlab({i})] * x(vlab(g | {i}, c))
        target = PolyMap.from_label_exprs(ring, dom.labels, exprs)
        edges[(lo, hi)] = additive_edge_cat(ring, i, lo, hi, dom, cod, target)
    return NFoldPresentation(f"Gsy^{n}(sym)", ring, tuple(range(1, n + 1)),
                             verts, schemas, edges, subset_faces(verts))


def gsy_scalar_action(n: int, s, t, vdim: int = 1, ring: Ring = QQ):
    """The morphism Phi_s: Gsy_{s.t} -> Gsy_t given by v_gamma -> s.v_gamma.

    Returns (source presentation, destination presentation, vertex maps).
    """
    if len(s) != n:
        raise ConstructionError(f"need {n} scalars, got {len(s)}")
    st = [ring.mul(sv, tv) for sv, tv in zip(s, t)]
    return (gsy(n, st, vdim, ring), gsy(n, list(t), vdim, ring),
            _scalar_action_maps(n, s, vdim, ring))


def _scalar_action_maps(n: int, s, vdim: int, ring: Ring) -> dict:
    """The vertex maps of Phi_s (see `gsy_scalar_action`), by vertex."""
    s = {k + 1: sv for k, sv in enumerate(s)}
    maps = {}
    for a in subsets_presentation_vertices(n):
        labels = _v_labels(a, vdim)
        x = Poly.coords(ring, labels)
        maps[a] = PolyMap.from_label_exprs(ring, labels, {
            l: x(l).scale(_tprod(ring, s, l.index)) for l in labels})
    return maps


def trivialization_maps(n: int, t, vdim: int = 1, ring: Ring = QQ):
    """Finite-part trivialization Gsy_t -> PG^n: x_gamma = sum of t.v_delta
    over delta within gamma (the split transform of A_t), every t_i a unit.
    Returns (vertex maps, inverse vertex maps)."""
    for tv in t:
        if not ring.is_unit(tv):
            raise RingError("trivialization requires invertible scales")
    fwd, back = {}, {}
    for a in subsets_presentation_vertices(n):
        labels = _v_labels(a, vdim)
        base = _generic_point(ring, labels, a, t, vdim)
        split = _Split(base[0].ring, base[0].t)
        at = {g: m for m, g in enumerate(subsets(a, binary=True))}
        for maps, move in ((fwd, split.split), (back, split.unsplit)):
            images = [move(list(b.coeffs)) for b in base]
            maps[a] = PolyMap.from_label_exprs(ring, labels, {
                vlab(g, c): images[c][at[g]]
                for g in subsets(a) for c in range(vdim)})
    return fwd, back


def _generic_point(ring: Ring, in_labels, alpha, t, p: int) -> list:
    """Sum over gamma within alpha of v_gamma_c X^gamma in A_t, for each
    c < p, its coefficients the coordinates `in_labels` in a `PolyRing`."""
    alpha = tuple(sorted(alpha))
    x = Poly.coords(ring, in_labels)
    scales = tuple(Poly.const(ring, len(in_labels), t[e - 1]) for e in alpha)
    at = subsets(alpha, binary=True)
    return [ExtElement(PolyRing(ring, len(in_labels)), alpha, scales,
                       tuple(x(vlab(g, c)) for g in at)) for c in range(p)]


# ---------------------------------------------------------------------------
# full cubic groupoid G^N and scaleoids (staged one-step targets)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _full_labels(N: tuple, alpha: frozenset, vdim: int) -> tuple:
    return _staged_labels(vdim, N, alpha)


@lru_cache(maxsize=None)
def _full_target(N: tuple, beta: frozenset, alpha: frozenset, vdim: int,
                 ring: Ring = QQ) -> PolyMap:
    """Target projection of the edge (beta, alpha) of G^N over the vertex
    set at alpha: the target of the one-step groupoid in direction d over
    the stages before d, pushed through the stages after d (derived inside
    alpha, extended outside)."""
    (d,) = tuple(alpha - beta)
    i = N.index(d)
    return _staged(_shift_target(ring, _staged_labels(vdim, N[:i], beta), d,
                                 with_s=False), N[i + 1:], [alpha]
                   )[alpha].extend_inputs(_full_labels(N, alpha, vdim))


def gfull_edge_target(N, lo, hi, vdim: int = 1, ring: Ring = QQ) -> PolyMap:
    """The target projection of the edge lo > hi of G^N U, from the vertex
    set at hi (its input labels) to the one at lo, with no presentation
    built; vdim=0 gives the scaleoid's."""
    return _full_target(cube_directions(N), frozenset(lo), frozenset(hi),
                        vdim, ring)


def gfull(N, vdim: int = 1, ring: Ring = QQ, finite: bool = False,
          name: str | None = None) -> NFoldPresentation:
    """The full cubic n-fold groupoid G^N U in affine coordinates (U = V).

    With finite=True the singleton scales are constrained to units (the
    finite part); vdim=0 gives the scaleoid G^N 0.
    """
    N = cube_directions(N)
    verts = tuple(subsets(N))
    unit_labels = frozenset(tlab({j}) for j in N) if finite else frozenset()
    schemas = {}
    for a in verts:
        schemas[a] = CoordSchema(ring, _full_labels(N, a, vdim),
                                 unit_labels=unit_labels & set(_full_labels(N, a, vdim)))
    edges = {}
    for lo, hi in kcubes(verts, 1):
        (d,) = hi - lo
        edges[(lo, hi)] = additive_edge_cat(ring, d, lo, hi, schemas[hi],
                                            schemas[lo],
                                            _full_target(N, lo, hi, vdim, ring))
    label = name or (f"G^{{{subset_label(set(N))}}}" + ("fi" if finite else ""))
    return NFoldPresentation(label, ring, N, verts, schemas, edges,
                             subset_faces(verts))


def scaleoid(N, ring: Ring = QQ) -> NFoldPresentation:
    """G^N 0: the full cubic structure of the one-point space (no v-block)."""
    N = cube_directions(N)
    return gfull(N, vdim=0, ring=ring, name=f"G^{{{subset_label(set(N))}}}0")


# -- fiber-product form of the vertex sets (alpha-stair description) --------


@dataclass(frozen=True)
class SchemaAtom:
    """One factor of a vertex set: U^A (kind "U") or 0^A (kind "0")."""

    kind: str
    index: frozenset

    def coords(self, vdim: int = 1) -> tuple:
        out = []
        if self.kind == "U":
            out += [vlab(g, c) for g in subsets(self.index) for c in range(vdim)]
        out += [tlab(g) for g in subsets(self.index) if g]
        return _canon(out)

    def display(self) -> str:
        if self.kind == "U" and not self.index:
            return "U"
        core = "U" if self.kind == "U" else "0"
        return f"{core}^{{{subset_label(self.index)}}}"


@dataclass(frozen=True)
class FiberProductSchema:
    """Ordered atoms glued along shared scale sub-cubes; the flattened
    coordinate list is duplicate-free."""

    atoms: tuple
    gluings: tuple  # (left position, right position, shared index set)
    vdim: int = 1

    def flatten(self) -> tuple:
        seen = []
        for atom in self.atoms:
            for l in atom.coords(self.vdim):
                if l not in seen:
                    seen.append(l)
        return _canon(seen)

    def display(self) -> str:
        if not self.atoms:
            return "0"
        parts = [self.atoms[0].display()]
        for (_, ri, shared) in self.gluings:
            parts.append("x" if not shared else f"x_{{0^{{{subset_label(shared)}}}}}")
            parts.append(self.atoms[ri].display())
        return " ".join(parts)


def gfull_vertex_schema(N, alpha, vdim: int = 1) -> FiberProductSchema:
    """Vertex set of G^{alpha;N} U as a fiber product, from the alpha-stair:
    U^alpha glued with the non-redundant stair factors 0^{S_i}."""
    N = cube_directions(N)
    alpha = frozenset(alpha)
    if not alpha <= set(N):
        raise ConstructionError(f"alpha {set(alpha)} not inside N {set(N)}")
    atoms = [SchemaAtom("U" if vdim else "0", alpha)]
    gluings = []
    covered = set(atoms[0].coords(vdim))
    prev = alpha
    for S in alpha_stair(N, alpha):
        atom = SchemaAtom("0", S)
        if set(atom.coords(vdim)) <= covered:
            continue
        shared = prev & S
        gluings.append((len(atoms) - 1, len(atoms), frozenset(shared)))
        atoms.append(atom)
        covered |= set(atom.coords(vdim))
        prev = S
    return FiberProductSchema(tuple(atoms), tuple(gluings), vdim)


# ---------------------------------------------------------------------------
# imbedding of Gsy^n into G^n (restriction to t_gamma = 0 for |gamma| > 1)
# ---------------------------------------------------------------------------


def restrict_to_sym_locus(m: PolyMap, ring: Ring) -> PolyMap:
    """Substitute t_gamma = 0 for every |gamma| >= 2 (both tagged copies)."""

    def keeps(l):
        inner = l[1] if isinstance(l, tuple) else l
        return not (inner.kind == "t" and len(inner.index) >= 2)

    new_in = tuple(l for l in m.in_labels if keeps(l))
    x = Poly.coords(ring, new_in)
    out = m.subst({l: x(l) if keeps(l) else Poly.zero(ring, len(new_in))
                   for l in m.in_labels}, new_in)
    keep_out = tuple(l for l in out.out_labels if keeps(l))
    return out.restrict_outputs(keep_out)


def imbed_gsy_into_gfull(n: int, vdim: int = 1, ring: Ring = QQ) -> list:
    """Check symbolically that restricting every G^n structure map to the
    locus {t_gamma = 0, |gamma| > 1} reproduces the Gsy^n maps.

    Returns a list of (edge, map name, bool) triples.
    """
    full = gfull(n, vdim, ring)
    sym = gsy_symbolic(n, vdim, ring)
    results = []
    for key in sorted(full.edges, key=edge_order):
        ef, es = full.edges[key], sym.edges[key]
        for name in ("source", "target", "unit", "compose", "inverse"):
            mf, ms = getattr(ef, name), getattr(es, name)
            ok = restrict_to_sym_locus(mf, ring).equals(ms)
            results.append((key, name, ok))
    return results


# ---------------------------------------------------------------------------
# finite parts
# ---------------------------------------------------------------------------


def finite_part(n: int, which: str, t=None, vdim: int = 1, ring: Ring = QQ):
    """Finite-part structures: for "gsy", the groupoid at invertible scales
    together with its trivialization onto PG^n; for "gfull", the presentation
    whose singleton scales are sampled in the unit group."""
    if which == "gsy":
        if t is None:
            t = [ring.one()] * n
        pres = gsy(n, t, vdim, ring, name=f"Gsyfi^{n}")
        fwd, back = trivialization_maps(n, t, vdim, ring)
        return pres, pair_groupoid(n, vdim, ring), fwd, back
    if which == "gfull":
        return gfull(n, vdim, ring, finite=True)
    raise ConstructionError(f"unknown finite part {which!r}")


# ---------------------------------------------------------------------------
# iterated anchor morphism into the pair groupoid
# ---------------------------------------------------------------------------


def anchor_maps(p: NFoldPresentation, carrier_dim: int) -> dict:
    """The iterated anchor: x in C_alpha maps to (xi_gamma(x)) for gamma in
    P(alpha), landing in PG^{alpha}(C_bottom).  Components of the bottom
    schema are flattened into the PG carrier in canonical label order."""
    maps = {}
    bottom_labels = p.schemas[frozenset()].labels
    if len(bottom_labels) != carrier_dim:
        raise ConstructionError("carrier dimension must match the bottom vertex")
    for a in p.vertices:
        exprs = {}
        for g in subsets(a):
            down = p.top_down_projection(a, g)
            for c, l in enumerate(bottom_labels):
                exprs[vlab(g, c)] = down.component(l)
        maps[a] = PolyMap.from_label_exprs(p.ring, p.schemas[a].labels, exprs)
    return maps


# ---------------------------------------------------------------------------
# pullbacks in first order calculus (derive first, then take pullbacks)
# ---------------------------------------------------------------------------


@dataclass
class PullbackC1:
    """Q = G^1 A x_{G^1 C} G^1 B, the pullback of first-order groupoids.

    Elements are joint points ((a, u, t), (b, w, t)) subject to the derived
    conditions f^<1>(a,u,t) = g^<1>(b,w,t); they are produced by pushing a
    parameterization (h, k) with f.h = g.k through the derivation functor.
    """

    f: PolyMap  # A -> C
    g: PolyMap  # B -> C
    h: PolyMap  # D -> A
    k: PolyMap  # D -> B
    ring: Ring

    def __post_init__(self):
        from .slopes import derive_map

        c_labels = tuple(f"c{i}" for i in range(self.f.out_arity))
        self.f = PolyMap(self.ring, self.f.in_labels, self.f.comps, c_labels)
        self.g = PolyMap(self.ring, self.g.in_labels, self.g.comps, c_labels)
        self.h = PolyMap(self.ring, self.h.in_labels, self.h.comps, self.f.in_labels)
        self.k = PolyMap(self.ring, self.k.in_labels, self.k.comps, self.g.in_labels)
        if set(self.h.in_labels) != set(self.k.in_labels):
            raise ConstructionError("h and k must share one parameter space")
        if not self.f.compose(self.h).equals(self.g.compose(self.k)):
            raise ConstructionError("parameterization must satisfy f.h = g.k")
        self.fd = derive_map(self.f)
        self.gd = derive_map(self.g)
        self.hd = derive_map(self.h)
        self.kd = derive_map(self.k)

    def sample(self, rng, count: int = 1, span: int = 3) -> list[dict]:
        """Exact points of Q: push derived parameter points through (h, k).

        Keys: ("A", x)/("dA", x) for base/fiber coordinates of the A side,
        likewise for B, plus "t"."""
        labels = self.hd.in_labels
        return [self._push({l: self.ring.rand(rng, span) for l in labels})
                for _ in range(count)]

    def _pack(self, a_side: dict, b_side: dict) -> dict:
        pt = {}
        for l in self.h.out_labels:
            pt[("A", l)] = a_side[l]
            pt[("dA", l)] = a_side[f"{l}'"]
        for l in self.k.out_labels:
            pt[("B", l)] = b_side[l]
            pt[("dB", l)] = b_side[f"{l}'"]
        pt["t"] = a_side["t"]
        return pt

    def _sides(self, pt: dict):
        a = [pt[("A", l)] for l in self.f.in_labels]
        ua = [pt[("dA", l)] for l in self.f.in_labels]
        b = [pt[("B", l)] for l in self.g.in_labels]
        ub = [pt[("dB", l)] for l in self.g.in_labels]
        return a, ua, b, ub, pt["t"]

    def in_p1(self, pt: dict) -> bool:
        """Membership in P^<1>: f(a) = g(b) and f(a+tu) = g(b+tw)."""
        r = self.ring
        a, ua, b, ub, t = self._sides(pt)
        if self.f.eval(a) != self.g.eval(b):
            return False
        a_shift = [r.add(x, r.mul(t, u)) for x, u in zip(a, ua)]
        b_shift = [r.add(x, r.mul(t, u)) for x, u in zip(b, ub)]
        return self.f.eval(a_shift) == self.g.eval(b_shift)

    def in_q(self, pt: dict) -> bool:
        """The defining conditions of Q: f^<1> and g^<1> agree."""
        a, ua, b, ub, t = self._sides(pt)
        return (self.f.eval(a) == self.g.eval(b)
                and self.fd.eval(a + ua + [t])[:self.f.out_arity + self.f.out_arity]
                == self.gd.eval(b + ub + [t])[:self.g.out_arity + self.g.out_arity])

    def compose_points(self, left: dict, right: dict) -> dict:
        """The ambient G^1(A x B) composition: add the fiber blocks."""
        r = self.ring
        if left["t"] != right["t"]:
            raise ConstructionError("composition needs equal scales")
        out = dict(right)
        for l in self.h.out_labels:
            out[("dA", l)] = r.add(left[("dA", l)], right[("dA", l)])
        for l in self.k.out_labels:
            out[("dB", l)] = r.add(left[("dB", l)], right[("dB", l)])
        return out

    def sample_composable_pair(self, rng, span: int = 3):
        """(left, right) with source(left) = target(right), both inside Q."""
        r = self.ring
        vals = {l: r.rand(rng, span) for l in self.hd.in_labels}
        right = self._push(vals)
        # the left factor starts at the target of the right one
        shifted = {}
        for l in self.h.in_labels:
            shifted[l] = r.add(vals[l], r.mul(vals["t"], vals[f"{l}'"]))
            shifted[f"{l}'"] = r.rand(rng, span)
        shifted["t"] = vals["t"]
        left = self._push(shifted)
        return left, right

    def _push(self, vals: dict) -> dict:
        """Pack the images under hd and kd of one derived parameter point."""
        return self._pack(*(dict(zip(m.out_labels,
                                     m.eval([vals[l] for l in m.in_labels])))
                            for m in (self.hd, self.kd)))

    def equality_with_p1(self) -> bool:
        """Over the terminal object C = 0 the inclusion Q within P^<1> is an
        equality: both membership conditions are vacuous."""
        return self.f.out_arity == 0
