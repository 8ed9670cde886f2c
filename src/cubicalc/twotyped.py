"""The two-typed 2n-fold category over P(n-bar), for n <= 2.

Built by iterating the elementary double-cat step: at stage k a vertex picks
one of four extensions according to its selector {k, k'}-part: nothing (plain
product with the scale line t_k), the one-step derivation (partners + t_k),
the scale-action plane (s_k, t_k), or the two-typed derivation (partners +
s_k + t_k).  Fresh-direction edges are the four elementary categories:

  E1  first kind, (w, w+{k}), k' absent: the groupoid X^<k>;
  E2  first kind, k' present: the groupoid X^<<k>> (shift scale s_k t_k);
  E3  second kind, (w, w+{k'}), k absent: the scale action on t_k;
  E4  second kind, k present: s_k acts on the partner block.

Older edges are images of lower ones under the later stage functors
(`derive._staged`).  Composable pairs, triples and interchange quadruples are
polynomial parameterizations assembled at the base and pushed through the
same functors, so samplers never solve equations.  A vertex is the frozenset
of its signed directions, k for the plain direction k and -k for the primed
k' (see `hypercube`); the stages 1..m of a vertex read only its directions
of absolute value at most m.
"""
from __future__ import annotations

from functools import lru_cache

from .constructions import action_edge, additive_edge_cat
from .derive import (_canon, _shift_target, _staged, _staged_labels,
                     derive_labels, derive_polymap, extend_labels, partner,
                     slab, tlab)
from .hypercube import direction_key, tt_edges, tt_faces, tt_vertices
from .polymap import Poly, PolyMap
from .presentation import (CoordSchema, EdgeCat, NFoldPresentation,
                           attach_generic_params)
from .rings import QQ, Ring


class TwoTypedError(ValueError):
    pass


def _direction(lo: frozenset, hi: frozenset) -> int:
    return next(iter(hi - lo))


def _upto(v: frozenset, k: int) -> frozenset:
    """The directions of v of absolute value at most k."""
    return frozenset(d for d in v if abs(d) <= k)


@lru_cache(maxsize=None)
def tt_schema_labels(v: frozenset, n: int, vdim: int) -> tuple:
    """Coordinate labels of vertex v of P(n-bar)."""
    return _staged_labels(vdim, range(1, n + 1), v)


# ---------------------------------------------------------------------------
# the four elementary edge categories over a coordinate space X
# ---------------------------------------------------------------------------

_EDGE_MAPS = ("source", "target", "unit", "compose", "inverse", "pair_param",
              "triple_param")


def _elementary_edge(ring: Ring, base: tuple, k: int, lo: frozenset,
                     hi: frozenset) -> EdgeCat:
    """The fresh-direction edge (lo, hi) of stage k over the coordinates
    `base`: E1 / E2 are groupoids with target shift by t_k (resp. s_k t_k),
    E3 / E4 the action of s_k (on the partner block when k is in hi)."""
    plain, primed = k in hi, -k in hi
    if _direction(lo, hi) > 0:
        dom_l = _canon(derive_labels(base, k, primed))
        dom = CoordSchema(ring, dom_l)
        cod = CoordSchema(ring, _canon(extend_labels(base, k, primed)))
        return attach_generic_params(additive_edge_cat(
            ring, k, lo, hi, dom, cod, _shift_target(ring, base, k, primed, dom_l)))
    part = tuple(partner(l, k) for l in base) if plain else ()
    dom = CoordSchema(ring, _canon(base + part + (slab({k}), tlab({k}))))
    cod = CoordSchema(ring, _canon(base + part + (tlab({k}),)))
    return action_edge(ring, k, lo, hi, dom, cod, part)


# ---------------------------------------------------------------------------
# edge maps and interchange quadruples: a base built at one stage, pushed
# through the later stages
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tt_edge_maps(lo: frozenset, hi: frozenset, n: int, vdim: int,
                  ring: Ring) -> dict:
    """The structure maps of the edge (lo, hi) of stages 1..n: the
    elementary edge of the edge's stage k over the coordinates of stages
    1..k-1, pushed through stages k+1..n."""
    k = abs(_direction(lo, hi))
    if n > k:
        # stages 1..k read only the directions of absolute value <= k
        maps = _tt_edge_maps(_upto(lo, k), _upto(hi, k), k, vdim, ring)
        return {name: mp if mp is None else _staged(
            mp, range(k + 1, n + 1), [hi], copies=name == "compose")[hi]
            for name, mp in maps.items()}
    e = _elementary_edge(ring, _staged_labels(vdim, range(1, k), hi), k,
                         lo, hi)
    return {name: getattr(e, name) for name in _EDGE_MAPS}


@lru_cache(maxsize=None)
def _tt_quad(gamma: frozenset, alpha: frozenset, n: int, vdim: int,
             ring: Ring) -> PolyMap:
    """The interchange quadruples of the face (gamma, alpha): the base quad
    at the last stage m that the face touches, pushed through stages
    m+1..n."""
    old_d, new_d = sorted(alpha - gamma, key=direction_key)
    m = abs(new_d)
    if abs(old_d) == m:
        quad = _elementary_square_quad(
            ring, _staged_labels(vdim, range(1, m), alpha), m)
    else:
        # the i-edge of the face over stages 1..m-1
        lo = _upto(gamma, m - 1)
        phi = _tt_edge_maps(lo, lo | {old_d}, m - 1, vdim, ring)["pair_param"]
        if new_d > 0:
            quad = _mixed_quad_first_kind(ring, phi, m, with_s=-m in gamma)
        elif m in gamma:
            quad = _mixed_quad_e4(ring, phi, m)
        else:
            quad = _mixed_quad_e3(ring, phi, m)
    return _staged(quad, range(m + 1, n + 1), [alpha])[alpha]


def _elementary_square_quad(ring: Ring, base: tuple, k: int) -> PolyMap:
    """Quadruples of the elementary mixed face (directions k and k') over X:
    i-composition adds partner blocks (on X^<<k>>), j-composition is the
    action; t_CD = s_AB t_AB closes all four composabilities."""
    sk, tk = slab({k}), tlab({k})
    part = [partner(l, k) for l in base]
    params = tuple(("d", l) for l in base) + tuple(("d", l) for l in part) \
        + tuple(("c", l) for l in part) + (("c", sk), ("a", sk), ("a", tk))
    v = Poly.coords(ring, params)
    s_cd, s_ab, t_ab = v(("c", sk)), v(("a", sk)), v(("a", tk))
    t_cd = s_ab * t_ab

    d_pt = {l: v(("d", l)) for l in list(base) + part}
    d_pt[sk], d_pt[tk] = s_cd, t_cd
    c_pt = {l: d_pt[l] + s_cd * t_cd * d_pt[partner(l, k)] for l in base}
    for l in base:
        c_pt[partner(l, k)] = v(("c", partner(l, k)))
    c_pt[sk], c_pt[tk] = s_cd, t_cd
    a_pt = {l: c_pt[l] for l in base}
    for l in base:
        a_pt[partner(l, k)] = s_cd * c_pt[partner(l, k)]
    a_pt[sk], a_pt[tk] = s_ab, t_ab
    b_pt = {l: d_pt[l] for l in base}
    for l in base:
        b_pt[partner(l, k)] = s_cd * d_pt[partner(l, k)]
    b_pt[sk], b_pt[tk] = s_ab, t_ab

    exprs = {}
    for tag, pt in (("a", a_pt), ("b", b_pt), ("c", c_pt), ("d", d_pt)):
        for l in list(base) + part + [sk, tk]:
            exprs[(tag, l)] = pt[l]
    return PolyMap.from_label_exprs(ring, params, exprs)


def _mixed_quad_first_kind(ring: Ring, phi: PolyMap, m: int,
                           with_s: bool) -> PolyMap:
    """New first-kind direction over an old edge: (C,D) is a free derived
    pair; the value pair of (A,B) is pinned to tgt_j x tgt_j of (C,D)."""
    phi_d = derive_polymap(phi, m, with_s=with_s, copies=False)
    fresh = (slab({m}), tlab({m})) if with_s else (tlab({m}),)
    params = tuple(("cd", l) for l in phi_d.in_labels) \
        + tuple(("ab", partner(l, m)) for l in phi.in_labels)
    v = Poly.coords(ring, params)

    cd = phi_d.rename(lambda l: ("cd", l)).extend_inputs(params)
    tau = v(("cd", tlab({m})))
    if with_s:
        tau = v(("cd", slab({m}))) * tau

    y = {}
    for (tg, lbl) in phi.out_labels:
        y[(tg, lbl)] = cd.component((tg, lbl)) + tau * cd.component((tg, partner(lbl, m)))

    # phi is an unstaged stage-1 edge (n <= 2): its parameters are
    # coordinates of the pair, so they are read off y
    ab_assign = {}
    for l in phi_d.in_labels:
        if l in set(phi.in_labels):
            ab_assign[l] = y[l]
        elif l in fresh:
            ab_assign[l] = v(("cd", l))
        else:
            ab_assign[l] = v(("ab", l))
    ab = phi_d.subst(ab_assign, params)

    exprs = {}
    for out in ab.out_labels:
        exprs[out] = ab.component(out)
    rename = {"a": "c", "b": "d"}
    for out in cd.out_labels:
        exprs[(rename[out[0]], out[1])] = cd.component(out)
    return PolyMap.from_label_exprs(ring, params, exprs)


def _mixed_quad_e3(ring: Ring, phi: PolyMap, m: int) -> PolyMap:
    """New action direction over an untouched edge: both pairs share the
    lower block; scales satisfy t_C = t_D = s_A t_A."""
    sk, tk = slab({m}), tlab({m})
    params = tuple(("q", l) for l in phi.in_labels) + (("a", sk), ("a", tk), ("c", sk))
    v = Poly.coords(ring, params)
    base_pair = phi.rename(lambda l: ("q", l)).extend_inputs(params)
    s_ab, t_ab, s_cd = v(("a", sk)), v(("a", tk)), v(("c", sk))
    roles = {"a": ("a", "c"), "b": ("b", "d")}
    exprs = {}
    for (tg, lbl) in base_pair.out_labels:
        comp = base_pair.component((tg, lbl))
        up, down = roles[tg]
        exprs[(up, lbl)] = comp
        exprs[(down, lbl)] = comp
    for tg, s_val, t_val in (("a", s_ab, t_ab), ("b", s_ab, t_ab),
                             ("c", s_cd, s_ab * t_ab), ("d", s_cd, s_ab * t_ab)):
        exprs[(tg, sk)] = s_val
        exprs[(tg, tk)] = t_val
    return PolyMap.from_label_exprs(ring, params, exprs)


def _mixed_quad_e4(ring: Ring, phi: PolyMap, m: int) -> PolyMap:
    """New action direction over a derived edge: (C,D) a free two-typed
    derived pair at scales (s_CD, s_AB t_AB); the partner block of (A,B) is
    s_CD times that of (C,D)."""
    sk, tk = slab({m}), tlab({m})
    phi_d = derive_polymap(phi, m, with_s=True, copies=False)
    params = tuple(("cd", l) for l in phi_d.in_labels if l != tk) \
        + (("ab", sk), ("ab", tk))
    v = Poly.coords(ring, params)
    s_ab, t_ab = v(("ab", sk)), v(("ab", tk))
    s_cd = v(("cd", sk))
    t_cd = s_ab * t_ab

    cd = phi_d.subst({l: t_cd if l == tk else v(("cd", l))
                      for l in phi_d.in_labels}, params)

    exprs = {}
    rename = {"a": "c", "b": "d"}
    for out in cd.out_labels:
        exprs[(rename[out[0]], out[1])] = cd.component(out)
    for tg in ("a", "b"):
        for lbl in phi.out_labels:
            if lbl[0] != tg:
                continue
            inner = lbl[1]
            exprs[(tg, inner)] = cd.component((tg, inner))
            exprs[(tg, partner(inner, m))] = s_cd * cd.component((tg, partner(inner, m)))
        exprs[(tg, sk)] = s_ab
        exprs[(tg, tk)] = t_ab
    return PolyMap.from_label_exprs(ring, params, exprs)


# ---------------------------------------------------------------------------
# the presentation
# ---------------------------------------------------------------------------


def g_overline(n: int, vdim: int = 1, ring: Ring = QQ) -> NFoldPresentation:
    """The 2n-fold category G^{n-bar} U over P(n-bar); supported for n <= 2."""
    if n > 2:
        raise TwoTypedError("g_overline is only supported for n <= 2")
    verts = tuple(sorted(tt_vertices(n), key=_vertex_order))
    schemas = {v: CoordSchema(ring, tt_schema_labels(v, n, vdim)) for v in verts}
    edges = {}
    for lo, hi in tt_edges(n):
        maps = _tt_edge_maps(lo, hi, n, vdim, ring)
        dom, cod = schemas[hi], schemas[lo]
        e = EdgeCat(_direction(lo, hi), lo, hi, dom, cod,
                    maps["source"].extend_inputs(dom.labels),
                    maps["target"].extend_inputs(dom.labels),
                    maps["unit"].extend_inputs(cod.labels),
                    maps["compose"],
                    None if maps["inverse"] is None
                    else maps["inverse"].extend_inputs(dom.labels),
                    pair_param=maps["pair_param"],
                    triple_param=maps["triple_param"])
        edges[(lo, hi)] = e
    faces = tuple(tt_faces(n))
    pres = NFoldPresentation(f"G^{{{n}bar}}", ring, _tt_directions(n), verts,
                             schemas, edges, faces)
    for face in faces:
        pres.quad_params[face] = _tt_quad(face[0], face[1], n, vdim, ring)
    return pres


def _vertex_order(v: frozenset) -> tuple:
    """By size, then by the binary codes of the plain part and of the
    primed part."""
    return (len(v), sum(1 << d for d in v if d > 0),
            sum(1 << -d for d in v if d < 0))


def _tt_directions(n: int) -> tuple:
    out = []
    for k in range(1, n + 1):
        out += [k, -k]
    return tuple(out)
