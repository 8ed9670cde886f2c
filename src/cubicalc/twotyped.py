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

Older edges are images of lower ones under the stage functor.  Composable
pairs, triples and interchange quadruples are polynomial parameterizations
assembled at the base and pushed through the same functors, so samplers never
solve equations.  A vertex is the frozenset of its signed directions, k for
the plain direction k and -k for the primed k' (see `hypercube`).  The
recursion strips the top stage: removing m and -m from a vertex of stage
count m gives the vertex, at stage count m-1, of the structure built from
stages 1..m-1.
"""
from __future__ import annotations

from functools import lru_cache

from .derive import (_canon, _shift_target, derive_labels, derive_polymap,
                     extend_labels, extend_polymap, partner, slab, tlab, vlab,
                     with_tag)
from .hypercube import direction_key, tt_edges, tt_faces, tt_vertices
from .polymap import Poly, PolyMap
from .presentation import (CoordSchema, EdgeCat, NFoldPresentation,
                           generic_pair_param, generic_triple_param, tagged)
from .rings import QQ, Ring


class TwoTypedError(ValueError):
    pass


def _sel(v: frozenset, k: int) -> tuple[bool, bool]:
    return (k in v, -k in v)


def _strip(v: frozenset, m: int) -> frozenset:
    """Remove the top stage m."""
    return v - {m, -m}


def _direction(lo: frozenset, hi: frozenset) -> int:
    return next(iter(hi - lo))


@lru_cache(maxsize=None)
def tt_schema_labels(v: frozenset, n: int, vdim: int) -> tuple:
    """Coordinate labels of vertex v of P(n-bar)."""
    labels: tuple = tuple(vlab((), c) for c in range(vdim))
    for k in range(1, n + 1):
        plain, primed = _sel(v, k)
        if plain:
            labels = derive_labels(labels, k, with_s=primed)
        else:
            labels = extend_labels(labels, k, with_s=primed)
    return _canon(labels)


def _apply_stage(m: PolyMap | None, k: int, plain: bool, primed: bool,
                 copies: bool = False):
    if m is None:
        return None
    if plain:
        return derive_polymap(m, k, with_s=primed, copies=copies)
    return extend_polymap(m, k, with_s=primed, copies=copies)


# ---------------------------------------------------------------------------
# the four elementary edge categories over a coordinate space X
# ---------------------------------------------------------------------------


def _elem_first_kind(ring: Ring, base: tuple, k: int, with_s: bool) -> dict:
    """E1 / E2: groupoid with target shift by t_k (resp. s_k t_k)."""
    dom_l = _canon(derive_labels(base, k, with_s))
    cod_l = _canon(extend_labels(base, k, with_s))
    target = _shift_target(ring, base, k, with_s, dom_l)

    source = PolyMap.projection(ring, dom_l, cod_l)
    nc = len(cod_l)
    unit = PolyMap.from_label_exprs(ring, cod_l, {
        **{l: Poly.var(ring, nc, cod_l.index(l)) for l in cod_l},
        **{partner(l, k): Poly.zero(ring, nc) for l in base}})
    pair_labels = tagged("a", dom_l) + tagged("b", dom_l)
    n2 = len(pair_labels)
    pos2 = {l: i for i, l in enumerate(pair_labels)}
    compose = PolyMap.from_label_exprs(ring, pair_labels, {
        **{l: Poly.var(ring, n2, pos2[("b", l)]) for l in cod_l},
        **{partner(l, k): Poly.var(ring, n2, pos2[("a", partner(l, k))])
           + Poly.var(ring, n2, pos2[("b", partner(l, k))]) for l in base}})
    inverse = PolyMap.from_label_exprs(ring, dom_l, {
        **{l: target.component(l) for l in cod_l},
        **{partner(l, k): -Poly.var(ring, len(dom_l), dom_l.index(partner(l, k)))
           for l in base}})
    pair_param, pair_section = generic_pair_param(ring, dom_l, cod_l, target)
    triple_param = generic_triple_param(ring, dom_l, cod_l, target)
    return {"source": source, "target": target, "unit": unit,
            "compose": compose, "inverse": inverse, "pair_param": pair_param,
            "pair_section": pair_section, "triple_param": triple_param}


def _elem_second_kind(ring: Ring, base: tuple, k: int, derived: bool) -> dict:
    """E3 / E4: the action edge; `derived` means the carrier is X^<k> and s_k
    scales the partner block."""
    x_block = tuple(base)
    part = tuple(partner(l, k) for l in base) if derived else ()
    dom_l = _canon(x_block + part + (slab({k}), tlab({k})))
    cod_l = _canon(x_block + part + (tlab({k}),))
    nd = len(dom_l)
    pos = {l: i for i, l in enumerate(dom_l)}
    v = lambda l: Poly.var(ring, nd, pos[l])

    src = {l: v(l) for l in x_block + part}
    src[tlab({k})] = v(slab({k})) * v(tlab({k}))
    source = PolyMap.from_label_exprs(ring, dom_l, src)

    tgt = {l: v(l) for l in x_block}
    for l in part:
        tgt[l] = v(slab({k})) * v(l)
    tgt[tlab({k})] = v(tlab({k}))
    target = PolyMap.from_label_exprs(ring, dom_l, tgt)

    nc = len(cod_l)
    unit = PolyMap.from_label_exprs(ring, cod_l, {
        **{l: Poly.var(ring, nc, cod_l.index(l)) for l in cod_l},
        slab({k}): Poly.const(ring, nc, ring.one())})

    pair_labels = tagged("a", dom_l) + tagged("b", dom_l)
    n2 = len(pair_labels)
    pos2 = {l: i for i, l in enumerate(pair_labels)}
    compose = PolyMap.from_label_exprs(ring, pair_labels, {
        **{l: Poly.var(ring, n2, pos2[("b", l)]) for l in x_block + part},
        slab({k}): Poly.var(ring, n2, pos2[("a", slab({k}))])
        * Poly.var(ring, n2, pos2[("b", slab({k}))]),
        tlab({k}): Poly.var(ring, n2, pos2[("a", tlab({k}))])})

    pair_param, pair_section, triple_param = _action_chain_params(
        ring, dom_l, x_block, part, k)
    return {"source": source, "target": target, "unit": unit,
            "compose": compose, "inverse": None, "pair_param": pair_param,
            "pair_section": pair_section, "triple_param": triple_param}


def _action_chain_params(ring: Ring, dom_l: tuple, x_block: tuple,
                         part: tuple, k: int):
    """Composable chains for an action edge.  Scales chain leftwards
    (t_right = s_left t_left) and the partner block of an element is the
    rightmost block scaled by the s of everything to its right."""
    sk, tk = slab({k}), tlab({k})

    def chain(tags: tuple) -> PolyMap:
        last = tags[-1]
        params = [with_tag(last, l) for l in x_block + part]
        params += [(tg, sk) for tg in tags]
        params += [(tags[0], tk)]
        params = tuple(params)
        n = len(params)
        pos = {l: i for i, l in enumerate(params)}
        v = lambda l: Poly.var(ring, n, pos[l])
        t_of = {tags[0]: v((tags[0], tk))}
        for idx in range(1, len(tags)):
            t_of[tags[idx]] = v((tags[idx - 1], sk)) * t_of[tags[idx - 1]]
        exprs = {}
        for idx, tg in enumerate(tags):
            for l in x_block:
                exprs[(tg, l)] = v((last, l))
            for l in part:
                acc = v((last, l))
                for r in range(idx + 1, len(tags)):
                    acc = v((tags[r], sk)) * acc
                exprs[(tg, l)] = acc
            exprs[(tg, sk)] = v((tg, sk))
            exprs[(tg, tk)] = t_of[tg]
        return PolyMap.from_label_exprs(ring, params, exprs)

    pair = chain(("a", "b"))
    section = PolyMap.projection(ring, tagged("a", dom_l) + tagged("b", dom_l),
                                 pair.in_labels)
    triple = chain(("a", "b", "c"))
    return pair, section, triple


# ---------------------------------------------------------------------------
# edge maps by recursion on the top stage
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tt_edge_maps(lo: frozenset, hi: frozenset, m: int, vdim: int,
                  ring: Ring) -> dict:
    d = _direction(lo, hi)
    plain_hi, primed_hi = _sel(hi, m)
    if abs(d) == m:
        base = tt_schema_labels(_strip(hi, m), m - 1, vdim)
        if d > 0:
            return _elem_first_kind(ring, base, m, with_s=primed_hi)
        return _elem_second_kind(ring, base, m, derived=plain_hi)
    lower = _tt_edge_maps(_strip(lo, m), _strip(hi, m), m - 1, vdim, ring)
    return {name: _apply_stage(mp, m, plain_hi, primed_hi,
                               copies=name in ("compose", "pair_section"))
            for name, mp in lower.items()}


# ---------------------------------------------------------------------------
# interchange quadruples by recursion on the top stage
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tt_quad(gamma: frozenset, alpha: frozenset, m: int, vdim: int,
             ring: Ring) -> PolyMap:
    dirs = sorted(alpha - gamma, key=direction_key)
    touches = [d for d in dirs if abs(d) == m]
    if not touches:
        lower = _tt_quad(_strip(gamma, m), _strip(alpha, m), m - 1, vdim, ring)
        plain_hi, primed_hi = _sel(alpha, m)
        return _apply_stage(lower, m, plain_hi, primed_hi)
    if len(touches) == 2:
        base = tt_schema_labels(_strip(alpha, m), m - 1, vdim)
        return _elementary_square_quad(ring, base, m)
    new_d = touches[0]
    old_d = next(d for d in dirs if d != new_d)
    # lower i-edge: the face's stage-m part stripped from both endpoints
    lower = _tt_edge_maps(_strip(gamma, m), _strip(gamma | {old_d}, m), m - 1,
                          vdim, ring)
    phi, rho = lower["pair_param"], lower["pair_section"]
    plain_g, primed_g = _sel(gamma, m)
    if new_d > 0:
        return _mixed_quad_first_kind(ring, phi, rho, m, with_s=primed_g)
    if plain_g:
        return _mixed_quad_e4(ring, phi, m)
    return _mixed_quad_e3(ring, phi, m)


def _elementary_square_quad(ring: Ring, base: tuple, k: int) -> PolyMap:
    """Quadruples of the elementary mixed face (directions k and k') over X:
    i-composition adds partner blocks (on X^<<k>>), j-composition is the
    action; t_CD = s_AB t_AB closes all four composabilities."""
    sk, tk = slab({k}), tlab({k})
    part = [partner(l, k) for l in base]
    params = tuple(("d", l) for l in base) + tuple(("d", l) for l in part) \
        + tuple(("c", l) for l in part) + (("c", sk), ("a", sk), ("a", tk))
    n = len(params)
    pos = {l: i for i, l in enumerate(params)}
    v = lambda l: Poly.var(ring, n, pos[l])
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


def _mixed_quad_first_kind(ring: Ring, phi: PolyMap, rho: PolyMap, m: int,
                           with_s: bool) -> PolyMap:
    """New first-kind direction over an old edge: (C,D) is a free derived
    pair; the value pair of (A,B) is pinned to tgt_j x tgt_j of (C,D)."""
    phi_d = derive_polymap(phi, m, with_s=with_s, copies=False)
    fresh = (slab({m}), tlab({m})) if with_s else (tlab({m}),)
    params = tuple(("cd", l) for l in phi_d.in_labels) \
        + tuple(("ab", partner(l, m)) for l in phi.in_labels)
    n = len(params)
    pos = {l: i for i, l in enumerate(params)}
    v = lambda l: Poly.var(ring, n, pos[l])

    cd = phi_d.subst({l: v(("cd", l)) for l in phi_d.in_labels}, params)
    tau = v(("cd", tlab({m})))
    if with_s:
        tau = v(("cd", slab({m}))) * tau

    y = {}
    for (tg, lbl) in phi.out_labels:
        y[(tg, lbl)] = cd.component((tg, lbl)) + tau * cd.component((tg, partner(lbl, m)))
    rho_sub = rho.subst(y, params)

    ab_assign = {}
    for l in phi_d.in_labels:
        if l in set(phi.in_labels):
            ab_assign[l] = rho_sub.component(l)
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
    n = len(params)
    pos = {l: i for i, l in enumerate(params)}
    v = lambda l: Poly.var(ring, n, pos[l])
    base_pair = phi.subst({l: v(("q", l)) for l in phi.in_labels}, params)
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
    n = len(params)
    pos = {l: i for i, l in enumerate(params)}
    v = lambda l: Poly.var(ring, n, pos[l])
    s_ab, t_ab = v(("ab", sk)), v(("ab", tk))
    s_cd = v(("cd", sk))
    t_cd = s_ab * t_ab

    cd_assign = {}
    for l in phi_d.in_labels:
        cd_assign[l] = t_cd if l == tk else v(("cd", l))
    cd = phi_d.subst(cd_assign, params)

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
                    pair_section=maps["pair_section"],
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
