"""Laws: compatible families of n-fold groupoid morphisms over a base map.

full_vertex_map builds the vertex map at one vertex of the full cubic law
of a polynomial map by the stage iteration that builds the vertex sets
(`derive._staged`), and derive_law_full collects it over every vertex;
derive_law_sym builds the symmetric law at fixed scales from the higher order
difference factorizers.  The morphism laws are the one morphism table of
`checks`: check_law_compatibility runs it through the symbolic back-end, a
proof, and check_finite_law through the sampled back-end, for the finite
part that finite_law_from_map builds from an arbitrary (black-box) base
map.  Homogeneity and symmetry are checked as identities of vertex maps.
"""
from __future__ import annotations

from dataclasses import dataclass

from .checks import (CheckReport, _morphism_laws, _require_samples, _run,
                     _Sampled, _Symbolic, check_morphism)
from .constructions import (gfull, gsy, _full_labels, _generic_point,
                            _scalar_action_maps)
# derive_polymap stays bound here: perfbench/tests checks that the tracer
# wraps and restores it at every binding, this one included
from .derive import (_staged, _v_labels, CoordLabel, derive_polymap,  # noqa: F401
                     vlab)
from .extension import eval_over_extension, ext_mul
from .hypercube import cube_directions, subsets
from .polymap import Poly, PolyMap
from .presentation import (NFoldPresentation, edge_order,
                           subsets_presentation_vertices)
from .rings import QQ, Ring, RingError
from .slopes import _closed_formula, _cubic_base, _sym_slopes


class LawError(ValueError):
    pass


@dataclass
class Law:
    """A family of vertex maps between two presentations over one hypercube.

    The derived laws share one presentation, `dst is src`, when the base map
    has as many outputs as inputs.  A symmetric law carries the slope
    iteration f^[0..n] it was built from in `slopes`; a law made without it
    has it made from `base` when a check asks (`sym_slopes`)."""

    kind: str  # "full" | "sym"
    base: PolyMap
    src: NFoldPresentation
    dst: NFoldPresentation
    vertex_maps: dict
    t: tuple | None = None
    slopes: list | None = None

    def vertex_map(self, alpha) -> PolyMap:
        return self.vertex_maps[frozenset(alpha)]

    def sym_slopes(self) -> list:
        """f^[0..n] of a symmetric law over its n scales."""
        if self.slopes is not None:
            return self.slopes
        return _sym_slopes(self.base, len(self.t))


def _src_dst(in_dim: int, out_dim: int, build) -> tuple:
    """The objects `build(in_dim)` and `build(out_dim)`, of a map's inputs
    and of its outputs: one object, twice, when the two dimensions agree."""
    src = build(in_dim)
    return src, src if out_dim == in_dim else build(out_dim)


def full_vertex_map(f: PolyMap, N, alpha) -> PolyMap:
    """The vertex map of G^N f at alpha, over the vertex set at alpha: f
    derived at the directions inside alpha and extended by the identity
    elsewhere; at the bottom vertex it is f x id."""
    N, alpha = cube_directions(N), frozenset(alpha)
    if not alpha <= set(N):
        raise LawError(f"alpha {sorted(alpha)} is not inside N {list(N)}")
    return _staged(_cubic_base(f), N, [alpha])[alpha].extend_inputs(
        _full_labels(N, alpha, f.in_arity))


def derive_law_full(f: PolyMap, N) -> Law:
    """G^N f: the vertex map of every vertex, between G^N U and G^N V.  The
    vertices are staged together (`_staged`), so each prefix of stage
    choices is taken once."""
    N = cube_directions(N)
    src, dst = _src_dst(f.in_arity, f.out_arity,
                        lambda vdim: gfull(N, vdim=vdim, ring=f.ring))
    maps = {alpha: m.extend_inputs(_full_labels(N, alpha, f.in_arity))
            for alpha, m in _staged(_cubic_base(f), N, src.vertices).items()}
    return Law("full", f, src, dst, maps)


def _relabeled_factorizer(m: PolyMap, beta: tuple, t: dict,
                          ring: Ring) -> PolyMap:
    """The factorizer m = f^[|beta|] with directions 1..k relabeled onto beta
    and the scales fixed at t."""
    m = m.rename(_moved(dict(enumerate(beta, 1))), None)
    new_in = tuple(l for l in m.in_labels if l.kind == "v")
    x = Poly.coords(ring, new_in)
    return m.subst({l: Poly.const(ring, len(new_in), t[next(iter(l.index))])
                    if l.kind == "t" else x(l) for l in m.in_labels}, new_in)


def _moved(perm: dict):
    """The relabelling that moves a coordinate at gamma to perm(gamma)."""
    return lambda l: CoordLabel(l.kind, frozenset(perm[e] for e in l.index),
                                l.comp)


def derive_law_sym(f: PolyMap, n: int, t, ring: Ring | None = None) -> Law:
    """Gsy^n_t f: the vertex map at alpha collects the higher order
    difference factorizers f^[|beta|]_{t_beta} over all beta within alpha."""
    ring = ring or f.ring
    t = tuple(t)
    if len(t) != n:
        raise LawError(f"need {n} scales, got {len(t)}")
    src, dst = _src_dst(f.in_arity, f.out_arity,
                        lambda vdim: gsy(n, t, vdim=vdim, ring=ring))
    slopes = _sym_slopes(f, n)
    return Law("sym", f, src, dst, _sym_vertex_maps(slopes, t, ring), t=t,
               slopes=slopes)


def _sym_vertex_maps(slopes: list, t, ring: Ring) -> dict:
    """The vertex maps of Gsy^n_t f, by vertex, from the slope iteration
    f^[0..n] (`_sym_slopes`): each factorizer is relabeled onto its beta
    once and re-indexed onto the inputs of every vertex above beta.
    """
    t = {k + 1: tv for k, tv in enumerate(t)}
    p, q = slopes[0].in_arity, slopes[0].out_arity
    factorizers = {}
    maps = {}
    for alpha in subsets_presentation_vertices(len(t)):
        in_labels = _v_labels(alpha, p)
        exprs = {}
        for beta in subsets(alpha):
            fac = factorizers.get(beta)
            if fac is None:
                fac = factorizers[beta] = _relabeled_factorizer(
                    slopes[len(beta)], tuple(sorted(beta)), t, ring)
            comps = fac.extend_inputs(in_labels).comps
            for c in range(q):
                exprs[vlab(beta, c)] = comps[c]
        maps[alpha] = PolyMap.from_label_exprs(ring, in_labels, exprs)
    return maps


# ---------------------------------------------------------------------------
# symbolic law checks
# ---------------------------------------------------------------------------


def _symbolic_morphism_reports(src: NFoldPresentation, dst: NFoldPresentation,
                               maps: dict) -> list:
    """The morphism table run symbolically on every edge: source, target,
    unit and composition along the composable-pair parameterization."""
    B = _Symbolic(src.ring)

    def lift(vertex, frm, to):
        return B.map(maps[vertex], frm, to)
    return [r for key in sorted(src.edges, key=edge_order)
            for r in _run(B, _edge_location(key),
                          _morphism_laws(B, src, dst, key, lift, "law-"))]


def _edge_location(key) -> str:
    lo, hi = key
    return f"edge {sorted(lo)}>{sorted(hi)}"


def check_law_compatibility(law: Law) -> list:
    """The compatibility diagram: every edge projection, unit and composition
    commutes with the vertex maps, and the bottom map is base x id."""
    reports = _symbolic_morphism_reports(law.src, law.dst, law.vertex_maps)
    bottom = law.vertex_maps[frozenset()]
    base = _cubic_base(law.base)
    ok = all(bottom.component(vlab((), c)) ==
             base.extend_inputs(bottom.in_labels).comps[c]
             for c in range(law.base.out_arity))
    if law.kind == "full":
        x = Poly.coords(law.base.ring, bottom.in_labels)
        for l in bottom.in_labels:
            if isinstance(l, CoordLabel) and l.kind == "t":
                ok = ok and bottom.component(l) == x(l)
    reports.append(CheckReport("law-bottom-is-base", "vertex 0",
                               "pass" if ok else "fail", 0))
    return reports


def check_homogeneity(law: Law, s) -> list:
    """Phi_s-equivariance of a symmetric law: F_t . Phi_s = Phi_s . F_{s t}."""
    if law.kind != "sym":
        raise LawError("homogeneity is a property of symmetric laws")
    ring = law.base.ring
    n = len(law.t)
    if len(s) != n:
        raise LawError(f"need {n} scalars, got {len(s)}")
    phi_p, phi_q = _src_dst(
        law.base.in_arity, law.base.out_arity,
        lambda vdim: _scalar_action_maps(n, s, vdim, ring))
    st = [ring.mul(sv, tv) for sv, tv in zip(s, law.t)]
    maps_st = _sym_vertex_maps(law.sym_slopes(), st, ring)
    out = []
    for alpha in law.src.vertices:
        lhs = law.vertex_maps[alpha].compose(phi_p[alpha])
        rhs = phi_q[alpha].compose(maps_st[alpha])
        out.append(CheckReport("law-homogeneity", f"vertex {sorted(alpha)}",
                               "pass" if lhs.equals(rhs) else "fail", 0))
    return out


def _relabel_maps(n: int, sigma: dict, vdim: int, ring: Ring,
                  vertices) -> dict:
    """Vertex maps of the S_n relabelling Gsy_t -> Gsy_{t sigma}: the slot at
    gamma reads the input at sigma^{-1}(gamma), landing at vertex sigma(alpha)."""
    back = _moved({v: k for k, v in sigma.items()})
    maps = {}
    for alpha in vertices:
        in_labels = _v_labels(alpha, vdim)
        x = Poly.coords(ring, in_labels)
        maps[alpha] = PolyMap.from_label_exprs(ring, in_labels, {
            vlab(g, c): x(back(vlab(g, c)))
            for g in subsets(sigma[e] for e in alpha) for c in range(vdim)})
    return maps


def check_symmetry(law: Law, sigma: dict) -> list:
    """S_n-equivariance: the relabelling intertwines F_t with F_{t sigma}.

    The relabelling sends the slot at gamma to the input at sigma^{-1}(gamma),
    so the destination scales are t'_{sigma(j)} = t_j.  It only renames
    coordinates, so it is applied by renaming: the outputs of F_t at alpha
    move by sigma, the inputs of F_{t sigma} at sigma(alpha) by sigma^{-1},
    and the two maps are compared; nothing is composed.
    """
    if law.kind != "sym":
        raise LawError("symmetry is a property of symmetric laws")
    ring = law.base.ring
    n = len(law.t)
    directions = set(range(1, n + 1))
    if set(sigma) != directions or set(sigma.values()) != directions:
        raise LawError(f"sigma {sigma} is not a permutation of 1..{n}")
    inv = {v: k for k, v in sigma.items()}
    t_perm = [law.t[inv[i + 1] - 1] for i in range(n)]
    maps_perm = _sym_vertex_maps(law.sym_slopes(), t_perm, ring)
    out = []
    for alpha in law.src.vertices:
        lhs = law.vertex_maps[alpha].rename(None, _moved(sigma))
        rhs = maps_perm[frozenset(sigma[e] for e in alpha)].rename(_moved(inv))
        out.append(CheckReport("law-symmetry", f"vertex {sorted(alpha)}",
                               "pass" if lhs.equals(rhs) else "fail", 0))
    return out


def flip_isomorphism_reports(n: int, t, vdim: int = 1, ring: Ring = QQ,
                             seed: int = 0, samples: int = 40) -> list:
    """The exchange map as a verified isomorphism Gsy_t -> Gsy_{t sigma}
    (checked as a morphism after transposing the destination)."""
    sigma = {i: i for i in range(1, n + 1)}
    sigma[1], sigma[2] = 2, 1
    src = gsy(n, list(t), vdim, ring)
    inv = {v: k for k, v in sigma.items()}
    t_perm = [t[inv[i + 1] - 1] for i in range(n)]
    dst = gsy(n, t_perm, vdim, ring).transpose(sigma)
    maps = _relabel_maps(n, sigma, vdim, ring, src.vertices)
    return check_morphism(src, dst, maps, seed=seed, samples=samples)


# ---------------------------------------------------------------------------
# finite-part laws from arbitrary set maps
# ---------------------------------------------------------------------------


@dataclass
class PartialLaw:
    """Law on the finite part, defined pointwise from a black-box base map."""

    f: object  # callable tuple -> tuple
    n: int
    t: tuple
    ring: Ring
    out_dim: int

    def factorizer_value(self, beta: tuple, values: dict) -> list:
        """F^[k]_{t_beta} at one point, by the closed difference formula."""
        return _closed_formula(lambda point: self.f(tuple(point)), self.ring,
                               beta, [self.t[e - 1] for e in beta], values)

    def vertex_value(self, alpha, point: dict) -> dict:
        """Image of a Gsy_t-point under the law, coordinate dict to dict."""
        groups: dict = {}
        for l, v in point.items():
            groups.setdefault(l.index, {})[l.comp] = v
        values = {g: [groups[g][c] for c in sorted(groups[g])] for g in groups}
        out = {}
        for beta in subsets(alpha):
            vals = self.factorizer_value(tuple(sorted(beta)),
                                         {g: values[g] for g in values
                                          if g <= beta})
            for c, x in enumerate(vals):
                out[vlab(beta, c)] = x
        return out


def finite_law_from_map(f, n: int, t, ring: Ring = QQ,
                        out_dim: int = 1) -> PartialLaw:
    """Unique finite-part law of an arbitrary set map; all t_i must be units."""
    for tv in t:
        if not ring.is_unit(tv):
            raise RingError(f"finite part needs invertible scales, got {tv}")
    return PartialLaw(f, n, tuple(t), ring, out_dim)


def check_finite_law(plaw: PartialLaw, in_dim: int = 1, seed: int = 0,
                     samples: int = 30) -> list:
    """Morphism identities of a black-box finite-part law on sampled
    composable pairs (exact rational arithmetic)."""
    _require_samples(samples)
    ring = plaw.ring
    src, dst = _src_dst(in_dim, plaw.out_dim,
                        lambda vdim: gsy(plaw.n, list(plaw.t), vdim=vdim,
                                         ring=ring))
    B = _Sampled(ring, seed, samples)
    join, split = ring.join, ring.split

    def lift(vertex, frm, to):
        # each point's value once: the laws of a table share their points.
        # A point is kept next to its value, so that its id is not reused.
        # The black box takes and gives scalars, the sampled points are in
        # content form
        values = {}

        def law_at(point):
            hit = values.get(id(point))
            if hit is None or hit[0] is not point:
                value = plaw.vertex_value(vertex, {
                    l: join(*v) for l, v in zip(frm.labels, point)})
                hit = values[id(point)] = point, [split(value[l])
                                                  for l in to.labels]
            return hit[1]
        return law_at
    return [r for key in sorted(src.edges, key=edge_order)
            for r in _run(B, _edge_location(key),
                          _morphism_laws(B, src, dst, key, lift, "finite-law-",
                                         finite=True))]


# ---------------------------------------------------------------------------
# the derived ring structure (Goid_n rings) and the algebraic model
# ---------------------------------------------------------------------------


def ring_product_map(ring: Ring = QQ) -> PolyMap:
    """The base-ring multiplication K x K -> K as a polynomial map."""
    x = Poly.coords(ring, ("a", "b"))
    return PolyMap(ring, ("a", "b"), (x("a") * x("b"),))


def ring_goid_structure(n: int, t, ring: Ring = QQ) -> dict:
    """Derive the ring product through Gsy^n_t and compare each vertex
    product with `ext_mul` of the generic pair over A_t."""
    law = derive_law_sym(ring_product_map(ring), n, list(t), ring)
    results = {"law": law, "matches_ext_mul": True, "mismatches": []}
    for alpha in law.src.vertices:
        m = law.vertex_maps[alpha]
        prod = ext_mul(*_generic_point(ring, m.in_labels, alpha, t, 2))
        for delta in subsets(alpha):
            if m.component(vlab(delta, 0)) != prod.coeff(delta):
                results["matches_ext_mul"] = False
                results["mismatches"].append((alpha, delta))
    return results


def sym_law_via_extension(f: PolyMap, n: int, t, alpha,
                          ring: Ring = QQ) -> PolyMap:
    """The vertex map at alpha computed purely by scalar extension: evaluate
    f over A_t^{alpha} with symbolic coefficients and read off coefficients."""
    alpha = tuple(sorted(alpha))
    in_labels = _v_labels(alpha, f.in_arity)
    images = eval_over_extension(f, _generic_point(ring, in_labels, alpha, t,
                                                   f.in_arity))
    return PolyMap.from_label_exprs(ring, in_labels, {
        vlab(g, c): img.coeff(g)
        for c, img in enumerate(images) for g in subsets(alpha)})
