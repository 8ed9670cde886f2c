"""Laws: compatible families of n-fold groupoid morphisms over a base map.

derive_law_full builds the vertex maps of the full cubic law of a polynomial
map by the stage iteration that builds the vertex sets (`derive._staged`);
derive_law_sym builds the symmetric law at fixed scales from the higher order
difference factorizers.  The morphism laws are the one morphism table of
`checks`: check_law_compatibility runs it through the symbolic back-end, a
proof, and check_finite_law through the sampled back-end, for the finite
part that finite_law_from_map builds from an arbitrary (black-box) base
map.  Homogeneity and symmetry are checked as identities of vertex maps.
"""
from __future__ import annotations

from dataclasses import dataclass

from .checks import (CheckReport, _morphism_laws, _run, _Sampled, _Symbolic,
                     check_morphism)
from .constructions import gfull, gsy, _scalar_action_maps, _tprod
# derive_polymap stays bound here: perfbench/tests checks that the tracer
# wraps and restores it at every binding, this one included
from .derive import (_staged, _v_labels, CoordLabel, derive_polymap,  # noqa: F401
                     vlab)
from .extension import ExtElement, eval_over_extension
from .hypercube import subsets
from .polymap import Poly, PolyMap, PolyRing
from .presentation import (NFoldPresentation, edge_order,
                           subsets_presentation_vertices)
from .rings import QQ, Ring, RingError
from .slopes import _closed_formula, _cubic_base, _sym_slope_step


class LawError(ValueError):
    pass


@dataclass
class Law:
    """A family of vertex maps between two presentations over one hypercube."""

    kind: str  # "full" | "sym"
    base: PolyMap
    src: NFoldPresentation
    dst: NFoldPresentation
    vertex_maps: dict
    t: tuple | None = None

    def vertex_map(self, alpha) -> PolyMap:
        return self.vertex_maps[frozenset(alpha)]


def derive_law_full(f: PolyMap, N) -> Law:
    """G^N f: vertex maps built by deriving at directions inside alpha and
    extending by the identity elsewhere; the bottom map is f x id."""
    if isinstance(N, int):
        N = tuple(range(1, N + 1))
    N = tuple(sorted(N))
    base = _cubic_base(f)
    src = gfull(N, vdim=f.in_arity)
    dst = gfull(N, vdim=f.out_arity)
    maps = {alpha: _staged(base, N, alpha).extend_inputs(
        src.schemas[alpha].labels) for alpha in src.vertices}
    return Law("full", f, src, dst, maps)


def _relabeled_factorizer(m: PolyMap, beta: tuple, t: dict,
                          ring: Ring) -> PolyMap:
    """The factorizer m = f^[|beta|] with directions 1..k relabeled onto beta
    and the scales fixed at t."""
    table = {i + 1: beta[i] for i in range(len(beta))}

    def relabel(l: CoordLabel) -> CoordLabel:
        return CoordLabel(l.kind, frozenset(table[e] for e in l.index), l.comp)

    m = m.rename(relabel, None)
    assign = {}
    new_in = tuple(l for l in m.in_labels if l.kind == "v")
    n = len(new_in)
    for l in m.in_labels:
        if l.kind == "t":
            assign[l] = Poly.const(ring, n, t[next(iter(l.index))])
        else:
            assign[l] = Poly.var(ring, n, new_in.index(l))
    return m.subst(assign, new_in)


def derive_law_sym(f: PolyMap, n: int, t, ring: Ring | None = None) -> Law:
    """Gsy^n_t f: the vertex map at alpha collects the higher order
    difference factorizers f^[|beta|]_{t_beta} over all beta within alpha."""
    ring = ring or f.ring
    t = tuple(t)
    if len(t) != n:
        raise LawError(f"need {n} scales, got {len(t)}")
    src = gsy(n, t, vdim=f.in_arity, ring=ring)
    dst = gsy(n, t, vdim=f.out_arity, ring=ring)
    return Law("sym", f, src, dst, _sym_vertex_maps(f, n, t, ring), t=t)


def _sym_vertex_maps(f: PolyMap, n: int, t, ring: Ring) -> dict:
    """The vertex maps of Gsy^n_t f, by vertex.

    One slope iteration gives f^[0..n]; each factorizer is relabeled onto its
    beta once and re-indexed onto the inputs of every vertex above beta.
    """
    t = {k + 1: tv for k, tv in enumerate(t)}
    slopes = [_cubic_base(f)]
    for k in range(1, n + 1):
        slopes.append(_sym_slope_step(slopes[-1], k))
    factorizers = {}
    maps = {}
    for alpha in subsets_presentation_vertices(n):
        in_labels = _v_labels(alpha, f.in_arity)
        exprs = {}
        for beta in subsets(alpha):
            fac = factorizers.get(beta)
            if fac is None:
                fac = factorizers[beta] = _relabeled_factorizer(
                    slopes[len(beta)], tuple(sorted(beta)), t, ring)
            comps = fac.extend_inputs(in_labels).comps
            for c in range(f.out_arity):
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
        n0 = len(bottom.in_labels)
        for l in bottom.in_labels:
            if isinstance(l, CoordLabel) and l.kind == "t":
                ok = ok and bottom.component(l) == Poly.var(
                    law.base.ring, n0, bottom.in_labels.index(l))
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
    phi_p = _scalar_action_maps(n, s, law.base.in_arity, ring)
    phi_q = _scalar_action_maps(n, s, law.base.out_arity, ring)
    st = [ring.mul(sv, tv) for sv, tv in zip(s, law.t)]
    maps_st = _sym_vertex_maps(law.base, n, st, ring)
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
    inv = {v: k for k, v in sigma.items()}
    maps = {}
    for alpha in vertices:
        in_labels = _v_labels(alpha, vdim)
        nl = len(in_labels)
        exprs = {}
        for g in subsets(sigma[e] for e in alpha):
            for c in range(vdim):
                pre = frozenset(inv[e] for e in g)
                exprs[vlab(g, c)] = Poly.var(ring, nl, in_labels.index(vlab(pre, c)))
        maps[alpha] = PolyMap.from_label_exprs(ring, in_labels, exprs)
    return maps


def check_symmetry(law: Law, sigma: dict) -> list:
    """S_n-equivariance: the relabelling intertwines F_t with F_{t sigma}.

    The relabelling sends the slot at gamma to the input at sigma^{-1}(gamma),
    so the destination scales are t'_{sigma(j)} = t_j.
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
    maps_perm = _sym_vertex_maps(law.base, n, t_perm, ring)
    r_p = _relabel_maps(n, sigma, law.base.in_arity, ring, law.src.vertices)
    r_q = _relabel_maps(n, sigma, law.base.out_arity, ring, law.src.vertices)
    out = []
    for alpha in law.src.vertices:
        salpha = frozenset(sigma[e] for e in alpha)
        lhs = r_q[alpha].compose(law.vertex_maps[alpha])
        rhs = maps_perm[salpha].compose(r_p[alpha])
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
    ring = plaw.ring
    src = gsy(plaw.n, list(plaw.t), vdim=in_dim, ring=ring)
    dst = gsy(plaw.n, list(plaw.t), vdim=plaw.out_dim, ring=ring)
    B = _Sampled(ring, seed, samples)

    def lift(vertex, frm, to):
        # each point's value once: the laws of a table share their points.
        # A point is kept next to its value, so that its id is not reused
        values = {}

        def law_at(point):
            hit = values.get(id(point))
            if hit is None or hit[0] is not point:
                value = plaw.vertex_value(vertex, dict(zip(frm.labels, point)))
                hit = values[id(point)] = point, [value[l] for l in to.labels]
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
    a = Poly.var(ring, 2, 0)
    b = Poly.var(ring, 2, 1)
    return PolyMap(ring, ("a", "b"), (a * b,))


def ring_goid_structure(n: int, t, ring: Ring = QQ) -> dict:
    """Derive the ring product through Gsy^n_t and compare the induced vertex
    products with the structure constants of the extension algebras A_t."""
    law = derive_law_sym(ring_product_map(ring), n, list(t), ring)
    results = {"law": law, "matches_ext_mul": True, "mismatches": []}
    t_by = {k + 1: tv for k, tv in enumerate(t)}
    for alpha in law.src.vertices:
        m = law.vertex_maps[alpha]
        nl = len(m.in_labels)
        for delta in subsets(alpha):
            expected = Poly.zero(ring, nl)
            for beta in subsets(alpha):
                for gamma in subsets(alpha):
                    if beta | gamma != delta:
                        continue
                    term = Poly.var(ring, nl, m.in_labels.index(vlab(beta, 0))) \
                        * Poly.var(ring, nl, m.in_labels.index(vlab(gamma, 1)))
                    expected = expected + term.scale(
                        _tprod(ring, t_by, beta & gamma))
            if m.component(vlab(delta, 0)) != expected:
                results["matches_ext_mul"] = False
                results["mismatches"].append((alpha, delta))
    return results


def sym_law_via_extension(f: PolyMap, n: int, t, alpha,
                          ring: Ring = QQ) -> PolyMap:
    """The vertex map at alpha computed purely by scalar extension: evaluate
    f over A_t^{alpha} with symbolic coefficients and read off coefficients."""
    alpha = tuple(sorted(alpha))
    p = f.in_arity
    in_labels = _v_labels(alpha, p)
    coeff_ring = PolyRing(ring, len(in_labels))
    t_vals = tuple(Poly.const(ring, len(in_labels), t[e - 1]) for e in alpha)
    base = []
    for c in range(p):
        table = {}
        for g in subsets(alpha):
            table[frozenset(g)] = Poly.var(ring, len(in_labels),
                                           in_labels.index(vlab(g, c)))
        base.append(ExtElement.from_subset_coeffs(coeff_ring, alpha, t_vals, table))
    # f lifted with its numerators; each image is divided by its denominator
    f_lifted = PolyMap(coeff_ring, f.in_labels, tuple(
        Poly(coeff_ring, f.in_arity,
             {e: Poly.const(ring, len(in_labels), c) for e, c in comp.nums.items()})
        for comp in f.comps))
    images = eval_over_extension(f_lifted, base)
    exprs = {}
    for c, img in enumerate(images):
        den = f.comps[c].den
        for g in subsets(alpha):
            exprs[vlab(g, c)] = img.coeff(g) if den == 1 else \
                img.coeff(g).scale(ring.from_ratio(1, den))
    return PolyMap.from_label_exprs(ring, in_labels, exprs)
