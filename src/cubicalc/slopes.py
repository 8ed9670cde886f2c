"""Difference-quotient operators on polynomial maps.

slope(f) is the exact difference factorizer f1 with
f(x + t v) - f(x) = t * f1(x, v, t); full_slope iterates it in all variables
(space and scale), sym_slope_iterated iterates it with each scale frozen.
"""
from __future__ import annotations

from dataclasses import dataclass

from .derive import _quotients, derive_polymap, partner, tlab, vlab
from .extension import ExtElement, _Split, eval_over_extension
from .hypercube import subsets
from .polymap import Poly, PolyError, PolyMap
from .rings import Ring, RingError


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "'"
    return name


@dataclass
class SlopeResult:
    """Difference factorizer of a map, with its variable grouping.

    Invariant (checkable via factorizer_identity_holds): t * factorizer equals
    f(x + t v) - f(x) as a polynomial identity.
    """

    factorizer: PolyMap
    x_labels: tuple
    v_labels: tuple
    t_label: object


def factorizer_identity_holds(f: PolyMap, s: SlopeResult) -> bool:
    """Check t * f1(x,v,t) == f(x+tv) - f(x) symbolically."""
    fac = s.factorizer
    n = fac.in_arity
    x = Poly.coords(f.ring, fac.in_labels)
    t = x(s.t_label)
    shift = [x(xl) + t * x(v) for xl, v in zip(s.x_labels, s.v_labels)]
    value = f.rename(dict(zip(f.in_labels, s.x_labels)).get) \
        .extend_inputs(fac.in_labels)
    return all(t * fc == comp.subst(shift, n) - vc
               for comp, vc, fc in zip(f.comps, value.comps, fac.comps))


def slope(f: PolyMap) -> SlopeResult:
    """First order difference quotient map of f, term by term."""
    taken = set(f.in_labels)
    v_labels = []
    for idx, l in enumerate(f.in_labels):
        name = _fresh(f"{l}'" if isinstance(l, str) else f"d{idx}", taken)
        v_labels.append(name)
        taken.add(name)
    v_labels = tuple(v_labels)
    t_label = _fresh("t", taken)
    new_in = f.in_labels + v_labels + (t_label,)
    comps = [s for _, s in _quotients(
        f, new_in, dict(zip(f.in_labels, v_labels)).get, (t_label,))]
    fac = PolyMap(f.ring, new_in, tuple(comps), f.out_labels)
    return SlopeResult(fac, f.in_labels, v_labels, t_label)


def derive_map(f: PolyMap) -> PolyMap:
    """One-step derivation functor: x -> (f(x), f1(x,v,t), t).

    The result composes functorially: derive_map(g . f) = derive_map(g) . derive_map(f)
    provided f.out_labels equal g.in_labels.
    """
    if f.out_labels is None:
        f = PolyMap(f.ring, f.in_labels, f.comps,
                    tuple(f"y{i}" for i in range(f.out_arity)))
    s = slope(f)
    ring = f.ring
    new_in = s.factorizer.in_labels
    out_exprs = {}
    for l, value, fac in zip(f.out_labels, f.extend_inputs(new_in).comps,
                             s.factorizer.comps):
        out_exprs[l] = value
        out_exprs[_partner_name(l)] = fac
    out_exprs[s.t_label] = Poly.coords(ring, new_in)(s.t_label)
    # rename domain partner labels the same way so that composition chains
    ren = dict(zip(s.v_labels, (_partner_name(l) for l in f.in_labels)))
    ren[s.t_label] = "t"
    out_ren = {s.t_label: "t"}
    m = PolyMap.from_label_exprs(ring, new_in, out_exprs)
    return m.rename(lambda l: ren.get(l, l),
                    lambda l: out_ren.get(l, l))


def _partner_name(l):
    return f"{l}'" if isinstance(l, str) else ("d", l)


def _cubic_base(f: PolyMap) -> PolyMap:
    """Relabel a parsed map into cubic coordinates v0 (with components)."""
    p, q = f.in_arity, f.out_arity
    return PolyMap(f.ring, tuple(vlab((), c) for c in range(p)), f.comps,
                   tuple(vlab((), c) for c in range(q)))


def full_slope(f: PolyMap, n: int) -> PolyMap:
    """The n-th full difference quotient f^[n] in cubic coordinates.

    Input labels are all v_beta (beta within {1..n}) and t_beta (beta nonempty);
    components are the top block (the iterated factorizer itself).  Each step
    keeps only the top block, so the next one derives nothing else.
    """
    if n < 1:
        raise PolyError("full_slope needs n >= 1")
    m = _cubic_base(f)
    for j in range(1, n + 1):
        top = [partner(l, j) for l in m.out_labels]
        m = derive_polymap(m, j, with_s=False).restrict_outputs(top)
    return m


def sym_slope_iterated(f: PolyMap, n: int) -> PolyMap:
    """f^[n]_{t_1..t_n}: iterate the slope with each scale frozen.

    A polynomial map in the variables v_beta (beta within {1..n}, vector) and
    t_1..t_n (scalars); only the space variables double at each step.
    """
    if n < 0:
        raise PolyError("sym_slope_iterated needs n >= 0")
    return _sym_slopes(f, n)[-1]


def _sym_slopes(f: PolyMap, n: int) -> list:
    """f^[0..n]: f in cubic coordinates, then each slope step in turn."""
    slopes = [_cubic_base(f)]
    for k in range(1, n + 1):
        slopes.append(_sym_slope_step(slopes[-1], k))
    return slopes


def _sym_slope_step(m: PolyMap, k: int) -> PolyMap:
    """f^[k] from f^[k-1] = m: the slope in direction k, taken in the space
    variables at the fresh frozen scale t_k."""
    v_ins = [l for l in m.in_labels if l.kind == "v"]
    t_ins = [l for l in m.in_labels if l.kind == "t"]
    new_in = tuple(v_ins) + tuple(partner(l, k) for l in v_ins) \
        + tuple(t_ins) + (tlab({k}),)
    comps = [s for _, s in _quotients(
        m, new_in, lambda l: partner(l, k) if l.kind == "v" else None,
        (tlab({k}),))]
    return PolyMap(m.ring, new_in, tuple(comps), m.out_labels)


def sym_slope_at(f: PolyMap, n: int, t_values, v_values) -> list:
    """sym_slope_iterated(f, n) at one point, at any scales: the top
    coefficient of f over A_t at the sum of v_beta X^beta (arguments as for
    sym_slope_closed)."""
    alpha = tuple(range(1, n + 1))
    at = subsets(alpha, binary=True)
    base = [ExtElement(f.ring, alpha, tuple(t_values),
                       tuple(v_values[s][c] for s in at))
            for c in range(f.in_arity)]
    return [img.coeffs[-1] for img in eval_over_extension(f, base)]


def sym_slope_closed(f: PolyMap, n: int, t_values, v_values) -> list:
    """Closed cubic formula for f^[n] at invertible scales (`_closed_formula`).

    t_values: sequence of n units; v_values: mapping frozenset -> coordinate
    sequence of length f.in_arity.
    """
    ring = f.ring
    for t in t_values:
        if not ring.is_unit(t):
            raise RingError(f"sym_slope_closed needs invertible scales, got {t}")
    return _closed_formula(f.eval, ring, range(1, n + 1), t_values, v_values)


def _closed_formula(f, ring: Ring, directions, scales, v_values) -> list:
    """The closed cubic formula of the difference factorizer at units t:

    (1 / prod t_i) * sum over alpha of (-1)^(k - |alpha|) *
    f( sum over beta within alpha of t_{beta_1}...t_{beta_l} * v_beta ),

    alpha running over the subsets of the k `directions`, scales[i] the
    scale of directions[i]: the points are the split slots of the sum of
    v_beta X^beta in A_t (`extension._Split`), and the value is the top
    coefficient of the inverse split of f at them.  f is a callable from a
    coordinate list to a value sequence; v_values maps each frozenset beta
    to v_beta.
    """
    t_of = dict(zip(directions, scales))
    at = subsets(t_of, binary=True)
    split = _Split(ring, tuple(t_of[e] for e in sorted(t_of)))
    coords = [split.split([v_values[beta][c] for beta in at])
              for c in range(len(v_values[frozenset()]))]
    vals = [list(f([xs[m] for xs in coords])) for m in range(len(at))]
    return [split.unsplit([v[c] for v in vals])[-1]
            for c in range(len(vals[0]))]
