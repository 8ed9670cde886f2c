"""Coordinate labels and the one-step derivation functors.

Affine coordinates are labelled (kind, index set, component): v-coordinates
are vectors of the model space, s- and t-coordinates are scalars.  Deriving a
map in direction j doubles every coordinate c into (c, c|{j}) and adds a fresh
scale t_j (and s_j for the two-typed double-cat step); the partner component
of a map is the exact difference quotient of its value component.

Labels may be tagged as (tag, CoordLabel) to address several copies of a
coordinate space at once (composable pairs, interchange quadruples).
"""
from __future__ import annotations

from dataclasses import dataclass

from .hypercube import subset_label, subsets
from .polymap import Poly, PolyMap, _shift_quotient

KIND_SCHEMA_RANK = {"v": 0, "s": 1, "t": 2}
KIND_MONOMIAL_RANK = {"t": 0, "s": 1, "v": 2}


@dataclass(frozen=True)
class CoordLabel:
    """A coordinate label.  Its hash is computed once, when it is built: a
    label is hashed on every dict lookup of a sampled check.  Pickling
    rebuilds the label through its constructor, so the cached hash, which
    depends on the process's str hashes, is never carried over."""

    kind: str
    index: frozenset
    comp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.index, self.comp)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return CoordLabel, (self.kind, self.index, self.comp)

    def display(self) -> str:
        base = self.kind + subset_label(self.index)
        return base if self.comp == 0 else f"{base}_{self.comp}"

    def __repr__(self):
        return self.display()


def vlab(elems, comp: int = 0) -> CoordLabel:
    return CoordLabel("v", frozenset(elems), comp)


def tlab(elems) -> CoordLabel:
    return CoordLabel("t", frozenset(elems))


def slab(elems) -> CoordLabel:
    return CoordLabel("s", frozenset(elems))


def schema_key(label):
    """Canonical coordinate order: v-block, s-block, t-block; (length, lex) inside."""
    l = label[1] if isinstance(label, tuple) else label
    tag = label[0] if isinstance(label, tuple) else ""
    return (str(tag), KIND_SCHEMA_RANK[l.kind], len(l.index), tuple(sorted(l.index)), l.comp)


def _canon(labels) -> tuple:
    return tuple(sorted(labels, key=schema_key))


def _v_labels(alpha, vdim: int) -> tuple:
    """The coordinates v_gamma_c, gamma within alpha and c < vdim, in
    canonical order: the vertex set at alpha of Gsy^n and of PG^n."""
    return _canon(vlab(g, c) for g in subsets(alpha) for c in range(vdim))


def monomial_key(label):
    """Factor order inside printed monomials: t, then s, then v."""
    l = label[1] if isinstance(label, tuple) else label
    return (KIND_MONOMIAL_RANK[l.kind], len(l.index), tuple(sorted(l.index)), l.comp)


def display_label(label) -> str:
    if isinstance(label, tuple):
        return f"{label[0]}.{display_label(label[1])}"
    return label.display()


def partner(label, j: int):
    """The derivative partner of a coordinate in direction j."""
    if isinstance(label, tuple):
        return (label[0], partner(label[1], j))
    if j in label.index:
        raise ValueError(f"label {label} already contains direction {j}")
    return CoordLabel(label.kind, label.index | {j}, label.comp)


def tag_of(label):
    return label[0] if isinstance(label, tuple) else None


def with_tag(tag, label):
    return label if tag is None else (tag, label)


def derive_labels(labels, j: int, with_s: bool) -> tuple:
    """Schema extension: originals, their partners, then fresh s_j / t_j."""
    labels = tuple(labels)
    fresh = ((slab({j}), tlab({j})) if with_s else (tlab({j}),))
    return labels + tuple(partner(l, j) for l in labels) + fresh


def extend_labels(labels, j: int, with_s: bool) -> tuple:
    fresh = ((slab({j}), tlab({j})) if with_s else (tlab({j}),))
    return tuple(labels) + fresh


def _grouped(labels):
    """Ordered list of tags occurring in a label list (None = untagged)."""
    tags = []
    for l in labels:
        t = tag_of(l)
        if t not in tags:
            tags.append(t)
    return tags


def _quotients(m: PolyMap, new_in, partner_of, tau_labels) -> list:
    """(value, slope) of every component of m over the inputs new_in.

    partner_of(l) is the partner label of input l, or None when l is not
    shifted; the shift scale is the product of the inputs tau_labels.
    """
    pos = {l: i for i, l in enumerate(new_in)}
    index = [pos[l] for l in m.in_labels]
    partners = [None if p is None else pos[p]
                for p in map(partner_of, m.in_labels)]
    tau = [pos[l] for l in tau_labels]
    return [_shift_quotient(c, len(new_in), index, partners, tau)
            for c in m.comps]


def _shift_target(ring, base, j: int, with_s: bool, dom=None) -> PolyMap:
    """Target x -> x + tau*x' of the one-step groupoid in direction j over
    the coordinates `base`, tau = t_j (s_j*t_j when with_s); the scales pass
    through.  The domain is `dom`, by default derive_labels(base, j, with_s).
    """
    dom = derive_labels(base, j, with_s) if dom is None else dom
    v = Poly.coords(ring, dom)
    tau = v(slab({j})) * v(tlab({j})) if with_s else v(tlab({j}))
    exprs = {l: v(l) + tau * v(partner(l, j)) for l in base}
    exprs[tlab({j})] = v(tlab({j}))
    if with_s:
        exprs[slab({j})] = v(slab({j}))
    return PolyMap.from_label_exprs(ring, dom, exprs)


def derive_polymap(m: PolyMap, j: int, with_s: bool,
                   copies: bool = False) -> PolyMap:
    """Apply the one-step derivation functor to a map.

    Every input and output coordinate acquires a partner; partner components
    are exact slopes at scale t_j (or s_j*t_j when with_s).  With copies=True
    the domain consists of several tagged copies of one space (a
    composition): each copy gets its own fresh scale coordinates and the
    slope is taken at the scale of the last copy (the right operand) -- on
    composable tuples all copies agree.  With copies=False the domain is a
    parameter space and receives a single shared fresh scale.
    """
    fresh, scale_in, src = _fresh_scales(m, j, with_s, copies)
    new_in = m.in_labels + tuple(partner(l, j) for l in m.in_labels) + scale_in
    out: dict = {}
    for lbl, (value, slope) in zip(m.out_labels, _quotients(
            m, new_in, lambda l: partner(l, j), [with_tag(src, l) for l in fresh])):
        out[lbl] = value
        out[partner(lbl, j)] = slope
    out.update(_scale_outputs(m, new_in, fresh, src))
    return PolyMap.from_label_exprs(m.ring, new_in, out)


def extend_polymap(m: PolyMap, j: int, with_s: bool,
                   copies: bool = False) -> PolyMap:
    """Extend a map by the identity on fresh scale coordinates (x id)."""
    fresh, scale_in, src = _fresh_scales(m, j, with_s, copies)
    new_in = m.in_labels + scale_in
    out = dict(zip(m.out_labels, m.extend_inputs(new_in).comps))
    out.update(_scale_outputs(m, new_in, fresh, src))
    return PolyMap.from_label_exprs(m.ring, new_in, out)


def _staged(m: PolyMap, stages, vertices, copies: bool = False) -> dict:
    """Push m through the one-step functors of the directions `stages`, in
    order, for each vertex v of `vertices`: direction k is derived when k is
    in v and extended by the identity otherwise, with s_k when k' (stored as
    -k) is in v.  Returns the maps by vertex.  Vertices that make the same
    choices on the first stages share the steps of those stages: each map of
    a stage is keyed by the part of its vertex that the stages so far read."""
    read: frozenset = frozenset()
    made = {read: m}
    for k in stages:
        step_read = read | {k, -k}
        step_made = {}
        for v in vertices:
            key = v & step_read
            if key not in step_made:
                step = derive_polymap if k in v else extend_polymap
                step_made[key] = step(made[v & read], k, with_s=-k in v,
                                      copies=copies)
        read, made = step_read, step_made
    return {v: made[v & read] for v in vertices}


def _staged_labels(vdim: int, stages, v: frozenset) -> tuple:
    """The coordinates, in canonical order, that `_staged` gives a map out of
    the vdim-dimensional space v0."""
    labels: tuple = tuple(vlab((), c) for c in range(vdim))
    for k in stages:
        step = derive_labels if k in v else extend_labels
        labels = step(labels, k, with_s=-k in v)
    return _canon(labels)


def _fresh_scales(m: PolyMap, j: int, with_s: bool, copies: bool):
    """The fresh scale labels of direction j, the fresh scale inputs of m
    (one set per tagged copy when the domain is several copies, see
    derive_polymap) and the tag of the copy whose scales are the shift scale
    and the fresh outputs (None for a single space)."""
    fresh = (slab({j}), tlab({j})) if with_s else (tlab({j}),)
    if not copies:
        return fresh, fresh, None
    dom_tags = _grouped(m.in_labels)
    scale_in = tuple(with_tag(tg, l) for tg in dom_tags for l in fresh)
    return fresh, scale_in, dom_tags[-1]


def _scale_outputs(m: PolyMap, new_in, fresh, src) -> dict:
    """Every output copy of m passes the fresh scales of the copy src on."""
    v = Poly.coords(m.ring, new_in)
    return {with_tag(tg, l): v(with_tag(src, l))
            for tg in _grouped(m.out_labels) for l in fresh}
