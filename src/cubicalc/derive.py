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

from .hypercube import subset_label
from .polymap import Poly, PolyMap

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


def derive_polymap(m: PolyMap, j: int, with_s: bool, tau_tag=None,
                   copies: bool | None = None) -> PolyMap:
    """Apply the one-step derivation functor to a map.

    Every input and output coordinate acquires a partner; partner components
    are exact slopes at scale t_j (or s_j*t_j when with_s).  With copies=True
    the domain consists of several tagged copies of one space (a composition
    or a section): each copy gets its own fresh scale coordinates and the
    slope is taken at the scale of `tau_tag` (the right operand) -- on
    composable tuples all copies agree.  With copies=False the domain is a
    parameter space and receives a single shared fresh scale.
    """
    dom_tags = _grouped(m.in_labels)
    multi = (dom_tags != [None]) if copies is None else copies
    if multi and tau_tag is None:
        tau_tag = dom_tags[-1]

    fresh_tags = dom_tags if multi else [None]
    new_in = list(m.in_labels) + [partner(l, j) for l in m.in_labels]
    for tg in fresh_tags:
        if with_s:
            new_in.append(with_tag(tg, slab({j})))
        new_in.append(with_tag(tg, tlab({j})))
    new_in = tuple(new_in)
    n = len(new_in)
    pos = {l: i for i, l in enumerate(new_in)}

    ring = m.ring
    t_var = Poly.var(ring, n, pos[with_tag(tau_tag if multi else None, tlab({j}))])
    if with_s:
        s_var = Poly.var(ring, n, pos[with_tag(tau_tag if multi else None, slab({j}))])
        tau = s_var * t_var
    else:
        tau = t_var

    images_value = [Poly.var(ring, n, pos[l]) for l in m.in_labels]
    images_shift = [
        Poly.var(ring, n, pos[l]) + tau * Poly.var(ring, n, pos[partner(l, j)])
        for l in m.in_labels
    ]

    out_exprs: dict = {}
    for idx, comp in enumerate(m.comps):
        value = comp.subst(images_value, n)
        shifted = comp.subst(images_shift, n)
        numer = shifted - value
        slope = numer.divide_by_var(pos[with_tag(tau_tag if multi else None, tlab({j}))])
        if with_s:
            slope = slope.divide_by_var(pos[with_tag(tau_tag if multi else None, slab({j}))])
        lbl = m.out_labels[idx]
        out_exprs[lbl] = value
        out_exprs[partner(lbl, j)] = slope

    for tg in _grouped(m.out_labels):
        src_tag = tau_tag if multi else None
        if with_s:
            out_exprs[with_tag(tg, slab({j}))] = Poly.var(
                ring, n, pos[with_tag(src_tag, slab({j}))])
        out_exprs[with_tag(tg, tlab({j}))] = Poly.var(
            ring, n, pos[with_tag(src_tag, tlab({j}))])

    return PolyMap.from_label_exprs(ring, new_in, out_exprs)


def extend_polymap(m: PolyMap, j: int, with_s: bool, tau_tag=None,
                   copies: bool | None = None) -> PolyMap:
    """Extend a map by the identity on fresh scale coordinates (x id)."""
    dom_tags = _grouped(m.in_labels)
    multi = (dom_tags != [None]) if copies is None else copies
    if multi and tau_tag is None:
        tau_tag = dom_tags[-1]

    new_in = list(m.in_labels)
    for tg in (dom_tags if multi else [None]):
        if with_s:
            new_in.append(with_tag(tg, slab({j})))
        new_in.append(with_tag(tg, tlab({j})))
    new_in = tuple(new_in)
    n = len(new_in)
    pos = {l: i for i, l in enumerate(new_in)}
    ring = m.ring

    images = [Poly.var(ring, n, pos[l]) for l in m.in_labels]
    out_exprs = {l: c.subst(images, n) for l, c in zip(m.out_labels, m.comps)}
    for tg in _grouped(m.out_labels):
        src_tag = tau_tag if multi else None
        if with_s:
            out_exprs[with_tag(tg, slab({j}))] = Poly.var(
                ring, n, pos[with_tag(src_tag, slab({j}))])
        out_exprs[with_tag(tg, tlab({j}))] = Poly.var(
            ring, n, pos[with_tag(src_tag, tlab({j}))])
    return PolyMap.from_label_exprs(ring, new_in, out_exprs)
