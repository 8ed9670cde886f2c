"""Computable presentations of small n-fold categories and groupoids.

A presentation assigns a coordinate schema to every vertex of a hypercube and
an edge category (source, target, unit, composition, optional inverse) to
every edge.  Composition follows the global convention: compose(a, b) is
defined exactly when source(a) = target(b) ("b, then a").

Composable tuples are produced by polynomial parameterizations (pair_param /
triple_param / quad_param); samplers simply evaluate these at random points,
so every generated tuple is exactly composable.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .derive import tag_of, with_tag
from .hypercube import direction_key, kcubes, vertices as cube_vertices
from .polymap import Poly, PolyError, PolyMap
from .rings import Ring


class SamplingError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoxConstraint:
    """Membership condition: every component of expr must land in [lo, hi]."""

    expr: PolyMap  # schema labels -> m components
    lo: object
    hi: object

    def holds(self, point: list) -> bool:
        """`point` lists the values of expr's inputs, the schema labels, in
        their order."""
        return all(self.lo <= v <= self.hi for v in self.expr.eval(point))


@dataclass(frozen=True)
class CoordSchema:
    """Affine coordinate description of one vertex set.

    A point of the schema is a list of its values in `labels` order."""

    ring: Ring
    labels: tuple
    constraints: tuple = ()
    unit_labels: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for c in self.constraints:
            if c.expr.in_labels != self.labels:
                raise PolyError("a constraint must take the schema labels, "
                                "in schema order, as its inputs")

    def dim(self) -> int:
        return len(self.labels)

    def satisfies(self, point: list) -> bool:
        """`point` lists the canonical pairs of its values (`Ring.content`)
        in `labels` order; the constraints read it as scalars."""
        if not self.constraints:
            return True
        join = self.ring.join
        values = [join(num, den) for num, den in point]
        return all(c.holds(values) for c in self.constraints)

    def draw(self, rng, count: int = 1, span: int = 2,
             max_tries: int = 5000) -> list[list]:
        """Random exact points satisfying all constraints (rejection
        sampling), each the list of the canonical pairs of its values
        (`Ring.draw`) in `labels` order."""
        ring = self.ring
        units = [l in self.unit_labels for l in self.labels]
        out = []
        tries = 0
        while len(out) < count:
            if tries > max_tries:
                raise SamplingError(
                    f"rejection sampling exhausted after {tries} tries on a "
                    f"{self.dim()}-coordinate schema with "
                    f"{len(self.constraints)} constraints")
            tries += 1
            point = ring.draw(rng, units, span)
            if self.satisfies(point):
                out.append(point)
        return out

    def sample(self, rng, count: int = 1, span: int = 2, max_tries: int = 5000) -> list[list]:
        """The points of `draw`, as lists of scalars."""
        join = self.ring.join
        return [[join(num, den) for num, den in point]
                for point in self.draw(rng, count, span, max_tries)]


def sample(schema: CoordSchema, seed: int, count: int):
    """Deterministic constrained sampling entry point (fixed seed, fixed output)."""
    import random

    return schema.sample(random.Random(seed), count)


LEFT, RIGHT = "a", "b"  # compose(a, b): source(a) = target(b)


@dataclass
class EdgeCat:
    """Category structure carried by one oriented edge of the hypercube."""

    direction: object
    lo: object
    hi: object
    dom: CoordSchema  # morphism set (hi vertex)
    cod: CoordSchema  # object set (lo vertex)
    source: PolyMap
    target: PolyMap
    unit: PolyMap
    compose: PolyMap  # domain labels tagged "a" (left) and "b" (right)
    inverse: PolyMap | None = None
    pair_param: PolyMap | None = None
    triple_param: PolyMap | None = None

    def is_groupoid(self) -> bool:
        return self.inverse is not None


def tagged(tag, labels):
    return tuple(with_tag(tag, l) for l in labels)


def _generic_chain(edge: EdgeCat, tags: tuple) -> PolyMap:
    """Composable chains (tags[0], ..., tags[-1]) of an edge whose source map
    is the projection onto the object coordinates: the rightmost element is
    free, and the base block of every other one is the target of its right
    neighbour, with its fiber block free.  The parameters are the rightmost
    element, then the fibers from right to left."""
    ring, dom_labels = edge.dom.ring, edge.dom.labels
    base = set(edge.cod.labels)
    fiber = [l for l in dom_labels if l not in base]
    params = tagged(tags[-1], dom_labels)
    for tag in reversed(tags[:-1]):
        params += tagged(tag, fiber)
    x = Poly.coords(ring, params)
    point = {l: x((tags[-1], l)) for l in dom_labels}
    exprs = {(tags[-1], l): point[l] for l in dom_labels}
    for tag in reversed(tags[:-1]):
        tgt = edge.target.subst(point, params)
        point = {l: tgt.component(l) if l in base else x((tag, l))
                 for l in dom_labels}
        exprs.update(((tag, l), point[l]) for l in dom_labels)
    return PolyMap.from_label_exprs(ring, params, exprs)


def source_is_projection(edge: EdgeCat) -> bool:
    ring, dom = edge.dom.ring, edge.dom.labels
    return edge.source.extend_inputs(dom).equals(
        PolyMap.projection(ring, dom, edge.source.out_labels))


def attach_generic_params(edge: EdgeCat) -> EdgeCat:
    """Fill in the pair and triple parameterizations of an edge whose source
    is a projection; an edge that carries both is returned as it is."""
    if edge.pair_param is not None and edge.triple_param is not None:
        return edge
    if not source_is_projection(edge):
        raise PolyError(
            f"edge {edge.lo}>{edge.hi}: generic composability sampling "
            "requires a projection source; attach explicit parameterizations")
    if edge.pair_param is None:
        edge.pair_param = _generic_chain(edge, (LEFT, RIGHT))
    if edge.triple_param is None:
        edge.triple_param = _generic_chain(edge, (LEFT, RIGHT, "c"))
    return edge


def edge_order(key) -> tuple:
    """Sort key of an edge (lo, hi): the size of hi, then hi, then lo."""
    lo, hi = key
    return (len(hi), sorted(hi), sorted(lo))


@dataclass
class NFoldPresentation:
    """An n-fold category presented by vertex schemas and edge categories."""

    name: str
    ring: Ring
    directions: tuple
    vertices: tuple
    schemas: dict
    edges: dict  # (lo, hi) -> EdgeCat
    faces: tuple = ()
    quad_params: dict = field(default_factory=dict)  # (lo, hi) -> PolyMap (tags a,b,c,d)

    def edge(self, lo, hi) -> EdgeCat:
        return self.edges[(lo, hi)]

    def schema(self, v) -> CoordSchema:
        return self.schemas[v]

    def is_groupoid(self) -> bool:
        return all(e.is_groupoid() for e in self.edges.values())

    def face_frame(self, face):
        """The four edges of a face (gamma, alpha): returns (i, j, e_i_bot,
        e_i_top, e_j_bot, e_j_top) with i, j the two added directions."""
        gamma, alpha = face
        i, j = sorted(alpha - gamma, key=direction_key)
        gi, gj = gamma | {i}, gamma | {j}
        return (i, j,
                self.edges[(gamma, gi)], self.edges[(gj, alpha)],
                self.edges[(gamma, gj)], self.edges[(gi, alpha)])

    # -- re-indexing operations ---------------------------------------------

    def transpose(self, tau: dict) -> "NFoldPresentation":
        """tau-transposed presentation (P(N) keys): vertex alpha carries the
        data of tau(alpha)."""
        inv_tau = {w: k for k, w in tau.items()}

        def back(v):
            return frozenset(inv_tau[x] for x in v)

        def fwd(v):
            return frozenset(tau[e] for e in v)

        schemas = {v: self.schemas[fwd(v)] for v in self.vertices}
        edges = {}
        for (lo, hi), e in self.edges.items():
            nlo, nhi = back(lo), back(hi)
            edges[(nlo, nhi)] = replace(e, lo=nlo, hi=nhi,
                                        direction=next(iter(nhi - nlo)))
        faces = tuple((back(lo), back(hi)) for lo, hi in self.faces)
        quads = {(back(lo), back(hi)): q for (lo, hi), q in self.quad_params.items()}
        return NFoldPresentation(f"{self.name}^tau", self.ring, self.directions,
                                 self.vertices, schemas, edges, faces, quads)

    def gamma_opposite(self, gamma) -> "NFoldPresentation":
        """Reverse source/target and composition order in the directions of
        gamma.  Every face in a direction of gamma gets its quadruples: those
        of this presentation, explicit or generic, with the roles permuted;
        a generic quad built on the swapped edges would not be composable."""
        # checks imports this module, so its quad builder is imported here
        from .checks import generic_quad_param

        gamma = frozenset(gamma)
        edges = {}
        for key, e in self.edges.items():
            if e.direction in gamma:
                e = attach_generic_params(replace(e))
                swap = {LEFT: RIGHT, RIGHT: LEFT}
                edges[key] = replace(
                    e, source=e.target, target=e.source,
                    compose=e.compose.rename(_retag(swap)),
                    pair_param=e.pair_param.rename(None, _retag(swap)),
                    triple_param=e.triple_param.rename(
                        None, _retag({LEFT: "c", "c": LEFT})))
            else:
                edges[key] = e
        quads = dict(self.quad_params)
        for key in self.faces:
            lo, hi = key
            i, j = sorted(hi - lo, key=direction_key)
            if i not in gamma and j not in gamma:
                continue
            perm = {t: t for t in "abcd"}
            if i in gamma:  # a *_i b reverses: (a b)(c d)
                perm = {k: {"a": "b", "b": "a", "c": "d", "d": "c"}[v]
                        for k, v in perm.items()}
            if j in gamma:  # outer composition reverses: (a c)(b d)
                perm = {k: {"a": "c", "c": "a", "b": "d", "d": "b"}[v]
                        for k, v in perm.items()}
            q = quads.get(key) or generic_quad_param(self, key)
            quads[key] = q.rename(None, _retag(perm))
        return NFoldPresentation(f"{self.name}^opp", self.ring, self.directions,
                                 self.vertices, dict(self.schemas), edges,
                                 self.faces, quads)

    def top_down_projection(self, vertex, gamma) -> PolyMap:
        """Compose edge projections from `vertex` down to the bottom vertex,
        choosing the target at directions in gamma and the source elsewhere."""
        gamma = frozenset(gamma)
        cur = vertex
        m = None
        for d in sorted(vertex, key=direction_key, reverse=True):
            lo = cur - {d}
            e = self.edges[(lo, cur)]
            step = e.target if d in gamma else e.source
            m = step if m is None else step.compose(m)
            cur = lo
        if m is None:
            m = PolyMap.identity(self.ring, self.schemas[vertex].labels)
        return m


def _retag(table: dict):
    """The relabelling that moves a tagged label to the tag `table` gives its
    tag; other labels stay."""
    def f(l):
        tg = tag_of(l)
        return (table[tg], l[1]) if tg in table else l
    return f


def subsets_presentation_vertices(n: int) -> tuple:
    """All subsets of {1..n} as frozensets in lexicographic (bitmask) order."""
    return tuple(cube_vertices(n))


def subset_faces(vertices) -> tuple:
    return tuple(kcubes(vertices, 2))
