"""Combinatorics of the natural n-hypercube P(n) and the two-typed 2n-hypercube.

Vertices are subsets of {1..n} stored as bitmasks (bit i-1 <-> element i).
The lexicographic total order of the power set coincides with the natural
order of the bitmask integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

MAX_DIM = 16


class HypercubeError(ValueError):
    pass


def _check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise HypercubeError(f"dimension must be in 0..{MAX_DIM}, got {n}")


def mask_of(elems) -> int:
    m = 0
    for e in elems:
        m |= 1 << (e - 1)
    return m


def elems_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def subsets(elems, binary: bool = False) -> list[frozenset]:
    """All subsets of `elems` as frozensets, by (size, sorted elements); with
    binary=True in binary-code order (bit i <-> the i-th smallest element),
    the lexicographic vertex order of P(n)."""
    out = [frozenset()]
    for e in sorted(elems):
        out += [s | {e} for s in out]
    if not binary:
        out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def subset_label(elems) -> str:
    """Concatenated digit string, "0" for the empty set ("12" for {1,2})."""
    elems = sorted(elems)
    if not elems:
        return "0"
    if all(e <= 9 for e in elems):
        return "".join(str(e) for e in elems)
    return ",".join(str(e) for e in elems)


@dataclass(frozen=True, order=True)
class Vertex:
    """A subset of {1..n}, as a bitmask plus its ambient dimension."""

    bits: int
    n: int

    def __post_init__(self):
        _check_dim(self.n)
        if self.bits >> self.n:
            raise HypercubeError(f"bits {self.bits:b} not a subset of 1..{self.n}")

    @classmethod
    def from_set(cls, elems, n: int) -> "Vertex":
        return cls(mask_of(elems), n)

    def elements(self) -> tuple[int, ...]:
        return elems_of(self.bits)

    def length(self) -> int:
        return self.bits.bit_count()

    def contains(self, other: "Vertex") -> bool:
        return other.bits & ~self.bits == 0

    def label(self) -> str:
        return subset_label(self.elements())

    def __repr__(self):
        return f"V({self.label()};{self.n})"


@dataclass(frozen=True)
class Edge:
    """Oriented edge (lo, hi) with hi = lo + one extra direction."""

    lo: Vertex
    hi: Vertex

    def __post_init__(self):
        if self.lo.n != self.hi.n:
            raise HypercubeError("edge endpoints live in different cubes")
        diff = self.hi.bits & ~self.lo.bits
        if self.lo.bits & ~self.hi.bits or diff.bit_count() != 1:
            raise HypercubeError(f"not an edge: {self.lo} -> {self.hi}")

    def direction(self) -> int:
        return elems_of(self.hi.bits & ~self.lo.bits)[0]


@dataclass(frozen=True)
class KCube:
    """A k-cube (lo, hi) with lo inside hi and |hi - lo| = k; k=2 is a face."""

    lo: Vertex
    hi: Vertex

    def __post_init__(self):
        if self.lo.n != self.hi.n or self.lo.bits & ~self.hi.bits:
            raise HypercubeError(f"not a k-cube: {self.lo} -> {self.hi}")

    @property
    def k(self) -> int:
        return (self.hi.bits & ~self.lo.bits).bit_count()


def vertices(n: int) -> list[Vertex]:
    """All 2^n subsets in lexicographic (binary code) order; refines inclusion."""
    _check_dim(n)
    return [Vertex(b, n) for b in range(1 << n)]


def edges(n: int) -> list[Edge]:
    out = []
    for hi in range(1 << n):
        for i in range(n):
            if hi & (1 << i):
                out.append(Edge(Vertex(hi & ~(1 << i), n), Vertex(hi, n)))
    return out


def kcubes(n: int, k: int) -> list[KCube]:
    if not 0 <= k <= n:
        raise HypercubeError(f"need 0 <= k <= n, got k={k}, n={n}")
    out = []
    for hi in range(1 << n):
        sub = hi
        while True:  # enumerate submasks of hi
            if (hi & ~sub).bit_count() == k:
                out.append(KCube(Vertex(sub, n), Vertex(hi, n)))
            if sub == 0:
                break
            sub = (sub - 1) & hi
    return out


def count_kcubes(n: int, k: int) -> int:
    """Number of k-cubes in the n-cube: C(n,k) * 2^(n-k)."""
    if not 0 <= k <= n:
        raise HypercubeError(f"need 0 <= k <= n, got k={k}, n={n}")
    return comb(n, k) * (1 << (n - k))


def classify_edge_for_induction(e: Edge, top: int) -> str:
    """Classify an edge relative to the maximal direction `top`.

    old: top absent entirely; copy_of_old: top in both endpoints;
    new: top is the edge direction.
    """
    tbit = 1 << (top - 1)
    if not e.hi.bits & tbit:
        return "old"
    if e.lo.bits & tbit:
        return "copy_of_old"
    return "new"


def boolean_ring_ops(a: Vertex, b: Vertex) -> tuple[Vertex, Vertex, int]:
    """Boolean ring of P(n): (symmetric difference, intersection, distance)."""
    if a.n != b.n:
        raise HypercubeError("operands of different ambient dimension")
    s = Vertex(a.bits ^ b.bits, a.n)
    p = Vertex(a.bits & b.bits, a.n)
    return s, p, s.length()


def alpha_stair(N, alpha) -> list[frozenset[int]]:
    """Raw alpha-stair over the ordered index set N: S_i = {a_i} | (alpha - {a_1..a_{i-1}})."""
    N = tuple(sorted(N))
    alpha = frozenset(alpha)
    if not alpha <= set(N):
        raise HypercubeError(f"alpha {set(alpha)} not a subset of N {set(N)}")
    stairs = []
    for i, a_i in enumerate(N):
        stairs.append(frozenset({a_i}) | (alpha - set(N[:i])))
    return stairs


def alpha_stair_normalized(N, alpha) -> list[frozenset[int]]:
    """Alpha-stair with factors cancelled whenever S_{k+1} is inside S_k."""
    raw = alpha_stair(N, alpha)
    out: list[frozenset[int]] = []
    for s in raw:
        if out and s <= out[-1]:
            continue
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# two-typed hypercube P(n-bar), vertices are pairs (plain, primed)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class TwoTypedVertex:
    """Vertex of P(n union n'): a plain subset and a primed subset of {1..n}."""

    plain: int
    primed: int
    n: int

    @classmethod
    def from_sets(cls, plain, primed, n: int) -> "TwoTypedVertex":
        return cls(mask_of(plain), mask_of(primed), n)

    def label(self) -> str:
        parts = [str(e) for e in elems_of(self.plain)]
        parts += [f"{e}'" for e in elems_of(self.primed)]
        return "".join(parts) if parts else "0"

    def size(self) -> int:
        return self.plain.bit_count() + self.primed.bit_count()

    def __repr__(self):
        return f"TT({self.label()};{self.n})"


def tt_vertices(n: int) -> list[TwoTypedVertex]:
    _check_dim(2 * n)
    return [TwoTypedVertex(p, q, n) for q in range(1 << n) for p in range(1 << n)]


def tt_edges(n: int) -> list[tuple[TwoTypedVertex, TwoTypedVertex]]:
    out = []
    for hi in tt_vertices(n):
        for i in range(n):
            bit = 1 << i
            if hi.plain & bit:
                out.append((TwoTypedVertex(hi.plain & ~bit, hi.primed, n), hi))
            if hi.primed & bit:
                out.append((TwoTypedVertex(hi.plain, hi.primed & ~bit, n), hi))
    return out


def tt_faces(n: int) -> list[tuple[TwoTypedVertex, TwoTypedVertex]]:
    out = []
    for lo in tt_vertices(n):
        for hi in tt_vertices(n):
            if lo.plain & ~hi.plain or lo.primed & ~hi.primed:
                continue
            added = (hi.plain & ~lo.plain).bit_count() + (hi.primed & ~lo.primed).bit_count()
            if added == 2:
                out.append((lo, hi))
    return out


def classify_two_typed(v: TwoTypedVertex) -> str:
    """N-vertex / N'-vertex / saturated / generic (empty set counts as N-vertex)."""
    if v.primed == 0:
        return "N-vertex"
    if v.plain == 0:
        return "N'-vertex"
    if v.plain == v.primed:
        return "saturated"
    return "generic"


def tt_edge_kind(lo: TwoTypedVertex, hi: TwoTypedVertex) -> str:
    """first kind = added element is plain, second kind = primed."""
    if hi.plain & ~lo.plain:
        return "first"
    return "second"


def tt_face_type(lo: TwoTypedVertex, hi: TwoTypedVertex) -> str:
    """(a) both directions plain, (b) both primed, (c) mixed."""
    np_ = (hi.plain & ~lo.plain).bit_count()
    nq = (hi.primed & ~lo.primed).bit_count()
    if np_ + nq != 2:
        raise HypercubeError("not a face")
    if nq == 0:
        return "a"
    if np_ == 0:
        return "b"
    return "c"
