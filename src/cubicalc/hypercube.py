"""Combinatorics of the natural n-hypercube P(n) and the two-typed 2n-hypercube.

A vertex is the frozenset of its directions.  A vertex of P(n) is a subset
of {1..n}; a vertex of the two-typed cube P(n-bar) = P(n u n') is a set of
signed directions, a plain direction k stored as k and a primed one k' as -k
({2, -1} is the vertex 21').  The binary-code order of P(n) (bit i-1 <->
element i) refines inclusion.
"""
from __future__ import annotations

from math import comb

MAX_DIM = 16


class HypercubeError(ValueError):
    pass


def _check_dim(n: int) -> None:
    if not 0 <= n <= MAX_DIM:
        raise HypercubeError(f"dimension must be in 0..{MAX_DIM}, got {n}")


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
    """Concatenated digit string, "0" for the empty set ("12" for {1,2}).
    Primed directions (stored as -k) follow the plain ones: "21'" for
    {2, -1}."""
    elems = sorted(elems)
    if not elems:
        return "0"
    parts = [str(e) for e in elems if e >= 0]
    parts += [f"{-e}'" for e in reversed(elems) if e < 0]
    return ("" if -10 < elems[0] and elems[-1] < 10 else ",").join(parts)


def direction_key(d: int) -> tuple:
    """Direction order 1, 1', 2, 2', ... (a primed k' is stored as -k)."""
    return (abs(d), d < 0)


def vertices(n: int) -> list[frozenset]:
    """All 2^n subsets in lexicographic (binary code) order; refines inclusion."""
    _check_dim(n)
    return subsets(range(1, n + 1), binary=True)


def edges(n: int) -> list[tuple[frozenset, frozenset]]:
    """Oriented edges (lo, hi), hi = lo + one direction: by hi in vertex
    order, then by direction."""
    return [(hi - {d}, hi) for hi in vertices(n) for d in sorted(hi)]


def kcubes(verts, k: int) -> list[tuple[frozenset, frozenset]]:
    """The k-cubes (lo, hi) among `verts`, lo inside hi with |hi - lo| = k
    (k = 1 gives the edges, k = 2 the faces): lo-major, then hi, both in the
    order of `verts`."""
    return [(lo, hi) for lo in verts for hi in verts
            if len(hi) - len(lo) == k and lo <= hi]


def count_kcubes(n: int, k: int) -> int:
    """Number of k-cubes in the n-cube: C(n,k) * 2^(n-k)."""
    if not 0 <= k <= n:
        raise HypercubeError(f"need 0 <= k <= n, got k={k}, n={n}")
    return comb(n, k) * (1 << (n - k))


def classify_edge_for_induction(e, top: int) -> str:
    """Classify an edge (lo, hi) relative to the maximal direction `top`.

    old: top absent entirely; copy_of_old: top in both endpoints;
    new: top is the edge direction.
    """
    lo, hi = e
    if top not in hi:
        return "old"
    if top in lo:
        return "copy_of_old"
    return "new"


def boolean_ring_ops(a: frozenset, b: frozenset) -> tuple:
    """Boolean ring of P(n): (symmetric difference, intersection, distance)."""
    s = a ^ b
    return s, a & b, len(s)


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
# two-typed hypercube P(n-bar): plain directions k, primed directions -k
# ---------------------------------------------------------------------------


def tt_vertices(n: int) -> list[frozenset]:
    """All 4^n vertices in binary-code order, plain bits below primed ones."""
    _check_dim(2 * n)
    plain = vertices(n)
    return [p | {-d for d in q} for q in plain for p in plain]


def tt_edges(n: int) -> list[tuple[frozenset, frozenset]]:
    """Edges (lo, hi): by hi in vertex order, then by direction_key."""
    return [(hi - {d}, hi) for hi in tt_vertices(n)
            for d in sorted(hi, key=direction_key)]


def tt_faces(n: int) -> list[tuple[frozenset, frozenset]]:
    return kcubes(tt_vertices(n), 2)


def classify_two_typed(v: frozenset) -> str:
    """N-vertex / N'-vertex / saturated / generic (empty set counts as N-vertex)."""
    plain = {d for d in v if d > 0}
    primed = {-d for d in v if d < 0}
    if not primed:
        return "N-vertex"
    if not plain:
        return "N'-vertex"
    if plain == primed:
        return "saturated"
    return "generic"


def tt_edge_kind(lo: frozenset, hi: frozenset) -> str:
    """first kind = added element is plain, second kind = primed."""
    return "first" if any(d > 0 for d in hi - lo) else "second"


def tt_face_type(lo: frozenset, hi: frozenset) -> str:
    """(a) both directions plain, (b) both primed, (c) mixed."""
    added = hi - lo
    if len(added) != 2:
        raise HypercubeError("not a face")
    plain = sum(d > 0 for d in added)
    return {2: "a", 0: "b", 1: "c"}[plain]
