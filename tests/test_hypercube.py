from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cubicalc.hypercube import (Edge, HypercubeError, Vertex, alpha_stair,
                                alpha_stair_normalized, boolean_ring_ops,
                                classify_edge_for_induction, classify_two_typed,
                                count_kcubes, edges, kcubes, tt_edge_kind,
                                tt_edges, tt_face_type, tt_faces, tt_vertices,
                                TwoTypedVertex, subsets, vertices)


def V(elems, n):
    return Vertex.from_set(elems, n)


def test_vertices_lex_order():
    vs = vertices(2)
    assert [v.elements() for v in vs] == [(), (1,), (2,), (1, 2)]
    assert [v.elements() for v in vertices(0)] == [()]
    vs3 = vertices(3)
    assert vs3[4].elements() == (3,)


def test_lex_order_refines_inclusion():
    for n in range(7):
        vs = vertices(n)
        for i, a in enumerate(vs):
            for b in vs[i + 1:]:
                assert not b.contains(a) or a == b or a.bits < b.bits
                if b.contains(a):
                    assert a.bits <= b.bits


def test_count_kcubes_tesseract():
    assert count_kcubes(4, 0) == 16
    assert count_kcubes(4, 1) == 32
    assert count_kcubes(4, 2) == 24
    assert count_kcubes(4, 3) == 8
    for n in range(7):
        assert count_kcubes(n, n) == 1


def test_count_kcubes_matches_enumeration():
    for n in range(7):
        for k in range(n + 1):
            assert count_kcubes(n, k) == len(kcubes(n, k))
    with pytest.raises(HypercubeError):
        count_kcubes(3, 4)


def test_classify_edge_for_induction():
    e = Edge(V([], 2), V([1], 2))
    assert classify_edge_for_induction(e, top=2) == "old"
    e = Edge(V([3], 3), V([1, 3], 3))
    assert classify_edge_for_induction(e, top=3) == "copy_of_old"
    e = Edge(V([1], 3), V([1, 3], 3))
    assert classify_edge_for_induction(e, top=3) == "new"


def test_boolean_ring_examples():
    a = V([1, 2], 3)
    s, p, d = boolean_ring_ops(a, a)
    assert s.elements() == () and p == a and d == 0
    s, _, _ = boolean_ring_ops(V([1, 2], 3), V([2, 3], 3))
    assert s.elements() == (1, 3)
    _, _, d = boolean_ring_ops(V([1], 3), V([2, 3], 3))
    assert d == 3


@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_boolean_ring_axioms(a, b, c):
    n = 4
    A, B, C = Vertex(a, n), Vertex(b, n), Vertex(c, n)

    def add(x, y):
        return boolean_ring_ops(x, y)[0]

    def mul(x, y):
        return boolean_ring_ops(x, y)[1]

    assert add(A, add(B, C)) == add(add(A, B), C)
    assert mul(A, mul(B, C)) == mul(mul(A, B), C)
    assert mul(A, add(B, C)) == add(mul(A, B), mul(A, C))
    assert mul(A, A) == A
    assert add(A, A).bits == 0


def test_alpha_stair_examples():
    assert alpha_stair((1, 2), {2}) == [frozenset({1, 2}), frozenset({2})]
    assert alpha_stair_normalized((1, 2), {2}) == [frozenset({1, 2})]
    assert alpha_stair((1, 2, 3), set()) == [frozenset({1}), frozenset({2}),
                                             frozenset({3})]
    # solid stair: everything collapses into the first factor
    assert alpha_stair_normalized((1, 2, 3), {1, 2, 3}) == [frozenset({1, 2, 3})]


def test_alpha_stair_drop_first_element_invariance():
    for n in range(1, 5):
        N = tuple(range(1, n + 1))
        for m in range(1 << n):
            alpha = frozenset(i + 1 for i in range(n) if m & (1 << i))
            if 1 in alpha:
                assert alpha_stair(N, alpha) == alpha_stair(N, alpha - {1})


def test_two_typed_counts_n2():
    assert len(tt_vertices(2)) == 16
    es = tt_edges(2)
    assert len(es) == 32
    kinds = [tt_edge_kind(lo, hi) for lo, hi in es]
    assert kinds.count("first") == 16 and kinds.count("second") == 16
    fs = tt_faces(2)
    assert len(fs) == 24
    types = [tt_face_type(lo, hi) for lo, hi in fs]
    assert types.count("a") == 4 and types.count("b") == 4 and types.count("c") == 16


def test_two_typed_classification():
    assert classify_two_typed(TwoTypedVertex.from_sets([1, 2], [1, 2], 2)) == "saturated"
    assert classify_two_typed(TwoTypedVertex.from_sets([1], [], 2)) == "N-vertex"
    assert classify_two_typed(TwoTypedVertex.from_sets([], [2], 2)) == "N'-vertex"
    assert classify_two_typed(TwoTypedVertex.from_sets([1], [2], 2)) == "generic"


@given(st.sets(st.integers(1, 9), max_size=5))
def test_subsets_orders(elems):
    base = sorted(elems)
    graded = [frozenset(c) for k in range(len(base) + 1)
              for c in combinations(base, k)]
    assert subsets(elems) == graded
    # binary code: bit i of the index <-> the i-th smallest element
    assert subsets(elems, binary=True) == [
        frozenset(e for i, e in enumerate(base) if m >> i & 1)
        for m in range(1 << len(base))]
    assert subsets(range(1, 4), binary=True) == [
        frozenset(v.elements()) for v in vertices(3)]
