from fractions import Fraction

import pytest

from cubicalc.checks import check_presentation, first_failure, reports_ok
from cubicalc.derive import slab, tlab, vlab
from cubicalc.twotyped import TwoTypedError, g_overline, tt_schema_labels

from reference_checks import eval_labeled

F = Fraction


def TT(plain, primed):
    """The vertex with these plain and primed directions (k' is -k)."""
    return frozenset(plain) | {-k for k in primed}


def test_vertex_sets_n1():
    p = g_overline(1)
    want = {
        TT([], []): (vlab((), 0), tlab({1})),
        TT([1], []): (vlab((), 0), vlab({1}, 0), tlab({1})),
        TT([], [1]): (vlab((), 0), slab({1}), tlab({1})),
        TT([1], [1]): (vlab((), 0), vlab({1}, 0), slab({1}), tlab({1})),
    }
    for v, labels in want.items():
        assert p.schemas[v].labels == labels


def test_top_vertex_doubled_scales_n2():
    labels = tt_schema_labels(TT([1, 2], [1, 2]), 2, 1)
    names = [l.display() for l in labels]
    assert names == ["v0", "v1", "v2", "v12", "s1", "s2", "s12",
                     "t1", "t2", "t12"]


def test_second_kind_edge_is_scale_action():
    p = g_overline(1)
    e = p.edges[(TT([], []), TT([], [1]))]
    pt = {vlab((), 0): F(3), slab({1}): F(2), tlab({1}): F(5)}
    assert eval_labeled(e.source, pt) == {vlab((), 0): F(3), tlab({1}): F(10)}
    assert eval_labeled(e.target, pt) == {vlab((), 0): F(3), tlab({1}): F(5)}
    assert e.inverse is None


def test_homogeneity_edge_action_on_partner():
    p = g_overline(1)
    e = p.edges[(TT([1], []), TT([1], [1]))]
    pt = {vlab((), 0): F(3), vlab({1}, 0): F(7), slab({1}): F(2), tlab({1}): F(5)}
    # source absorbs s into t, target lets s act on the partner block
    assert eval_labeled(e.source, pt) == {vlab((), 0): F(3), vlab({1}, 0): F(7),
                                          tlab({1}): F(10)}
    assert eval_labeled(e.target, pt) == {vlab((), 0): F(3), vlab({1}, 0): F(14),
                                          tlab({1}): F(5)}


def test_n_prime_subcat_sources_n2():
    p = g_overline(2)
    e = p.edges[(TT([], [2]), TT([], [1, 2]))]
    pt = {vlab((), 0): F(1), slab({1}): F(2), slab({2}): F(3),
          tlab({1}): F(5), tlab({2}): F(7)}
    assert eval_labeled(e.source, pt) == {vlab((), 0): F(1), tlab({1}): F(10),
                                          slab({2}): F(3), tlab({2}): F(7)}
    assert eval_labeled(e.target, pt) == {vlab((), 0): F(1), tlab({1}): F(5),
                                          slab({2}): F(3), tlab({2}): F(7)}


def test_n_vertices_carry_gfull():
    """The N-vertex subcube of G^{n-bar} is the full cubic groupoid: the same
    vertex sets and the same edge sources, targets, units, compositions and
    inverses, for n = 1, 2 and vdim 0..2."""
    from cubicalc.constructions import gfull

    for n in (1, 2):
        for vdim in (0, 1, 2):
            p = g_overline(n, vdim)
            g = gfull(n, vdim)
            for alpha in g.vertices:
                v = TT(sorted(alpha), [])
                assert p.schemas[v].labels == g.schemas[alpha].labels
            for (lo, hi), e in g.edges.items():
                e2 = p.edges[(TT(sorted(lo), []), TT(sorted(hi), []))]
                for name in ("source", "target", "unit", "compose",
                             "inverse"):
                    assert getattr(e2, name).equals(getattr(e, name)), \
                        (n, vdim, lo, hi, name)


def test_axioms_n1():
    p = g_overline(1)
    reports = check_presentation(p, seed=11, samples=30)
    assert reports_ok(reports), first_failure(reports).to_json()


def test_axioms_n2_vdim2_spot():
    p = g_overline(2, vdim=2)
    # spot-check a mixed face and a saturated-edge category at vdim 2
    from cubicalc.checks import check_edge_category, check_face

    lo, hi = TT([1], [1]), TT([1, 2], [1])
    reports = check_edge_category(p, (lo, hi), seed=12, samples=10)
    assert reports_ok(reports), first_failure(reports).to_json()
    face = (TT([], []), TT([1], [2]))
    reports = check_face(p, face, seed=12, samples=8)
    assert reports_ok(reports), first_failure(reports).to_json()


def test_n3_unsupported():
    with pytest.raises(TwoTypedError):
        g_overline(3)
