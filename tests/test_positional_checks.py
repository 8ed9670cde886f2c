"""The positional checkers of `cubicalc.checks` against the dict-based
reference checkers of `reference_checks`: the same seed must give the same
points and the same reports, witnesses included."""
import random
from fractions import Fraction

import pytest

from cubicalc.checks import (_edge_sort_key, _sample_tuples, check_edge_category,
                             check_face, check_morphism, generic_quad_param,
                             reports_ok)
from cubicalc.constructions import (anchor_maps, finite_part, gfull, gsy,
                                    gsy_scalar_action, pair_groupoid,
                                    scaled_action, scaleoid, tangent)
from cubicalc.laws import check_finite_law, finite_law_from_map
from cubicalc.polymap import PolyMap
from cubicalc.presentation import attach_generic_params
from cubicalc.rings import QQ, ring_from_spec
from cubicalc.twotyped import g_overline
from reference_checks import (reference_check_edge_category,
                              reference_check_face, reference_check_finite_law,
                              reference_check_morphism, reference_sample_tuples,
                              reference_schema_sample)

F = Fraction
fs = frozenset
ZP = ring_from_spec("mod:2147483647")


def _json(reports):
    return [r.to_json() for r in reports]


def _assert_same(p, seed, samples, edges=True, faces=True):
    """Every edge and face of p, checked by both checkers."""
    if edges:
        for key in sorted(p.edges, key=_edge_sort_key):
            got = _json(check_edge_category(p, key, seed=seed, samples=samples))
            want = _json(reference_check_edge_category(p, key, seed=seed,
                                                       samples=samples))
            assert got == want, key
    if faces:
        for face in sorted(p.faces, key=_edge_sort_key):
            got = _json(check_face(p, face, seed=seed, samples=samples))
            want = _json(reference_check_face(p, face, seed=seed, samples=samples))
            assert got == want, face


def test_samplers_draw_the_reference_points():
    """Schema points and tagged tuples equal the dict samplers' points, listed
    in schema order: unit coordinates, box rejection and empty copies."""
    box = (F(-1), F(1))
    for p in (gsy(2, [F(1), F(-2)], box=box), gsy(1, [F(1, 2)], box=box),
              finite_part(2, "gfull"), scaled_action(2, 1), pair_groupoid(2, 0)):
        for key in sorted(p.edges, key=_edge_sort_key):
            e = attach_generic_params(p.edges[key])
            for schema in (e.dom, e.cod):
                got = schema.sample(random.Random(1), 6)
                want = reference_schema_sample(schema, random.Random(1), 6)
                assert got == [[pt[l] for l in schema.labels] for pt in want]
            for param, tags in ((e.pair_param, "ab"), (e.triple_param, "abc")):
                got = _sample_tuples(param, e.dom, tags, random.Random(2), 6)
                want = reference_sample_tuples(param, e.dom, tags,
                                               random.Random(2), 6)
                assert got == [[tup[t][l] for t in tags for l in e.dom.labels]
                               for tup in want]
        for face in p.faces:
            q = p.quad_params.get(face) or generic_quad_param(p, face)
            top = p.face_frame(face)[3].dom
            got = _sample_tuples(q, top, "abcd", random.Random(3), 4)
            want = reference_sample_tuples(q, top, "abcd", random.Random(3), 4)
            assert got == [[tup[t][l] for t in "abcd" for l in top.labels]
                           for tup in want]


def _c04(ring):
    one, two, three = ring.from_int(1), ring.from_int(2), ring.from_int(3)
    zero = ring.zero()
    out = []
    for n in (1, 2):
        units = [three, two][:n]
        out += [pair_groupoid(n, 1, ring), scaled_action(n, 1, ring),
                gsy(n, units, ring=ring), gsy(n, [zero] * n, ring=ring),
                gsy(n, [one, zero][:n], ring=ring), gfull(n, ring=ring),
                scaleoid(n, ring), tangent(n, ring=ring)]
    out.append(g_overline(1, ring=ring))
    return out


@pytest.mark.parametrize("ring", [QQ, ZP], ids=["QQ", "Zp"])
def test_c04_constructions_match_reference(ring):
    for k, p in enumerate(_c04(ring)):
        _assert_same(p, seed=40 + k, samples=3)


def test_larger_cubes_match_reference():
    # the 3-cube and the two-typed 4-cube, on a few edges and faces each
    for p in (gsy(3, [F(1), F(2), F(-1)]), g_overline(2)):
        for key in sorted(p.edges, key=_edge_sort_key)[::5]:
            assert _json(check_edge_category(p, key, seed=7, samples=2)) == \
                _json(reference_check_edge_category(p, key, seed=7, samples=2))
        for face in sorted(p.faces, key=_edge_sort_key)[::5]:
            assert _json(check_face(p, face, seed=8, samples=2)) == \
                _json(reference_check_face(p, face, seed=8, samples=2))


def test_box_constrained_gsy_matches_reference():
    for n, t in ((1, [F(1, 2)]), (2, [F(1), F(-2)])):
        _assert_same(gsy(n, t, box=(F(-1), F(1))), seed=5, samples=6)


@pytest.mark.parametrize("vdim", [0, 2])
def test_vdim_matches_reference(vdim):
    for p in (pair_groupoid(2, vdim), gsy(2, [F(2), F(1)], vdim),
              tangent(2, vdim), scaled_action(2, vdim), gfull(2, vdim)):
        _assert_same(p, seed=3, samples=3)


def _corrupt(p, key, which):
    e = p.edges[key]
    m = getattr(e, which)
    comps = (m.comps[0] + m.var(m.in_labels[-1]),) + m.comps[1:]
    setattr(e, which, PolyMap(m.ring, m.in_labels, comps, m.out_labels))


@pytest.mark.parametrize("which", ["compose", "target", "unit", "inverse"])
def test_planted_corruption_matches_reference(which):
    key = (fs({1}), fs({1, 2}))
    p = gsy(2, [F(1), F(3)])
    _corrupt(p, key, which)
    got = check_edge_category(p, key, seed=11, samples=8)
    assert any(not r.ok and r.witness for r in got)
    assert _json(got) == _json(reference_check_edge_category(p, key, seed=11,
                                                             samples=8))
    face = (fs(), fs({1, 2}))
    got = check_face(p, face, seed=12, samples=8)
    assert _json(got) == _json(reference_check_face(p, face, seed=12, samples=8))


def _reversed_labels(p):
    """p with every edge map taking its inputs and listing its outputs in
    reverse order, so that every gather and permutation is not the identity."""
    for e in p.edges.values():
        for which in ("source", "target", "unit", "compose", "inverse"):
            m = getattr(e, which)
            if m is None:
                continue
            m = m.reorder_inputs(m.in_labels[::-1])
            setattr(e, which, m.restrict_outputs(m.out_labels[::-1]))
    return p


def test_permuted_in_and_out_labels_match_reference():
    for p in (pair_groupoid(2, 1), gsy(2, [F(2), F(1, 3)]), scaled_action(2, 1)):
        p = _reversed_labels(p)
        e = p.edges[(fs({1}), fs({1, 2}))]
        assert e.target.in_labels != e.dom.labels
        assert e.target.out_labels != e.cod.labels
        assert e.compose.out_labels != e.dom.labels
        _assert_same(p, seed=21, samples=4)
    p = _reversed_labels(gsy(2, [F(1), F(3)]))
    _corrupt(p, (fs({1}), fs({1, 2})), "compose")
    _assert_same(p, seed=22, samples=6)
    assert any(not r.ok for r in check_edge_category(
        p, (fs({1}), fs({1, 2})), seed=22, samples=6))


def test_morphisms_match_reference():
    t, s = [F(1), F(3)], [F(2), F(-1)]
    src, dst, maps = gsy_scalar_action(2, s, t)
    cases = [(src, dst, maps)]
    g = gsy(2, t)
    cases.append((g, pair_groupoid(2, 1), anchor_maps(g, 1)))
    bad = dict(anchor_maps(g, 1))
    m = bad[fs({1, 2})]
    bad[fs({1, 2})] = PolyMap(QQ, m.in_labels, (m.comps[0] + m.var(m.in_labels[0]),)
                              + m.comps[1:], m.out_labels)
    cases.append((g, pair_groupoid(2, 1), bad))
    zsrc, zdst, zmaps = gsy_scalar_action(2, [ZP.from_int(2), ZP.from_int(5)],
                                          [ZP.one(), ZP.from_int(3)], ring=ZP)
    cases.append((zsrc, zdst, zmaps))
    for src, dst, maps in cases:
        got = check_morphism(src, dst, maps, seed=9, samples=5)
        assert _json(got) == _json(reference_check_morphism(src, dst, maps,
                                                            seed=9, samples=5))
    assert any(not r.ok for r in check_morphism(*cases[2], seed=9, samples=5))


def test_finite_law_matches_reference():
    for f, in_dim in ((lambda p: (abs(p[0]),), 1),
                      (lambda p: (p[0] * p[1] - abs(p[1]),), 2)):
        plaw = finite_law_from_map(f, 2, [F(1), F(2)])
        got = check_finite_law(plaw, in_dim=in_dim, seed=4, samples=5)
        assert _json(got) == _json(reference_check_finite_law(
            plaw, in_dim=in_dim, seed=4, samples=5))


def test_plan_rejects_outputs_outside_the_target_schema():
    from cubicalc.checks import _plan
    from cubicalc.polymap import PolyError

    e = pair_groupoid(1, 1).edges[(fs(), fs({1}))]
    dom, cod = e.dom.labels, e.cod.labels
    assert _plan(e.source, dom, cod)([F(2), F(5)]) == [F(2)]
    with pytest.raises(PolyError, match="do not match"):
        _plan(e.source, dom, dom)
    with pytest.raises(PolyError, match="do not match"):
        _plan(PolyMap(QQ, dom, e.source.comps), dom, cod)


def test_plan_permutes_outputs_and_rejects_other_orders():
    from cubicalc.checks import _plan
    from cubicalc.polymap import Poly, PolyError

    x = Poly.coords(QQ, ("a", "b"))
    m = PolyMap(QQ, ("a", "b"), (x("b"), Poly.const(QQ, 2, 3),
                                 x("a") * x("b")), ("p", "q", "r"))
    layout = ("z", "b", "a")
    assert _plan(m, layout, ("r", "p", "q"))([F(9), F(2), F(1, 3)]) == [
        F(2, 3), F(2), F(3)]
    for order in (("p", "q"), ("p", "q", "s"), ("p", "p", "q"),
                  ("p", "q", "r", "r")):
        with pytest.raises(PolyError, match="do not match"):
            _plan(m, layout, order)


def test_finite_law_builds_one_presentation_when_dimensions_agree(monkeypatch):
    from cubicalc import laws

    builds = []
    gsy_ = laws.gsy

    def counted(*args, **kwargs):
        builds.append(kwargs.get("vdim"))
        return gsy_(*args, **kwargs)
    monkeypatch.setattr(laws, "gsy", counted)
    plaw = finite_law_from_map(lambda x: (x[0] ** 2,), 2, [2, 3])
    assert reports_ok(check_finite_law(plaw, in_dim=1, samples=2))
    assert builds == [1]
    builds.clear()
    assert reports_ok(check_finite_law(plaw, in_dim=2, samples=2))
    assert builds == [2, 1]
