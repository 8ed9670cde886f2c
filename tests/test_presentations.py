import random
from fractions import Fraction

import pytest

from cubicalc.checks import (check_edge_category, check_face, check_morphism,
                             check_presentation, first_failure,
                             generic_quad_param, reports_ok)
from cubicalc.constructions import (ConstructionError, anchor_maps, gfull,
                                    gsy, pair_groupoid, scaled_action, tangent)
from cubicalc.derive import vlab
from cubicalc.hypercube import subsets
from cubicalc.presentation import SamplingError, sample
from cubicalc.polymap import Poly, PolyMap
from cubicalc.rings import QQ, IntegersMod

from reference_checks import eval_labeled

F = Fraction
fs = frozenset


def test_pair_groupoid_composition():
    p = pair_groupoid(1, 1)
    e = p.edges[(fs(), fs({1}))]
    # arrows x -> y -> z compose to x -> z under the global convention
    x, y, z = F(1), F(2), F(3)
    a = {vlab((), 0): y, vlab({1}, 0): z}
    b = {vlab((), 0): x, vlab({1}, 0): y}
    c = eval_labeled(e.compose, {("a", l): a[l] for l in a} | {("b", l): b[l] for l in b})
    assert c == {vlab((), 0): x, vlab({1}, 0): z}


def test_pair_groupoid_projections_n2():
    p = pair_groupoid(2, 1)
    e = p.edges[(fs({2}), fs({1, 2}))]
    pt = {vlab((), 0): F(0), vlab({1}, 0): F(1), vlab({2}, 0): F(2),
          vlab({1, 2}, 0): F(12)}
    tgt = eval_labeled(e.target, pt)
    assert tgt == {vlab((), 0): F(1), vlab({2}, 0): F(12)}


def test_axiom_suites_small():
    for pres in (pair_groupoid(2, 2), scaled_action(2, 2),
                 gsy(2, [F(1), F(3)], vdim=2), tangent(2)):
        reports = check_presentation(pres, seed=2, samples=15)
        assert reports_ok(reports), first_failure(reports).to_json()


def test_gsy_constrained_box_sampling():
    p = gsy(1, [F(1)], vdim=1, box=(F(0), F(1)))
    sch = p.schemas[fs({1})]
    pts = [dict(zip(sch.labels, pt)) for pt in sch.sample(random.Random(4), 20)]
    for pt in pts:
        v0 = pt[vlab((), 0)]
        v1 = pt[vlab({1}, 0)]
        assert 0 <= v0 <= 1 and 0 <= v0 + v1 <= 1


def test_gsy_refuses_a_box_without_meaning():
    # residues have no order, so a box over Z/m would compare their ints
    with pytest.raises(ConstructionError, match="ordered"):
        gsy(1, [3], ring=IntegersMod(7), box=(1, 3))
    # an empty box would reject every draw until the sampler gives up
    with pytest.raises(ConstructionError, match="empty box"):
        gsy(1, [F(1)], box=(F(1), F(0)))
    assert gsy(1, [F(1)], box=(F(1), F(1))).schemas[fs()].constraints


def test_schema_draws_are_canonical_pairs_of_sample():
    for p in (gsy(2, [F(1), F(-1, 2)], box=(F(-1), F(1))),
              gsy(2, [3, 1], ring=IntegersMod(6))):
        sch = p.schemas[fs({1, 2})]
        drawn = sch.draw(random.Random(5), 8)
        assert [[p.ring.join(*v) for v in pt] for pt in drawn] == \
            sch.sample(random.Random(5), 8)
        for pt in drawn:
            assert sch.satisfies(pt)
            assert [p.ring.split(p.ring.join(*v)) for v in pt] == pt


def test_schema_sampling_deterministic():
    p = gsy(2, [F(1), F(2)])
    sch = p.schemas[fs({1, 2})]
    assert sample(sch, seed=9, count=5) == sample(sch, seed=9, count=5)
    assert sample(sch, seed=9, count=5) != sample(sch, seed=10, count=5)


def test_sampling_exhaustion_reports():
    # an unsatisfiable box: v0 in [2,3] while v0 must also be in [0,1]
    from cubicalc.presentation import BoxConstraint, CoordSchema

    labels = (vlab((), 0),)
    expr = PolyMap.identity(QQ, labels)
    sch = CoordSchema(QQ, labels, (BoxConstraint(expr, F(0), F(1)),
                                   BoxConstraint(expr, F(2), F(3))))
    with pytest.raises(SamplingError):
        sch.sample(random.Random(0), 1, max_tries=50)


def test_transpose_structural():
    p = pair_groupoid(2, 1)
    tau = {1: 2, 2: 1}
    q = p.transpose(tau)
    assert q.schemas[fs({1})].labels == p.schemas[fs({2})].labels
    r = q.transpose(tau)
    for v in p.vertices:
        assert r.schemas[v].labels == p.schemas[v].labels


def test_transpose_with_relabelling_is_isomorphism():
    """PG^2 is edge-symmetric: the coordinate swap intertwines the structure
    with the transposed presentation."""
    p = pair_groupoid(2, 1)
    tau = {1: 2, 2: 1}
    q = p.transpose(tau)
    maps = {}
    for a in p.vertices:
        labels = p.schemas[a].labels
        ta = fs(tau[e] for e in a)
        out_labels = p.schemas[ta].labels
        n = len(labels)
        exprs = {}
        for l in out_labels:
            pre = vlab(fs(tau[e] for e in l.index), l.comp)
            exprs[l] = Poly.var(QQ, n, labels.index(pre))
        maps[a] = PolyMap.from_label_exprs(QQ, labels, exprs)
    reports = check_morphism(p, q, maps, seed=3, samples=25)
    assert reports_ok(reports), first_failure(reports).to_json()


def test_gamma_opposite_involution_and_axioms():
    p = gsy(2, [F(2), F(3)])
    q = p.gamma_opposite({1})
    r = q.gamma_opposite({1})
    for key in p.edges:
        assert r.edges[key].source.equals(p.edges[key].source)
        assert r.edges[key].target.equals(p.edges[key].target)
        assert r.edges[key].compose.equals(p.edges[key].compose)
    assert reports_ok(check_presentation(q, seed=4, samples=10))


def test_gamma_opposite_leaves_its_input_unchanged():
    p = gfull(2)
    before = {key: (e.pair_param, e.triple_param)
              for key, e in p.edges.items()}
    q = p.gamma_opposite({1})
    assert {key: (e.pair_param, e.triple_param)
            for key, e in p.edges.items()} == before
    assert all(q.edges[key].pair_param is not None
               for key, e in p.edges.items() if e.direction == 1)


OPPOSITE_CASES = {
    "gsy(2)": lambda: gsy(2, [F(2), F(3)]),
    "gsy(3)": lambda: gsy(3, [F(2), F(3), F(-1, 2)]),
    "gfull(2)": lambda: gfull(2),
    "pair_groupoid(2)": lambda: pair_groupoid(2),
}


@pytest.mark.parametrize("name", OPPOSITE_CASES)
def test_gamma_opposite_quads_are_composable(name):
    """The quad that check_face draws on, on every face of every
    gamma-opposite, yields composable quadruples: the four source/target
    equations of a *_i b, c *_i d, a *_j c and b *_j d hold as identities."""
    p = OPPOSITE_CASES[name]()
    for gamma in subsets(p.directions):
        if not gamma:
            continue
        q = p.gamma_opposite(gamma)
        for face in q.faces:
            _, _, _, ei_top, _, ej_top = q.face_frame(face)
            quad = q.quad_params.get(face) or generic_quad_param(q, face)
            top = ei_top.dom.labels
            el = {tag: PolyMap(QQ, quad.in_labels, tuple(
                quad.component((tag, l)) for l in top), top) for tag in "abcd"}
            for e, left, right in ((ei_top, "a", "b"), (ei_top, "c", "d"),
                                   (ej_top, "a", "c"), (ej_top, "b", "d")):
                assert e.source.compose(el[left]).equals(
                    e.target.compose(el[right])), (sorted(gamma), face, left)


def test_top_down_projections():
    # PG: the 2^n top-down projections are the coordinate projections
    p = pair_groupoid(2, 1)
    top = fs({1, 2})
    for gamma in (fs(), fs({1}), fs({2}), fs({1, 2})):
        m = p.top_down_projection(top, gamma)
        assert m.comps[0] == Poly.var(QQ, len(p.schemas[top].labels),
                                      p.schemas[top].labels.index(vlab(gamma, 0)))
    # Gsy: xi_gamma is the weighted subset sum
    t = [F(2), F(5)]
    g = gsy(2, t)
    m = g.top_down_projection(top, fs({1, 2}))
    pt = {vlab((), 0): F(1), vlab({1}, 0): F(1), vlab({2}, 0): F(1),
          vlab({1, 2}, 0): F(1)}
    assert eval_labeled(m, pt)[vlab((), 0)] == 1 + 2 + 5 + 10


def test_gsy_anchor_is_morphism_and_pg_closed():
    t = [F(1), F(2)]
    g = gsy(2, t)
    pg = pair_groupoid(2, 1)
    maps = anchor_maps(g, carrier_dim=1)
    reports = check_morphism(g, pg, maps, seed=5, samples=30)
    assert reports_ok(reports), first_failure(reports).to_json()
    # n-fold equivalence relation: the anchor image is closed under the PG
    # compositions (composable image pairs compose to image points)
    from cubicalc.checks import _plan, _sample_tuples, _tuple_layout
    from cubicalc.presentation import attach_generic_params

    rng = random.Random(6)
    for key, e in g.edges.items():
        attach_generic_params(e)
        e_pg = pg.edges[key]
        dom, pg_dom, pg_cod = e.dom.labels, e_pg.dom.labels, e_pg.cod.labels
        k = len(dom)
        f = _plan(maps[e.hi], dom, pg_dom)
        source = _plan(e_pg.source, pg_dom, pg_cod)
        target = _plan(e_pg.target, pg_dom, pg_cod)
        compose = _plan(e.compose, _tuple_layout("ab", e.dom), dom)
        pg_compose = _plan(e_pg.compose, _tuple_layout("ab", e_pg.dom), pg_dom)
        for pair in _sample_tuples(e.pair_param, e.dom, "ab", rng, 10):
            fa, fb = f(pair[:k]), f(pair[k:])
            assert source(fa) == target(fb)  # composable
            assert pg_compose(fa + fb) == f(compose(pair))  # in the image


def test_scaled_action_edge_formulas():
    from cubicalc.derive import slab, tlab

    p = scaled_action(1, 1)
    e = p.edges[(fs(), fs({1}))]
    pt = {vlab((), 0): F(3), slab({1}): F(2), tlab({1}): F(5)}
    assert eval_labeled(e.target, pt) == {vlab((), 0): F(6), tlab({1}): F(5)}
    assert eval_labeled(e.source, pt) == {vlab((), 0): F(3), tlab({1}): F(10)}
    # composition: (v', s', t') after (v, s, t) = (v, s s', t')
    a = {vlab((), 0): F(6), slab({1}): F(7), tlab({1}): F(5)}
    comp = eval_labeled(e.compose, {("a", l): a[l] for l in a}
                                   | {("b", l): pt[l] for l in pt})
    assert comp == {vlab((), 0): F(3), slab({1}): F(14), tlab({1}): F(5)}

    # n = 2, direction 1: the scale t_2 passes through source, target and
    # the composition of a composable pair
    e = scaled_action(2, 1).edges[(fs(), fs({1}))]
    b = {vlab((), 0): F(3), slab({1}): F(2), tlab({1}): F(5), tlab({2}): F(7)}
    assert eval_labeled(e.target, b) == {vlab((), 0): F(6), tlab({1}): F(5),
                                         tlab({2}): F(7)}
    a = {vlab((), 0): F(6), slab({1}): F(5), tlab({1}): F(1), tlab({2}): F(7)}
    assert eval_labeled(e.source, a) == eval_labeled(e.target, b)
    comp = eval_labeled(e.compose, {("a", l): a[l] for l in a}
                                   | {("b", l): b[l] for l in b})
    assert comp == {vlab((), 0): F(3), slab({1}): F(10), tlab({1}): F(1),
                    tlab({2}): F(7)}
    assert eval_labeled(e.source, comp) == eval_labeled(e.source, b)
    assert eval_labeled(e.target, comp) == eval_labeled(e.target, a)


def test_mutation_detection_compose_target_unit():
    """Planted single-term corruptions must produce failing reports with a
    concrete witness."""
    base = gsy(2, [F(1), F(1)])
    key = (fs({1}), fs({1, 2}))

    def corrupt(which):
        p = gsy(2, [F(1), F(1)])
        e = p.edges[key]
        m = getattr(e, which)
        extra = m.var(m.in_labels[0]) if which != "unit" else m.var(m.in_labels[0])
        comps = (m.comps[0] + extra,) + m.comps[1:]
        setattr(e, which, PolyMap(m.ring, m.in_labels, comps, m.out_labels))
        return p

    for which in ("compose", "target", "unit"):
        p = corrupt(which)
        reports = check_edge_category(p, key, seed=6, samples=25)
        bad = first_failure(reports)
        assert bad is not None and bad.witness, which
    # faces notice a corrupted unit section too
    p = corrupt("unit")
    reports = check_face(p, (fs(), fs({1, 2})), seed=6, samples=25)
    assert first_failure(reports) is not None


def test_transpose_identity_is_structural_noop():
    p = pair_groupoid(2, 1)
    q = p.transpose({1: 1, 2: 2})
    for key in p.edges:
        assert q.edges[key].target.equals(p.edges[key].target)


def test_constant_collapse_terminal_morphism():
    """Collapsing the carrier to a point is a morphism PG^n M -> PG^n {0}."""
    p = pair_groupoid(2, 1)
    q = pair_groupoid(2, 1)
    maps = {}
    for a in p.vertices:
        labels = p.schemas[a].labels
        maps[a] = PolyMap(QQ, labels,
                          tuple(Poly.zero(QQ, len(labels)) for _ in labels),
                          labels)
    reports = check_morphism(p, q, maps, seed=7, samples=10)
    assert reports_ok(reports)


def test_tangent_module_structure_via_scalar_action():
    """At t = 0 the scalar action maps the tangent structure to itself and is
    a morphism: the fiberwise module structure is invariant under *."""
    from cubicalc.constructions import gsy_scalar_action

    src, dst, maps = gsy_scalar_action(2, [F(3), F(1, 2)], [F(0), F(0)])
    assert src.name.startswith("Gsy^2_{0,0}") and dst.name.startswith("Gsy^2_{0,0}")
    reports = check_morphism(src, dst, maps, seed=8, samples=20)
    assert reports_ok(reports), first_failure(reports).to_json()


def test_coord_label_hash_is_cached_and_not_pickled():
    import dataclasses
    import pickle

    from cubicalc.derive import CoordLabel, display_label, partner, tlab

    direct = vlab({1, 2}, 1)
    routes = (partner(vlab({2}, 1), 1),
              dataclasses.replace(vlab({3}), index=frozenset({1, 2}), comp=1),
              CoordLabel("v", frozenset({2, 1}), 1))
    table = {direct: "found"}
    tagged = {("a", direct): "found"}
    for other in routes:
        assert other == direct and hash(other) == hash(direct)
        assert table[other] == "found" and tagged[("a", other)] == "found"
    assert tlab({1}) != vlab({1}) and partner(tlab(()), 1) == tlab({1})

    # a stale cached hash must not survive a round trip: the label is rebuilt
    stale = CoordLabel("v", frozenset({1, 2}), 1)
    object.__setattr__(stale, "_hash", 0)
    data = pickle.dumps(stale)
    assert b"_hash" not in data
    back = pickle.loads(data)
    assert back == direct and hash(back) == hash(direct) and back in table

    assert repr(direct) == "v12_1" and display_label(("b", direct)) == "b.v12_1"
    assert repr(vlab(())) == "v0" and tlab({2}).display() == "t2"


def test_vertex_enumeration_is_bounded():
    from cubicalc.hypercube import MAX_DIM, HypercubeError
    from cubicalc.presentation import subsets_presentation_vertices

    assert len(subsets_presentation_vertices(0)) == 1
    assert len(subsets_presentation_vertices(3)) == 8
    for n in (-1, MAX_DIM + 1):
        with pytest.raises(HypercubeError, match="dimension"):
            subsets_presentation_vertices(n)
