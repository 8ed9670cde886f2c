import random
from fractions import Fraction

from cubicalc.checks import (check_morphism, check_presentation, first_failure,
                             reports_ok)
from cubicalc.constructions import (PullbackC1, finite_part,
                                    gfull, gfull_vertex_schema, gsy,
                                    gsy_scalar_action, gsy_symbolic,
                                    imbed_gsy_into_gfull, pair_groupoid,
                                    scaleoid, tangent, trivialization_maps,
                                    _full_labels)
from cubicalc.derive import display_label, tlab, vlab
from cubicalc.parser import parse
from cubicalc.polymap import PolyMap
from cubicalc.rings import QQ

from conftest import rand_fraction, rand_unit, random_polymap
from reference_checks import eval_labeled

F = Fraction
fs = frozenset


def test_vertex_schema_tables_examples():
    s = gfull_vertex_schema((1, 2), {2})
    assert [display_label(l) for l in s.flatten()] == ["v0", "v2", "t1", "t2", "t12"]
    assert s.display() == "U^{2} x_{0^{2}} 0^{12}"

    s = gfull_vertex_schema((1, 2, 3), {1, 3})
    assert [display_label(l) for l in s.flatten()] == \
        ["v0", "v1", "v3", "v13", "t1", "t2", "t3", "t13", "t23"]
    assert s.display() == "U^{13} x_{0^{3}} 0^{23}"

    s = gfull_vertex_schema((1, 2, 3), set())
    assert [display_label(l) for l in s.flatten()] == ["v0", "t1", "t2", "t3"]


def test_stair_schema_equals_compositional_schema():
    for n in range(1, 4):
        N = tuple(range(1, n + 1))
        for m in range(1 << n):
            alpha = fs(i + 1 for i in range(n) if m & (1 << i))
            assert gfull_vertex_schema(N, alpha).flatten() == \
                _full_labels(N, alpha, 1)


def test_scaleoid_n4_stair_rows():
    # the alpha-stair table for N = 4 (fiber products after cancellation)
    cases = {
        fs({1}): "0^{1} x 0^{2} x 0^{3} x 0^{4}",
        fs({1, 2}): "0^{12} x 0^{3} x 0^{4}",
        fs({1, 3}): "0^{13} x_{0^{3}} 0^{23} x 0^{4}",
        fs({1, 4}): "0^{14} x_{0^{4}} 0^{24} x_{0^{4}} 0^{34}",
        fs({1, 2, 4}): "0^{124} x_{0^{4}} 0^{34}",
        fs({1, 3, 4}): "0^{134} x_{0^{34}} 0^{234}",
    }
    for alpha, want in cases.items():
        assert gfull_vertex_schema((1, 2, 3, 4), alpha, vdim=0).display() == want


def test_gfull_edge_rows_n2():
    g = gfull(2)
    e = g.edges[(fs({2}), fs({1, 2}))]
    # (v0 + t1 v1, v2 + t12 v1 + t1 v12 + t2 t12 v12, t1, t2, t12)
    pt = {vlab((), 0): F(1), vlab({1}, 0): F(2), vlab({2}, 0): F(3),
          vlab({1, 2}, 0): F(5), tlab({1}): F(7), tlab({2}): F(11),
          tlab({1, 2}): F(13)}
    got = eval_labeled(e.target, pt)
    assert got[vlab((), 0)] == 1 + 7 * 2
    assert got[vlab({2}, 0)] == 3 + 13 * 2 + 7 * 5 + 11 * 13 * 5
    assert got[tlab({1})] == 7 and got[tlab({2})] == 11 and got[tlab({1, 2})] == 13

    e = g.edges[(fs(), fs({2}))]
    pt = {vlab((), 0): F(1), vlab({2}, 0): F(3), tlab({1}): F(7),
          tlab({2}): F(11), tlab({1, 2}): F(13)}
    got = eval_labeled(e.target, pt)
    # final slot is t2 (the printed table ends in t1; recorded typo)
    assert got == {vlab((), 0): 1 + 11 * 3, tlab({1}): 7 + 13 * 11,
                   tlab({2}): 11}


def test_degree_five_claim():
    g = gfull(3)
    e = g.edges[(fs({2, 3}), fs({1, 2, 3}))]
    assert e.target.degree() == 5


def test_scaleoid_tables_n3():
    s = scaleoid(3)
    e = s.edges[(fs({1}), fs({1, 2}))]
    pt = {tlab({1}): F(1), tlab({2}): F(2), tlab({3}): F(3), tlab({1, 2}): F(5)}
    assert eval_labeled(e.target, pt) == {tlab({1}): 1 + 2 * 5, tlab({2}): 2,
                                          tlab({3}): 3}
    e = s.edges[(fs({1, 2}), fs({1, 2, 3}))]
    vals = {tlab({1}): F(1), tlab({2}): F(2), tlab({3}): F(3),
            tlab({1, 2}): F(5), tlab({1, 3}): F(7), tlab({2, 3}): F(11),
            tlab({1, 2, 3}): F(13)}
    assert eval_labeled(e.target, vals) == {
        tlab({1}): 1 + 3 * 7, tlab({2}): 2 + 3 * 11, tlab({3}): 3,
        tlab({1, 2}): 5 + 3 * 13}
    # the two rows whose printed versions fail the face law (recorded typos):
    e = s.edges[(fs({1, 3}), fs({1, 2, 3}))]
    got = eval_labeled(e.target, vals)
    assert got[tlab({1, 3})] == 7 + 2 * 13 + 11 * 5 + 3 * 11 * 13
    assert got[tlab({2, 3})] == 11
    e = s.edges[(fs({1}), fs({1, 3}))]
    sub = {tlab({1}): F(1), tlab({2}): F(2), tlab({3}): F(3),
           tlab({1, 3}): F(7), tlab({2, 3}): F(11)}
    assert eval_labeled(e.target, sub) == {
        tlab({1}): 1 + 3 * 7, tlab({2}): 2 + 3 * 11, tlab({3}): 3}


def test_gsy_edge_maps_thm_sym2():
    t = [F(2), F(3)]
    g = gsy(2, t)
    e = g.edges[(fs({1}), fs({1, 2}))]
    pt = {vlab((), 0): F(1), vlab({1}, 0): F(5), vlab({2}, 0): F(7),
          vlab({1, 2}, 0): F(11)}
    # target adds t_2 v_{gamma | 2}: (v0 + 3 v2, v1 + 3 v12)
    assert eval_labeled(e.target, pt) == {vlab((), 0): 1 + 3 * 7,
                                          vlab({1}, 0): 5 + 3 * 11}
    assert eval_labeled(e.source, pt) == {vlab((), 0): F(1), vlab({1}, 0): F(5)}


def test_tangent_source_equals_target():
    p = tangent(2, vdim=2)
    for e in p.edges.values():
        assert e.source.equals(e.target)
    assert reports_ok(check_presentation(p, seed=7, samples=10))


def test_gsy_scalar_action_morphism():
    rng = random.Random(1)
    for _ in range(3):
        s = [rand_fraction(rng) or F(1) for _ in range(2)]
        t = [rand_fraction(rng) for _ in range(2)]
        src, dst, maps = gsy_scalar_action(2, s, t)
        reports = check_morphism(src, dst, maps, seed=8, samples=20)
        assert reports_ok(reports), first_failure(reports).to_json()
    # identity scales give the identity morphism
    src, dst, maps = gsy_scalar_action(2, [F(1), F(1)], [F(4), F(5)])
    for a in src.vertices:
        assert maps[a].equals(PolyMap.identity(QQ, src.schemas[a].labels))


def test_imbedding_all_maps_symbolic():
    for n in (1, 2):
        res = imbed_gsy_into_gfull(n)
        assert all(ok for _, _, ok in res)


def test_imbedding_example_edge():
    # edge ({1},{1,2}) target at t12 = 0 becomes the Gsy target
    from cubicalc.constructions import restrict_to_sym_locus

    g = gfull(2)
    sym = gsy_symbolic(2)
    key = (fs({1}), fs({1, 2}))
    got = restrict_to_sym_locus(g.edges[key].target, QQ)
    assert got.equals(sym.edges[key].target)


def test_finite_part_gsy_trivialization():
    rng = random.Random(3)
    for n in (1, 2, 3):
        t = [rand_unit(rng) for _ in range(n)]
        pres, pg, fwd, back = finite_part(n, "gsy", t)
        # bijectivity: the Moebius inverse composes to the identity
        for a in pres.vertices:
            ident = PolyMap.identity(QQ, pres.schemas[a].labels)
            assert back[a].compose(fwd[a]).equals(ident)
            assert fwd[a].compose(back[a]).equals(ident)
        reports = check_morphism(pres, pg, fwd, seed=9, samples=12)
        assert reports_ok(reports), (n, first_failure(reports).to_json())


def test_finite_part_trivialization_n1_example():
    _, _, fwd, _ = finite_part(1, "gsy", [F(1)])
    m = fwd[fs({1})]
    pt = {vlab((), 0): F(2), vlab({1}, 0): F(5)}
    assert eval_labeled(m, pt) == {vlab((), 0): F(2), vlab({1}, 0): F(7)}


def test_finite_part_gfull_unit_scales():
    p = finite_part(2, "gfull")
    sch = p.schemas[fs({1, 2})]
    assert tlab({1}) in sch.unit_labels and tlab({2}) in sch.unit_labels
    pts = [dict(zip(sch.labels, pt)) for pt in sch.sample(random.Random(0), 10)]
    for pt in pts:
        assert pt[tlab({1})] != 0 and pt[tlab({2})] != 0


def test_pullback_random_pairs(rng):
    for _ in range(5):
        g = random_polymap(rng, 1, 1, 2)
        psi = random_polymap(rng, 1, 1, 2)
        f = PolyMap(QQ, ("u",), g.compose(
            PolyMap(QQ, ("u",), psi.comps, g.in_labels)).comps)
        pb = PullbackC1(f, g, PolyMap.identity(QQ, ("u",)),
                        PolyMap(QQ, ("u",), psi.comps), QQ)
        pts = pb.sample(rng, 20)
        assert all(pb.in_p1(p) and pb.in_q(p) for p in pts)
        for _ in range(20):
            l, r = pb.sample_composable_pair(rng)
            c = pb.compose_points(l, r)
            assert pb.in_q(c) and pb.in_p1(c)


def test_pullback_samples_match_parameters_by_label(rng):
    # k lists the shared parameters in the other order than h
    pb = PullbackC1(parse("f(x,y) = x + 2*y"), parse("g(x,y) = x + 2*y"),
                    parse("h(p,q) = (p, q)"), parse("k(q,p) = (p, q)"), QQ)
    assert pb.hd.in_labels != pb.kd.in_labels
    assert all(pb.in_p1(p) and pb.in_q(p) for p in pb.sample(rng, 20))


def test_pullback_c_zero_equality(rng):
    fz = PolyMap(QQ, ("x",), ())
    gz = PolyMap(QQ, ("y",), ())
    pb = PullbackC1(fz, gz, parse("h(x,y) = x"), parse("k(x,y) = y"), QQ)
    assert pb.equality_with_p1()
    assert all(pb.in_p1(p) and pb.in_q(p) for p in pb.sample(rng, 10))


def test_pullback_diagonal_case(rng):
    # A = B = C = K, f = g = id: Q consists of diagonal-compatible pairs
    ident = parse("f(x) = x")
    pb = PullbackC1(ident, parse("g(y) = y"), parse("h(x) = x"),
                    parse("k(x) = x"), QQ)
    for p in pb.sample(rng, 15):
        assert p[("A", "x")] == p[("B", "y")] and p[("dA", "x")] == p[("dB", "y")]
        assert pb.in_q(p)
