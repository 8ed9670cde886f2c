import random
from fractions import Fraction

import pytest

from cubicalc import constructions, laws
from cubicalc.checks import check_morphism, first_failure, reports_ok
from cubicalc.constructions import gsy
from cubicalc.derive import tlab, vlab
from cubicalc.laws import (LawError, check_finite_law, check_homogeneity,
                           check_law_compatibility, check_symmetry,
                           derive_law_full, derive_law_sym,
                           finite_law_from_map, flip_isomorphism_reports,
                           ring_goid_structure, ring_product_map,
                           sym_law_via_extension)
from cubicalc.parser import parse
from cubicalc.polymap import Poly, PolyMap
from cubicalc.rings import QQ, IntegersMod, RingError

from conftest import mixed_partial_map, rand_fraction, random_polymap
from reference_checks import eval_labeled, reference_derive_law_sym

F = Fraction
fs = frozenset


def test_full_law_identity_and_constant():
    ident = parse("f(x) = x")
    law = derive_law_full(ident, 2)
    for alpha, m in law.vertex_maps.items():
        assert m.equals(PolyMap.identity(QQ, law.src.schemas[alpha].labels))
    const = parse("f(x) = 4")
    law = derive_law_full(const, 1)
    top = law.vertex_maps[fs({1})]
    assert top.component(vlab((), 0)).fmt(["a", "b", "c"]) == "4"
    assert top.component(vlab({1}, 0)).is_zero()


def test_full_law_square_top_map():
    law = derive_law_full(parse("f(x) = x^2"), 1)
    top = law.vertex_maps[fs({1})]
    pt = {vlab((), 0): F(2), vlab({1}, 0): F(3), tlab({1}): F(5)}
    assert eval_labeled(top, pt) == {vlab((), 0): F(4),
                                     vlab({1}, 0): 2 * 2 * 3 + 5 * 9,
                                     tlab({1}): F(5)}


def test_law_compatibility_and_mutation(rng):
    f = random_polymap(rng, 1, 1, 3)
    law = derive_law_full(f, 2)
    assert reports_ok(check_law_compatibility(law))
    # mutate the top map: compatibility must fail
    top_key = fs({1, 2})
    m = law.vertex_maps[top_key]
    comps = (m.comps[0] + m.var(tlab({1})),) + m.comps[1:]
    law.vertex_maps[top_key] = PolyMap(QQ, m.in_labels, comps, m.out_labels)
    assert first_failure(check_law_compatibility(law)) is not None


def test_sym_law_matches_symdiff_shape(rng):
    t = [F(2), F(3)]
    f = parse("f(x) = x^2")
    law = derive_law_sym(f, 2, t)
    top = law.vertex_maps[fs({1, 2})]
    pt = {vlab((), 0): F(1), vlab({1}, 0): F(2), vlab({2}, 0): F(3),
          vlab({1, 2}, 0): F(5)}

    def F0(x):
        return x * x

    v0, v1, v2, v12 = pt[vlab((), 0)], pt[vlab({1}, 0)], pt[vlab({2}, 0)], \
        pt[vlab({1, 2}, 0)]
    got = eval_labeled(top, pt)
    assert got[vlab((), 0)] == F0(v0)
    assert got[vlab({1}, 0)] == (F0(v0 + 2 * v1) - F0(v0)) / 2
    assert got[vlab({2}, 0)] == (F0(v0 + 3 * v2) - F0(v0)) / 3
    assert got[vlab({1, 2}, 0)] == (F0(v0 + 2 * v1 + 3 * v2 + 6 * v12)
                                    - F0(v0 + 2 * v1) - F0(v0 + 3 * v2)
                                    + F0(v0)) / 6


def test_sym_law_morphism_and_compat(rng):
    for _ in range(3):
        f = random_polymap(rng, rng.randint(1, 2), rng.randint(1, 2), 3)
        n = rng.choice((2, 3))
        t = [rand_fraction(rng) for _ in range(n)]
        law = derive_law_sym(f, n, t)
        assert reports_ok(check_law_compatibility(law))
        reports = check_morphism(law.src, law.dst, law.vertex_maps,
                                 seed=13, samples=10)
        assert reports_ok(reports), first_failure(reports).to_json()


def test_homogeneity_and_symmetry(rng):
    for _ in range(3):
        f = random_polymap(rng, 1, 1, 3)
        n = 2
        t = [rand_fraction(rng) for _ in range(n)]
        law = derive_law_sym(f, n, t)
        s = [rand_fraction(rng) for _ in range(n)]
        assert reports_ok(check_homogeneity(law, s))
        assert reports_ok(check_symmetry(law, {1: 2, 2: 1}))
        assert reports_ok(check_symmetry(law, {1: 1, 2: 2}))
    # trivial scales pass trivially
    law = derive_law_sym(parse("f(x) = x^3"), 2, [F(1), F(4)])
    assert reports_ok(check_homogeneity(law, [F(1), F(1)]))


def test_homogeneity_mutation_detected():
    law = derive_law_sym(parse("f(x) = x^2"), 2, [F(1), F(2)])
    m = law.vertex_maps[fs({1, 2})]
    comps = tuple(
        c + m.var(vlab({1}, 0)) if l == vlab({1, 2}, 0) else c
        for l, c in zip(m.out_labels, m.comps))
    law.vertex_maps[fs({1, 2})] = PolyMap(QQ, m.in_labels, comps, m.out_labels)
    assert first_failure(check_homogeneity(law, [F(3), F(5)])) is not None


def test_flip_isomorphism():
    assert reports_ok(flip_isomorphism_reports(2, [F(2), F(5)]))


def test_sym_law_at_zero_equals_mixed_partial(rng):
    for _ in range(4):
        f = random_polymap(rng, 1, 1, 3)
        n = 2
        law = derive_law_sym(f, n, [F(0)] * n)
        top = law.vertex_maps[fs({1, 2})]
        oracle = mixed_partial_map(f, n)
        for _ in range(10):
            v0, v1, v2 = (rand_fraction(rng) for _ in range(3))
            pt = {vlab((), 0): v0, vlab({1}, 0): v1, vlab({2}, 0): v2,
                  vlab({1, 2}, 0): F(0)}
            got = eval_labeled(top, pt)[vlab({1, 2}, 0)]
            assert got == oracle.eval([v0, v1, v2])[0]


def test_scalar_extension_reproduces_sym_law(rng):
    for _ in range(4):
        p = rng.randint(1, 2)
        f = random_polymap(rng, p, 1, 3)
        n = rng.choice((1, 2, 3))
        t = [rand_fraction(rng) for _ in range(n)]
        law = derive_law_sym(f, n, t)
        for alpha in law.src.vertices:
            via_ext = sym_law_via_extension(f, n, t, tuple(sorted(alpha)))
            assert via_ext.equals(law.vertex_maps[alpha]), (alpha, n)


def test_ring_goid_product():
    t = [F(3)]
    res = ring_goid_structure(1, t)
    assert res["matches_ext_mul"]
    top = res["law"].vertex_maps[fs({1})]
    a0, a1, b0, b1 = F(2), F(3), F(5), F(7)
    pt = {vlab((), 0): a0, vlab({1}, 0): a1, vlab((), 1): b0, vlab({1}, 1): b1}
    got = eval_labeled(top, pt)
    assert got[vlab((), 0)] == a0 * b0
    assert got[vlab({1}, 0)] == a0 * b1 + a1 * b0 + 3 * a1 * b1
    # unit element of the derived ring
    one = ring_product_map().eval([F(1), F(1)])
    assert one == [1]


def test_ring_goid_n2_and_morphism():
    t = [F(2), F(5)]
    res = ring_goid_structure(2, t)
    assert res["matches_ext_mul"]
    law = res["law"]
    reports = check_morphism(law.src, law.dst, law.vertex_maps,
                             seed=14, samples=15)
    assert reports_ok(reports), first_failure(reports).to_json()


def test_finite_law_polynomial_agrees_with_derived(rng):
    f = random_polymap(rng, 1, 1, 3)
    t = [F(1), F(1, 2)]
    plaw = finite_law_from_map(lambda p: tuple(f.eval(list(p))), 2, t)
    law = derive_law_sym(f, 2, t)
    g = gsy(2, t)
    for alpha in g.vertices:
        sch = g.schemas[alpha]
        for pt in sch.sample(random.Random(15), 10):
            pt = dict(zip(sch.labels, pt))
            assert plaw.vertex_value(alpha, pt) == \
                eval_labeled(law.vertex_maps[alpha], pt)


def test_finite_law_evaluates_each_point_once():
    """The source-target and compose laws share their composable pairs, and
    the black-box law is evaluated once per point: 2,640 base-map calls
    here, where evaluating the left element once per law made 3,360."""
    calls = []

    def f(p):
        calls.append(p)
        x, y = p
        return (x ** 3 * y + 2 * x * y ** 2 - y ** 4, x ** 2 - F(3, 2) * y ** 3)
    plaw = finite_law_from_map(f, 2, (F(1), F(2)), out_dim=2)
    reports = check_finite_law(plaw, in_dim=2, seed=0, samples=30)
    assert len(calls) == 2640
    assert [r.to_json() for r in reports] == [
        {"law": "finite-law-" + law, "location": f"edge {lo}>{hi}",
         "samples": 30, "seed": 0, "status": "pass"}
        for lo, hi in (([], [1]), ([], [2]), ([1], [1, 2]), ([2], [1, 2]))
        for law in ("source-target", "compose")]


def test_finite_law_non_polynomial_abs():
    plaw = finite_law_from_map(lambda p: (abs(p[0]),), 2, [F(1), F(2)])
    assert reports_ok(check_finite_law(plaw, samples=12))


def test_finite_law_difference_at_t_one():
    plaw = finite_law_from_map(lambda p: (p[0] ** 3 - p[0],), 1, [F(1)])
    v0, v1 = F(2), F(5)
    out = plaw.vertex_value(fs({1}), {vlab((), 0): v0, vlab({1}, 0): v1})

    def g(x):
        return x ** 3 - x

    assert out[vlab({1}, 0)] == g(v0 + v1) - g(v0)


def test_finite_law_rejects_non_unit():
    with pytest.raises(RingError):
        finite_law_from_map(lambda p: p, 2, [F(1), F(0)])


def test_terminal_map_compatibility(rng):
    """Every derived law fixes the scale block: composing with the terminal
    projection onto the scaleoid gives the terminal projection back."""
    for _ in range(5):
        f = random_polymap(rng, 1, 1, 3)
        law = derive_law_full(f, 2)
        for alpha, m in law.vertex_maps.items():
            for l in m.out_labels:
                if l.kind == "t":
                    assert m.component(l) == m.var(l)


def test_plain_additivity_fails_for_square():
    """f1(x, v+v', t) is not additive in v for f = x^2; only the groupoid
    morphism form of additivity holds (previous test)."""
    from cubicalc.slopes import sym_slope_iterated
    from cubicalc.polymap import Poly

    m = sym_slope_iterated(parse("f(x) = x^2"), 1)
    labels = ("x", "v", "w", "t")
    v = {n: Poly.var(QQ, 4, i) for i, n in enumerate(labels)}
    lhs = m.subst({vlab((), 0): v["x"], vlab({1}, 0): v["v"] + v["w"],
                   tlab({1}): v["t"]}, labels).comps[0]
    rhs = m.subst({vlab((), 0): v["x"], vlab({1}, 0): v["v"],
                   tlab({1}): v["t"]}, labels).comps[0] \
        + m.subst({vlab((), 0): v["x"], vlab({1}, 0): v["w"],
                   tlab({1}): v["t"]}, labels).comps[0]
    assert lhs != rhs


def _random_map(rng, ring, in_arity: int, out_arity: int) -> PolyMap:
    """A map of degree <= 3 with coefficients of the ring."""
    comps = []
    for _ in range(out_arity):
        table = {}
        for _ in range(4):
            e = [0] * in_arity
            for _ in range(rng.randint(0, 3)):
                e[rng.randrange(in_arity)] += 1
            table[tuple(e)] = rand_fraction(rng) if ring == QQ \
                else rng.randrange(-9, 10)
        comps.append(Poly(ring, in_arity, table))
    return PolyMap(ring, tuple(f"x{i}" for i in range(in_arity)), tuple(comps))


@pytest.mark.parametrize("ring", [QQ, IntegersMod(7)])
@pytest.mark.parametrize("vdim", [1, 2])
def test_derive_law_sym_matches_reference(rng, ring, vdim):
    for n in (1, 2, 3):
        f = _random_map(rng, ring, vdim, 1 + n % 2)
        t = [rand_fraction(rng) if ring == QQ else rng.randrange(7)
             for _ in range(n)]
        law = derive_law_sym(f, n, t)
        assert law.vertex_maps == reference_derive_law_sym(f, n, t)
        assert list(law.vertex_maps) == list(law.src.vertices)


def _counting_gsy(monkeypatch) -> list:
    """Count the gsy presentations built, through either module."""
    calls = []
    real = constructions.gsy

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructions, "gsy", counted)
    monkeypatch.setattr(laws, "gsy", counted)
    return calls


def test_sym_law_checks_build_no_presentation(monkeypatch):
    law = derive_law_sym(parse("f(x) = x^3 - 2*x"), 2, [F(2), F(-1, 3)])
    calls = _counting_gsy(monkeypatch)
    assert reports_ok(check_homogeneity(law, [F(3), F(1, 2)]))
    assert reports_ok(check_symmetry(law, {1: 2, 2: 1}))
    assert calls == []
    # a planted corruption of one vertex map still fails both
    top = fs({1, 2})
    m = law.vertex_maps[top]
    comps = list(m.comps)
    comps[0] = comps[0] + m.var(vlab({1}, 0)) * m.var(vlab({2}, 0))
    law.vertex_maps[top] = PolyMap(QQ, m.in_labels, tuple(comps), m.out_labels)
    for reports in (check_homogeneity(law, [F(3), F(1, 2)]),
                    check_symmetry(law, {1: 2, 2: 1}),
                    check_symmetry(law, {1: 1, 2: 2})):
        bad = [r for r in reports if not r.ok]
        assert [r.location for r in bad] == ["vertex [1, 2]"]
    assert calls == []


def test_sym_law_checks_refuse_bad_arguments(monkeypatch):
    law = derive_law_sym(parse("f(x) = x^2"), 2, [F(1), F(2)])
    calls = _counting_gsy(monkeypatch)
    for s in ([F(3)], [F(3), F(1), F(2)], []):
        with pytest.raises(LawError):
            check_homogeneity(law, s)
    for sigma in ({1: 1, 2: 1}, {1: 2}, {1: 2, 2: 3}, {1: 2, 2: 1, 3: 3},
                  {0: 1, 1: 0}):
        with pytest.raises(LawError):
            check_symmetry(law, sigma)
    assert calls == []
