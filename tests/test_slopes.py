from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cubicalc.derive import derive_polymap, partner, slab, tlab, vlab, with_tag
from cubicalc.parser import parse
from cubicalc.polymap import Poly, PolyMap
from cubicalc.rings import QQ, IntegersMod, RingError
from cubicalc.slopes import (_cubic_base, derive_map, factorizer_identity_holds,
                             full_slope, slope, sym_slope_closed,
                             sym_slope_iterated)

from conftest import mixed_partial_map, rand_fraction, rand_unit, random_polymap
from reference_checks import reference_shift_quotient


def _subsets(n):
    out = [frozenset()]
    for k in range(1, n + 1):
        out.extend(frozenset(c) for c in combinations(range(1, n + 1), k))
    return out


def test_slope_of_square():
    s = slope(parse("f(x) = x^2"))
    expected = parse("g(x,v,t) = 2*x*v + t*v^2")
    assert s.factorizer.comps == expected.comps


def test_slope_of_linear_is_constant_in_x_t():
    f = parse("f(x,y) = (3*x - y, y)")
    s = slope(f)
    for comp in s.factorizer.comps:
        used = {s.factorizer.in_labels[i] for i in comp.used_vars()}
        assert used <= set(s.v_labels)


def test_slope_of_constant_is_zero():
    s = slope(parse("f(x) = 7"))
    assert all(c.is_zero() for c in s.factorizer.comps)


def test_factorizer_identity_random(rng):
    for _ in range(25):
        f = random_polymap(rng, rng.randint(1, 3), rng.randint(1, 2), 4)
        assert factorizer_identity_holds(f, slope(f))


def test_full_slope_n2_matches_paper_quotient(rng):
    """f^[2] agrees with the double difference quotient wherever the
    denominators are invertible (the displayed second-order formula)."""
    for _ in range(6):
        f = random_polymap(rng, 1, 1, 3)
        m = full_slope(f, 2)
        for _ in range(50):
            v0, v1, v2, v12 = (rand_fraction(rng) for _ in range(4))
            t1, t2, t12 = rand_unit(rng), rand_unit(rng), rand_fraction(rng)
            if t1 + t2 * t12 == 0:
                continue
            pt = {vlab((), 0): v0, vlab({1}, 0): v1, vlab({2}, 0): v2,
                  vlab({1, 2}, 0): v12, tlab({1}): t1, tlab({2}): t2,
                  tlab({1, 2}): t12}
            got = m.eval([pt[l] for l in m.in_labels])[0]

            def F(x):
                return f.eval([x])[0]

            lhs = (F(v0 + t2 * v2 + (t1 + t2 * t12) * (v1 + t2 * v12))
                   - F(v0 + t2 * v2)) / (t2 * (t1 + t2 * t12)) \
                - (F(v0 + t1 * v1) - F(v0)) / (t2 * t1)
            assert got == lhs


def test_full_slope_n1_is_slope():
    f = parse("f(x) = x^3 - x")
    m = full_slope(f, 1)
    s = slope(f)
    assert m.comps == s.factorizer.comps  # same variable order (x, v, t)


def test_full_slope_of_constant_is_zero():
    f = parse("f(x) = 5")
    for n in (1, 2, 3):
        assert all(c.is_zero() for c in full_slope(f, n).comps)


def test_sym_slope_iterated_eq_2_3(rng):
    """The second symmetric factorizer is the four-point quotient."""
    for _ in range(6):
        f = random_polymap(rng, 1, 1, 3)
        m = sym_slope_iterated(f, 2)
        for _ in range(40):
            v0, v1, v2, v12 = (rand_fraction(rng) for _ in range(4))
            t1, t2 = rand_unit(rng), rand_unit(rng)
            pt = {vlab((), 0): v0, vlab({1}, 0): v1, vlab({2}, 0): v2,
                  vlab({1, 2}, 0): v12, tlab({1}): t1, tlab({2}): t2}
            got = m.eval([pt[l] for l in m.in_labels])[0]

            def F(x):
                return f.eval([x])[0]

            lhs = (F(v0 + t1 * v1 + t2 * v2 + t1 * t2 * v12) - F(v0 + t1 * v1)
                   - F(v0 + t2 * v2) + F(v0)) / (t1 * t2)
            assert got == lhs


def test_sym_slope_square_mixed_partial():
    m = sym_slope_iterated(parse("f(x) = x^2"), 2)
    pt = {vlab((), 0): Fraction(9), vlab({1}, 0): Fraction(2),
          vlab({2}, 0): Fraction(3), vlab({1, 2}, 0): Fraction(0),
          tlab({1}): Fraction(0), tlab({2}): Fraction(0)}
    assert m.eval([pt[l] for l in m.in_labels]) == [12]  # 2 v1 v2


def test_closed_matches_iterated(rng):
    for _ in range(10):
        p = rng.randint(1, 2)
        n = rng.randint(1, 3)
        f = random_polymap(rng, p, 1, 3)
        m = sym_slope_iterated(f, n)
        for _ in range(25):
            t = [rand_unit(rng) for _ in range(n)]
            v = {s: [rand_fraction(rng) for _ in range(p)] for s in _subsets(n)}
            closed = sym_slope_closed(f, n, t, v)
            pt = {}
            for s, vec in v.items():
                for c, x in enumerate(vec):
                    pt[vlab(s, c)] = x
            for i, tv in enumerate(t):
                pt[tlab({i + 1})] = tv
            iterated = m.eval([pt[l] for l in m.in_labels])
            assert closed == iterated


def test_closed_rejects_non_unit_scale():
    f = parse("f(x) = x^2")
    with pytest.raises(RingError):
        sym_slope_closed(f, 1, [Fraction(0)], {frozenset(): [Fraction(1)],
                                               frozenset({1}): [Fraction(1)]})


def test_schwarz_at_zero(rng):
    """At t = 0 with v_beta = 0 for |beta| > 1, the n-th symmetric factorizer
    is S_n-symmetric and equals the independent mixed partial."""
    for _ in range(8):
        p = rng.randint(1, 2)
        f = random_polymap(rng, p, 1, 3)
        n = rng.choice((2, 3))
        m = sym_slope_iterated(f, n)
        oracle = mixed_partial_map(f, n)
        for _ in range(20):
            vecs = {k: [rand_fraction(rng) for _ in range(p)] for k in range(n + 1)}
            pt = {}
            for l in m.in_labels:
                if l.kind == "t":
                    pt[l] = Fraction(0)
                elif len(l.index) == 0:
                    pt[l] = vecs[0][l.comp]
                elif len(l.index) == 1:
                    pt[l] = vecs[next(iter(l.index))][l.comp]
                else:
                    pt[l] = Fraction(0)
            got = m.eval([pt[l] for l in m.in_labels])
            ovals = []
            for k in range(n + 1):
                ovals.extend(vecs[k])
            assert got == oracle.eval(ovals)
            # permutation symmetry in the single-index slots
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            pt2 = dict(pt)
            for i in range(1, n + 1):
                for c in range(p):
                    pt2[vlab({i}, c)] = vecs[perm[i - 1]][c]
            got2 = m.eval([pt2[l] for l in m.in_labels])
            ovals2 = list(vecs[0])
            for i in range(1, n + 1):
                ovals2.extend(vecs[perm[i - 1]])
            assert got2 == oracle.eval(ovals2)


def test_derive_map_examples():
    ident = PolyMap.identity(QQ, ("x",))
    d = derive_map(ident)
    assert d.equals(PolyMap.identity(QQ, d.in_labels))

    f = parse("f(x) = x^2")
    d = derive_map(f)
    v0 = Fraction(2)
    v1 = Fraction(3)
    t = Fraction(5)
    assert d.eval([v0, v1, t]) == [4, 2 * v0 * v1 + t * v1 * v1, t]


def test_derive_map_functorial(rng):
    for _ in range(10):
        mid = rng.randint(1, 2)
        f = random_polymap(rng, rng.randint(1, 2), mid, 2)
        g_raw = random_polymap(rng, mid, rng.randint(1, 2), 2)
        f = PolyMap(QQ, f.in_labels, f.comps, g_raw.in_labels)
        g = PolyMap(QQ, g_raw.in_labels, g_raw.comps,
                    tuple(f"z{i}" for i in range(g_raw.out_arity)))
        lhs = derive_map(g.compose(f))
        rhs = derive_map(g).compose(derive_map(f))
        assert lhs.equals(rhs)


def test_slope_additivity_is_the_star_morphism_identity(rng):
    """f1_t(v0, v1 + v1') = f1_t(v0 + t v1, v1') + f1_t(v0, v1), symbolically."""
    for _ in range(10):
        f = random_polymap(rng, 1, 1, 4)
        m = sym_slope_iterated(f, 1)  # inputs v0, v1, t1
        labels = ("v0", "v1", "w1", "t")
        n = len(labels)
        v0, v1, w1, t = (Poly.var(QQ, n, i) for i in range(n))
        sub_sum = m.subst({vlab((), 0): v0, vlab({1}, 0): v1 + w1,
                           tlab({1}): t}, labels)
        sub_left = m.subst({vlab((), 0): v0 + t * v1, vlab({1}, 0): w1,
                            tlab({1}): t}, labels)
        sub_right = m.subst({vlab((), 0): v0, vlab({1}, 0): v1,
                             tlab({1}): t}, labels)
        assert sub_sum.comps[0] == sub_left.comps[0] + sub_right.comps[0]


def test_full_slope_is_the_top_block_of_derive_polymap(rng):
    """full_slope derives only the top block; deriving every block and
    keeping the top one gives the same map, labels and order included."""
    for n in (1, 2, 3):
        f = random_polymap(rng, 2, 2, 3, terms=3)
        m = _cubic_base(f)
        for j in range(1, n + 1):
            m = derive_polymap(m, j, with_s=False)
        top = frozenset(range(1, n + 1))
        assert full_slope(f, n) == m.restrict_outputs(
            [vlab(top, c) for c in range(f.out_arity)])


_SPACE = (vlab((), 0), vlab({1}, 0), tlab({1}))


@st.composite
def tagged_derivations(draw):
    """A map on two tagged copies of a space, as the composition of an edge
    is, and the arguments of one derivation step in direction 2."""
    ring = draw(st.sampled_from((QQ, IntegersMod(2 ** 31 - 1), IntegersMod(6),
                                 IntegersMod(4))))
    in_labels = tuple((tg, l) for tg in "ab" for l in _SPACE)
    exps = st.lists(st.integers(0, 3), min_size=len(in_labels),
                    max_size=len(in_labels)).filter(lambda e: sum(e) <= 3).map(tuple)
    comps = [Poly(ring, len(in_labels), {e: ring.from_int(c) for e, c in draw(
        st.dictionaries(exps, st.integers(-5, 5), max_size=4)).items()})
        for _ in range(2)]
    m = PolyMap(ring, in_labels, comps, (("a", vlab((), 0)), ("b", vlab({1}, 0))))
    return m, draw(st.booleans()), draw(st.booleans())


@given(tagged_derivations())
@settings(max_examples=100, deadline=None)
def test_derive_polymap_on_tagged_copies_matches_reference(case):
    """Each partner component is the subst-subtract-divide slope at the
    scale of the last copy (the right operand "b"), or at the one shared
    scale of a parameter space (copies=False)."""
    m, with_s, copies = case
    d = derive_polymap(m, 2, with_s, copies=copies)
    src = "b" if copies else None
    fresh = (slab({2}), tlab({2})) if with_s else (tlab({2}),)
    pos = {l: i for i, l in enumerate(d.in_labels)}
    tau = [pos[with_tag(src, l)] for l in fresh]
    for out, comp in zip(m.out_labels, m.comps):
        value, slope_ = reference_shift_quotient(
            comp, d.in_arity, [pos[l] for l in m.in_labels],
            [pos[partner(l, 2)] for l in m.in_labels], tau)
        assert d.component(out) == value
        assert d.component(partner(out, 2)) == slope_
    for tg in "ab":
        for l in fresh:
            assert d.component((tg, l)) == d.var(with_tag(src, l))
