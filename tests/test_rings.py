import random
from fractions import Fraction

import pytest

from cubicalc.extension import (ExtElement, ExtError, ext_add,
                                ext_automorphism, ext_mul, ext_split,
                                eval_over_extension)
from cubicalc.parser import parse
from cubicalc.rings import QQ, IntegersMod, RingError, ring_from_spec

from reference_checks import reference_ext_mul


def test_ring_from_spec():
    assert ring_from_spec("rational") is QQ
    assert ring_from_spec("mod:7") == IntegersMod(7)
    with pytest.raises(RingError):
        ring_from_spec("reals")
    with pytest.raises(RingError):
        IntegersMod(1)


def test_mod_ring_units():
    z4 = IntegersMod(4)
    assert z4.is_unit(3) and not z4.is_unit(2)
    assert z4.inv(3) == 3
    with pytest.raises(RingError):
        z4.inv(2)


@pytest.mark.parametrize("span", (2, 3, 6))
def test_rational_draws_keep_the_randint_stream(span):
    """QQ.rand reads its values off a table, but draws what the two randint
    calls drew and leaves the generator where they left it."""
    def reference(rng):
        return Fraction(rng.randint(-span, span), rng.randint(1, 4))

    def reference_unit(rng):
        x = reference(rng)
        while x == 0:
            x = reference(rng)
        return x

    for seed in range(10):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert QQ.rand(rng, span) == reference(ref)
            assert QQ.rand_unit(rng, span) == reference_unit(ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("ring", [QQ, IntegersMod(2 ** 31 - 1), IntegersMod(7),
                                  IntegersMod(6)], ids=str)
@pytest.mark.parametrize("span", (2, 3, 6))
def test_draw_gives_the_pairs_of_per_value_draws(ring, span):
    """Ring.draw gives, value by value, the canonical pairs of the per-value
    draws (two randints over Q, randrange(m) over Z/m, drawn again while a
    unit is asked for and the value is none), and leaves the generator where
    they leave it; rand and rand_unit are its values as scalars."""
    def reference(rng):
        if ring is QQ:
            return Fraction(rng.randint(-span, span), rng.randint(1, 4))
        return rng.randrange(ring.m)

    def reference_unit(rng):
        x = reference(rng)
        while not ring.is_unit(x):
            x = reference(rng)
        return x

    for seed in range(10):
        flags = random.Random(-seed)
        units = [flags.random() < 0.5 for _ in range(100)]
        rng, ref = random.Random(seed), random.Random(seed)
        got = ring.draw(rng, units, span)
        want = [reference_unit(ref) if u else reference(ref) for u in units]
        assert got == [ring.split(x) for x in want]
        assert rng.getstate() == ref.getstate()
        for num, den in got:
            assert type(num) is int and type(den) is int and den > 0
            assert ring.content(num, den) == (num, den)
        for u in units[:20]:
            x = ring.rand_unit(rng, span) if u else ring.rand(rng, span)
            assert x == (reference_unit(ref) if u else reference(ref))
            assert type(x) is (Fraction if ring is QQ else int)
        assert rng.getstate() == ref.getstate()


def test_content_is_the_pair_of_the_ratio():
    for num, den in ((0, 5), (6, 4), (-9, 6), (7, 1), (12, 18)):
        assert QQ.content(num, den) == QQ.split(Fraction(num, den))
    assert QQ.content(0, 7) == (0, 1)
    z6, z7 = IntegersMod(6), IntegersMod(7)
    assert z7.content(3, 2) == (5, 1) and z7.content(-1, 1) == (6, 1)
    assert z6.content(13, 5) == (5, 1)
    with pytest.raises(RingError):
        z6.content(1, 2)


def _elem(rng, alpha, t, span=4):
    coeffs = tuple(Fraction(rng.randint(-span, span), rng.randint(1, 3))
                   for _ in range(1 << len(alpha)))
    return ExtElement(QQ, alpha, t, coeffs)


def test_ext_mul_one_generator():
    # (a + bX)(c + dX) = ac + (ad + bc + bd t)X
    t = (Fraction(5, 2),)
    a, b, c, d = map(Fraction, (2, 3, -1, 4))
    x = ExtElement(QQ, (1,), t, (a, b))
    y = ExtElement(QQ, (1,), t, (c, d))
    prod = ext_mul(x, y)
    assert prod.coeffs == (a * c, a * d + b * c + b * d * t[0])


def test_ext_mul_nilpotent_at_zero():
    t = (Fraction(0),)
    x = ExtElement.generator(QQ, (1,), t, 1)
    assert ext_mul(x, x).coeffs == (0, 0)


def test_ext_mul_cross_term():
    # X_1 * X_12 = t_1 X_12  (beta & gamma = {1}, beta | gamma = {1,2})
    t = (Fraction(3), Fraction(7))
    x1 = ExtElement.generator(QQ, (1, 2), t, 1)
    x12 = ExtElement.from_subset_coeffs(QQ, (1, 2), t,
                                        {frozenset({1, 2}): Fraction(1)})
    prod = ext_mul(x1, x12)
    assert prod.coeff({1, 2}) == Fraction(3)
    assert all(prod.coeff(s) == 0 for s in ({1}, {2}, set()))


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 3)
        alpha = tuple(range(1, k + 1))
        t = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(k))
        a, b, c = (_elem(rng, alpha, t) for _ in range(3))
        assert ext_mul(a, b).coeffs == ext_mul(b, a).coeffs
        assert ext_mul(ext_mul(a, b), c).coeffs == ext_mul(a, ext_mul(b, c)).coeffs
        assert ext_mul(a, ext_add(b, c)).coeffs == \
            ext_add(ext_mul(a, b), ext_mul(a, c)).coeffs
        one = ExtElement.one(QQ, alpha, t)
        assert ext_mul(one, a).coeffs == a.coeffs


def test_ext_mul_matches_dense_product():
    # zero, unit and (over Z/6) non-unit scales mixed in one algebra; the
    # split product must equal the dense double loop coefficient by
    # coefficient
    rng = random.Random(21)
    scales = {QQ: (0, 1, -1, Fraction(2), Fraction(-1, 3)),
              IntegersMod(6): (0, 1, 5, 2, 3, 4),
              IntegersMod(7): (0, 1, 2, 6)}
    for ring, choices in scales.items():
        for _ in range(150):
            k = rng.randint(0, 4)
            alpha = tuple(range(1, k + 1))
            t = tuple(ring.from_rational(Fraction(rng.choice(choices)))
                      for _ in range(k))
            a, b = (ExtElement(ring, alpha, t, tuple(
                ring.from_ratio(rng.randint(-5, 5), rng.choice((1, 5)))
                for _ in range(1 << k))) for _ in range(2))
            assert ext_mul(a, b).coeffs == reference_ext_mul(a, b), (ring, t)


def test_ext_split():
    t = (Fraction(1),)
    one = ExtElement.one(QQ, (1,), t)
    assert ext_split(one) == (1, 1)
    a, b = Fraction(2), Fraction(5)
    x = ExtElement(QQ, (1,), t, (a, b))
    assert ext_split(x) == (a, a + b)


def test_ext_split_is_ring_homomorphism():
    rng = random.Random(3)
    t = (Fraction(3, 2),)
    for _ in range(100):
        x, y = _elem(rng, (1,), t), _elem(rng, (1,), t)
        sx, sy = ext_split(x), ext_split(y)
        sp = ext_split(ext_mul(x, y))
        assert sp == (sx[0] * sy[0], sx[1] * sy[1])
        sa = ext_split(ext_add(x, y))
        assert sa == (sx[0] + sy[0], sx[1] + sy[1])


def test_ext_split_refuses_non_unit():
    z4 = IntegersMod(4)
    x = ExtElement(z4, (1,), (2,), (1, 1))
    with pytest.raises(RingError):
        ext_split(x)


def test_mismatched_algebras_rejected():
    t1 = (Fraction(1),)
    t2 = (Fraction(2),)
    x = ExtElement.one(QQ, (1,), t1)
    y = ExtElement.one(QQ, (1,), t2)
    with pytest.raises(ExtError):
        ext_mul(x, y)


def test_eval_over_extension_square_matches_slope():
    # f(x) = x^2 on v0 + v1 X: coefficient of X is 2 v0 v1 + t v1^2
    f = parse("f(x) = x^2")
    t = (Fraction(5),)
    v0, v1 = Fraction(3), Fraction(1, 2)
    x = ExtElement(QQ, (1,), t, (v0, v1))
    (img,) = eval_over_extension(f, [x])
    assert img.coeffs == (v0 * v0, 2 * v0 * v1 + t[0] * v1 * v1)


def test_eval_over_extension_linear_componentwise():
    f = parse("f(x,y) = (x + 2*y, y)")
    t = (Fraction(2), Fraction(3))
    rng = random.Random(5)
    xs = [_elem(rng, (1, 2), t), _elem(rng, (1, 2), t)]
    imgs = eval_over_extension(f, xs)
    for s in (set(), {1}, {2}, {1, 2}):
        assert imgs[0].coeff(s) == xs[0].coeff(s) + 2 * xs[1].coeff(s)
        assert imgs[1].coeff(s) == xs[1].coeff(s)


def test_eval_over_extension_two_generators_t_zero():
    f = parse("f(x) = x^2")
    t = (Fraction(0), Fraction(0))
    v0, v1, v2, v12 = map(Fraction, (2, 3, 5, 7))
    x = ExtElement.from_subset_coeffs(QQ, (1, 2), t, {
        frozenset(): v0, frozenset({1}): v1, frozenset({2}): v2,
        frozenset({1, 2}): v12})
    (img,) = eval_over_extension(f, [x])
    assert img.coeff({1, 2}) == 2 * (v0 * v12 + v1 * v2)


def test_symmetric_group_acts_by_automorphisms():
    rng = random.Random(9)
    alpha = (1, 2, 3)
    t = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
    perm = {1: 2, 2: 3, 3: 1}
    for _ in range(50):
        a, b = _elem(rng, alpha, t), _elem(rng, alpha, t)
        lhs = ext_automorphism(ext_mul(a, b), perm)
        rhs = ext_mul(ext_automorphism(a, perm), ext_automorphism(b, perm))
        assert lhs.coeffs == rhs.coeffs and lhs.t == rhs.t


def test_ext_element_refuses_inexact_scalars():
    # a float coefficient or scale used to flow through eval_over_extension
    # to float coefficients
    with pytest.raises(ExtError):
        ExtElement(QQ, (1,), (Fraction(2),), (0.5, Fraction(1)))
    with pytest.raises(ExtError):
        ExtElement(QQ, (1,), (2.0,), (Fraction(1), Fraction(1)))
    with pytest.raises(ExtError):
        ExtElement(IntegersMod(7), (1,), (2,), (Fraction(1, 2), 1))
    with pytest.raises(ExtError):
        ExtElement.scalar(QQ, (1, 2), (Fraction(1), Fraction(1)), 1.5)
    f = parse("f(x) = x^2 + 1/3*x")
    (img,) = eval_over_extension(f, [ExtElement(QQ, (1,), (Fraction(2),),
                                                (Fraction(1, 2), Fraction(1)))])
    assert img.coeffs == (Fraction(5, 12), Fraction(10, 3))
    assert all(isinstance(c, Fraction) for c in img.coeffs)
    # scalars are stored reduced, so equal elements compare equal
    z7 = IntegersMod(7)
    a = ExtElement(z7, (1,), (9,), (8, -6))
    assert a == ExtElement(z7, (1,), (2,), (1, 1)) and a.t == (2,)
