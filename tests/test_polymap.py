from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cubicalc import polymap
from cubicalc.derive import tlab, vlab
from cubicalc.parser import ParseError, parse
from cubicalc.polymap import Poly, PolyError, PolyMap, PolyRing, _shift_quotient
from cubicalc.rings import QQ, IntegersMod

from conftest import random_polymap
from reference_checks import (_extend_by_subst, reference_mul,
                              reference_shift_quotient, reference_subst_tuple)


def test_coords_are_the_variables_of_their_labels():
    labels = ("x", ("a", "x"), vlab({1}, 0), tlab({1, 2}), 7)
    for ring in (QQ, IntegersMod(7)):
        x = Poly.coords(ring, labels)
        for i, l in enumerate(labels):
            assert x(l) == Poly.var(ring, len(labels), i)
        with pytest.raises(KeyError):
            x("y")


def test_parse_simple():
    f = parse("f(x) = x^2")
    assert f.in_arity == 1 and f.out_arity == 1
    assert f.eval([Fraction(3)]) == [9]


def test_parse_vector_and_rationals():
    f = parse("f(x,y) = (x*y, x^2 + 3/2*y)")
    assert f.in_arity == 2 and f.out_arity == 2
    assert f.eval([Fraction(2), Fraction(4)]) == [8, 10]


def test_parse_rejects_division_by_variable():
    with pytest.raises(ParseError) as ei:
        parse("f(x) = 1/x")
    assert "non-polynomial" in str(ei.value)
    with pytest.raises(ParseError):
        parse("f(x) = x/2")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse("f(x) = x + q")
    assert "unknown identifier" in str(ei.value) and ei.value.col == 12


def test_parse_parenthesised_single_expr():
    f = parse("f(x,y) = (x + y)^2")
    assert f.out_arity == 1
    assert f.eval([Fraction(1), Fraction(2)]) == [9]


def test_parse_unary_minus_and_tuple():
    f = parse("f(x) = (-x, 2 - -x)")
    assert f.eval([Fraction(3)]) == [-3, 5]


def test_parse_mod_ring():
    f = parse("f(x) = 1/2*x", IntegersMod(7))
    assert f.eval([2]) == [1]  # 1/2 = 4 mod 7, 4*2 = 1


@pytest.mark.parametrize("ring", [QQ, IntegersMod(7)])
def test_parse_powers_and_constant_factors_match_products(ring):
    # one-term powers and constant factors are built without products
    x, y = Poly.var(ring, 2, 0), Poly.var(ring, 2, 1)
    c = lambda k: Poly.const(ring, 2, ring.from_int(k))
    half = Poly.const(ring, 2, ring.div(ring.one(), ring.from_int(2)))
    f = parse("f(x,y) = (2*x)^3*y^2 + (1/2)^2*x^0 - 0^3*y + 3*(x + y)^2*2"
              " + x*y*5 + (-y)^3 + 9^2", ring)
    want = (c(2) * x) * (c(2) * x) * (c(2) * x) * y * y + half * half \
        + c(6) * (x + y) * (x + y) + x * y * c(5) - y * y * y + c(81)
    assert f.comps == (want,)


def test_eval_degree_compose():
    f = parse("f(x) = x^2")
    g = parse("g(x) = x + 1")
    comp = f.compose(g)
    h = parse("h(x) = x^2 + 2*x + 1")
    assert comp.comps == h.comps
    assert f.eval([Fraction(3)]) == [9]
    # total degree over all variables
    two_xv_plus_tvv = parse("F(x,v,t) = 2*x*v + t*v^2")
    assert two_xv_plus_tvv.degree() == 3


def test_fmt_canonical():
    f = parse("f(x) = 1 + x + x^2")
    assert f.comps[0].fmt(["x"]) == "1 + x + x^2"
    g = parse("g(x,y) = x^2 + x*y + y^2 - 1")
    assert g.comps[0].fmt(["x", "y"]) == "-1 + x^2 + x*y + y^2"


def test_map_equality_across_input_orders():
    f = PolyMap(QQ, ("x", "y"), (parse("f(x,y) = x + 2*y").comps[0],), ("w",))
    g = f.reorder_inputs(("y", "x"))
    assert f.equals(g)
    assert f.equals(PolyMap(QQ, ("x", "y"),
                            (parse("f(x,y) = 2*y + x").comps[0],), ("w",)))
    assert not f.equals(PolyMap(QQ, ("x", "y"),
                                (parse("f(x,y) = x + y").comps[0],), ("w",)))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_poly_ring_laws(seed):
    import random

    rng = random.Random(seed)
    a = random_polymap(rng, 2, 1, 3).comps[0]
    b = random_polymap(rng, 2, 1, 3).comps[0]
    c = random_polymap(rng, 2, 1, 3).comps[0]
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


def test_polymap_add_scale():
    f = parse("f(x) = x^2")
    g = parse("g(x) = x")
    s = f.add(g).scale(Fraction(2))
    assert s.eval([Fraction(3)]) == [24]


def reference_eval(poly: Poly, values) -> object:
    """The evaluator the integer kernel replaced: a power table per variable
    and one ring operation per multiply and add."""
    r = poly.ring
    powers = []
    for x in values:
        row = [r.one()]
        for _ in range(max((e[len(powers)] for e in poly.terms), default=0)):
            row.append(r.mul(row[-1], x))
        powers.append(row)
    acc = r.zero()
    for e, c in poly.terms.items():
        m = c
        for i, k in enumerate(e):
            if k:
                m = r.mul(m, powers[i][k])
        acc = r.add(acc, m)
    return acc


KERNEL_RINGS = (QQ, IntegersMod(2 ** 31 - 1), IntegersMod(6))


def _coefficient(ring, num: int, den: int):
    if ring is QQ:
        return Fraction(num, den)
    while not ring.is_unit(ring.from_int(den)):
        den += 1
    return ring.div(ring.from_int(num), ring.from_int(den))


@st.composite
def kernel_cases(draw):
    """A small map (arity <= 4, degree <= 5), its ring and an input point."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    arity = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 5), min_size=arity, max_size=arity).filter(
        lambda e: sum(e) <= 5).map(tuple)
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6))
    comps = []
    for _ in range(draw(st.integers(0, 3))):
        # most components evaluated in a sampled check are one bare variable
        if draw(st.booleans()):
            comps.append(Poly.var(ring, arity, draw(st.integers(0, arity - 1))))
            continue
        table = draw(st.dictionaries(exps, coeff, max_size=6))
        comps.append(Poly(ring, arity, {e: _coefficient(ring, *c)
                                        for e, c in table.items()}))
    if ring is QQ:
        scalar = st.one_of(st.integers(-9, 9),
                           st.fractions(min_value=-9, max_value=9,
                                        max_denominator=7))
    else:
        scalar = st.integers(-2 * ring.m, 2 * ring.m)
    point = draw(st.lists(scalar, min_size=arity, max_size=arity))
    return ring, PolyMap(ring, tuple(f"x{i}" for i in range(arity)), comps), point


def assert_content_form(p: Poly) -> None:
    """p is canonical: numerators over one positive denominator, no zero
    numerator, gcd(den, numerators) = 1 over Q and den = 1 elsewhere; and a
    Poly built from the coefficients of its `terms` view is the same Poly,
    with the same view, hash and printed form."""
    r = p.ring
    assert type(p.den) is int and p.den > 0
    if r is QQ:
        assert all(type(n) is int and n != 0 for n in p.nums.values())
        assert gcd(p.den, *p.nums.values()) == 1
        assert all(type(c) is Fraction for c in p.terms.values())
    else:
        assert p.den == 1
        if isinstance(r, IntegersMod):
            assert all(type(n) is int and 0 < n < r.m for n in p.nums.values())
        else:
            assert not any(n.is_zero() for n in p.nums.values())
    rebuilt = Poly(r, p.arity, dict(p.terms))
    assert (rebuilt.nums, rebuilt.den) == (p.nums, p.den)
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert rebuilt.terms == p.terms
    names = [f"x{i}" for i in range(p.arity)]
    assert rebuilt.fmt(names) == p.fmt(names)


def _assert_kernel_matches(f: PolyMap, point) -> None:
    for c in f.comps:
        assert_content_form(c)
    want = [reference_eval(c, point) for c in f.comps]
    for got in (f.eval(point), [c.eval(point) for c in f.comps]):
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
    if f.ring is QQ:
        assert all(type(x) is Fraction for x in want)
    else:
        assert all(type(x) is int and 0 <= x < f.ring.m for x in want)


@given(kernel_cases())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference(case):
    ring, f, point = case
    _assert_kernel_matches(f, point)


@pytest.mark.parametrize("ring", KERNEL_RINGS)
def test_kernel_zero_constant_and_unused_variables(ring):
    labels = ("x", "y", "z")
    zero = Poly.zero(ring, 3)
    const = Poly.const(ring, 3, ring.from_int(-5))
    only_y = Poly(ring, 3, {(0, 2, 0): ring.from_int(3), (0, 0, 0): ring.one()})
    f = PolyMap(ring, labels, (zero, const, only_y))
    points = [[0, 0, 0], [-4, 2, 7], [3, -1, -2]]
    if ring is QQ:
        points += [[Fraction(-1, 3), Fraction(5, 2), Fraction(7, 4)],
                   [2, Fraction(-3, 5), 1]]
    for point in points:
        _assert_kernel_matches(f, point)
    assert PolyMap(ring, labels, ()).eval([1, 2, 3]) == []


@pytest.mark.parametrize("ring", KERNEL_RINGS)
def test_kernel_copies_bare_variables(ring):
    labels = ("x", "y", "z")
    x, y, z = (Poly.var(ring, 3, i) for i in range(3))
    bare = PolyMap(ring, labels, (z, x, z))
    assert bare._kernel.tops == ()
    mixed = PolyMap(ring, labels, (y, x * x + z.scale(ring.from_int(3)), x, y * z))
    if ring is QQ:
        points = [[Fraction(-1, 3), 2, Fraction(7, 4)], [0, -5, Fraction(5, 2)]]
    else:
        m = ring.m
        points = [[-1, -m - 2, 3 * m + 1], [m, 2 * m - 1, -m]]
    for point in points:
        for f in (bare, mixed):
            _assert_kernel_matches(f, point)
    if ring is QQ:
        a, b = Fraction(-1, 3), 2
        got = mixed.eval([b, a, Fraction(7, 4)])
        assert got[0] is a
        assert type(got[2]) is Fraction and got[2] == b
    else:
        assert bare.eval([-1, -ring.m - 2, 3 * ring.m + 1]) == [
            1, ring.m - 1, 1]


POSITIONED_RINGS = (QQ, IntegersMod(6), IntegersMod(7))


@st.composite
def positioned_cases(draw):
    """A map with bare coordinates, constant and zero components and
    exponents up to 10 (c04 has law sides of degree 10), a gather list that
    may read one point position for several inputs, an output permutation,
    and a point."""
    ring = draw(st.sampled_from(POSITIONED_RINGS))
    arity = draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 10), min_size=arity, max_size=arity).map(tuple)
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6))
    comps = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("var", "const", "zero", "poly")))
        if kind == "var":
            comps.append(Poly.var(ring, arity, draw(st.integers(0, arity - 1))))
        elif kind == "const":
            comps.append(Poly.const(ring, arity, _coefficient(ring, *draw(coeff))))
        elif kind == "zero":
            comps.append(Poly.zero(ring, arity))
        else:
            table = draw(st.dictionaries(exps, coeff, max_size=5))
            comps.append(Poly(ring, arity, {e: _coefficient(ring, *c)
                                            for e, c in table.items()}))
    size = draw(st.integers(1, 5))
    gather = draw(st.lists(st.integers(0, size - 1), min_size=arity,
                           max_size=arity))
    perm = draw(st.permutations(range(len(comps))))
    if ring is QQ:
        scalar = st.one_of(st.integers(-9, 9),
                           st.fractions(min_value=-9, max_value=9,
                                        max_denominator=7))
    else:
        scalar = st.integers(-2 * ring.m, 2 * ring.m)
    point = draw(st.lists(scalar, min_size=size, max_size=size))
    f = PolyMap(ring, tuple(f"x{i}" for i in range(arity)), comps)
    return ring, f, gather, perm, point


@given(positioned_cases())
@settings(max_examples=300, deadline=None)
def test_positioned_kernel_matches_gathered_eval(case):
    ring, f, gather, perm, point = case
    inputs = [point[i] for i in gather]
    value = f.eval(inputs)
    for got, want in ((f._kernel.at(ring, gather, perm)(ring, point),
                       [value[j] for j in perm]),
                      (f._kernel.at(ring)(ring, inputs), value)):
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


@pytest.mark.parametrize("ring", POSITIONED_RINGS)
def test_positioned_kernel_holds_constants_and_shares_terms(ring):
    x, y = Poly.var(ring, 2, 0), Poly.var(ring, 2, 1)
    three = ring.from_int(3)
    f = PolyMap(ring, ("x", "y"), (x * x * x * y + y, Poly.const(ring, 2, three),
                                   Poly.zero(ring, 2), y))
    k = f._kernel
    # the flat rows hold powers 1..3 of x and power 1 of y, no power 0
    assert k.tops == ((0, 3), (1, 1))
    assert sorted(idx for _, idx in k.comps[0][2]) == [(2, 3), (3,)]
    moved = k.at(ring, [4, 1], [3, 2, 1, 0])
    assert moved.tops == ((4, 3), (1, 1))
    assert moved.comps[0] == (1, 0, ())
    assert moved.comps[1] == (None, None, ring.zero())
    assert moved.comps[2] == (None, None, three)
    assert moved.comps[3][2] is k.comps[0][2]
    point = [7, 2, 0, 0, 5]
    assert moved(ring, point) == [
        ring.from_int(2), ring.zero(), three, ring.from_int(5 ** 3 * 2 + 2)]


def test_coords_hand_out_one_object_per_label():
    x = Poly.coords(QQ, ("a", "b"))
    assert x("a") is x("a") and x("b") is x("b")
    assert x("a") is not Poly.coords(QQ, ("a", "b"))("a")
    with pytest.raises(KeyError):
        x("c")


def test_polymap_is_frozen():
    import dataclasses

    f = parse("f(x) = x^2")
    assert f.eval([Fraction(3)]) == [9]
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.comps = parse("g(x) = x").comps
    assert f.eval([Fraction(3)]) == [9]


def reference_subst(poly: Poly, images, arity: int) -> Poly:
    """The substitution the in-place accumulator replaced: whole-polynomial
    products per variable and one polynomial sum per term."""
    r = poly.ring
    cache = [[Poly.const(r, arity, r.one())] for _ in range(poly.arity)]
    acc = Poly.zero(r, arity)
    for e, c in poly.terms.items():
        m = Poly.const(r, arity, c)
        for i, k in enumerate(e):
            if not k:
                continue
            row = cache[i]
            while len(row) <= k:
                row.append(row[-1] * images[i])
            m = m * row[k]
        acc = acc + m
    return acc


def _exponents(arity: int, degree: int):
    return st.lists(st.integers(0, degree), min_size=arity,
                    max_size=arity).filter(lambda e: sum(e) <= degree).map(tuple)


@st.composite
def subst_images(draw, ring, arity: int):
    """One image over `arity` variables: a variable, a constant, zero, a
    scaled monomial or a linear form x + t*v."""
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6)).map(
        lambda nd: _coefficient(ring, *nd))
    var = st.integers(0, arity - 1).map(lambda j: Poly.var(ring, arity, j))
    kind = draw(st.sampled_from(("var", "const", "zero", "monomial", "linear")))
    if kind == "var":
        return draw(var)
    if kind == "const":
        return Poly.const(ring, arity, draw(coeff))
    if kind == "zero":
        return Poly.zero(ring, arity)
    if kind == "monomial":
        return Poly(ring, arity, {draw(_exponents(arity, 2)): draw(coeff)})
    return draw(var) + draw(var) * draw(var).scale(draw(coeff))


@st.composite
def subst_cases(draw):
    """A polynomial (arity <= 4, degree <= 4), images over a target arity
    <= 4 and the ring.  In about half the cases two inputs x_i, x_j get the
    same image and the polynomial is P - P(x_i <-> x_j) + Q, so that the
    substitution of P - P(x_i <-> x_j) cancels exactly."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    arity = draw(st.integers(1, 4))
    target = draw(st.integers(1, 4))
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6))

    def poly_of(size):
        table = draw(st.dictionaries(_exponents(arity, 4), coeff, max_size=size))
        return Poly(ring, arity, {e: _coefficient(ring, *c) for e, c in table.items()})

    poly = poly_of(6)
    images = [draw(subst_images(ring, target)) for _ in range(arity)]
    if arity > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(arity)))[:2]
        images[j] = images[i]
        swapped = {}
        for e, c in poly.terms.items():
            e = list(e)
            e[i], e[j] = e[j], e[i]
            swapped[tuple(e)] = c
        poly = poly - Poly(ring, arity, swapped) + poly_of(2)
    return ring, poly, images, target


def _assert_subst_matches(poly: Poly, images, target: int) -> Poly:
    got = poly.subst(images, target)
    want = reference_subst(poly, images, target)
    assert got == want
    assert not any(got.ring.is_zero(c) for c in got.terms.values())
    for p in (poly, *images, got, want):
        assert_content_form(p)
    return got


@given(subst_cases(), st.lists(st.integers(-9, 9), min_size=4, max_size=4))
@settings(max_examples=300, deadline=None)
def test_subst_matches_reference(case, point):
    ring, poly, images, target = case
    got = _assert_subst_matches(poly, images, target)
    # and, independently of every product loop, it commutes with evaluation
    point = [ring.from_int(x) for x in point[:target]]
    assert got.eval(point) == poly.eval([im.eval(point) for im in images])


def test_subst_monomial_image_coefficients_vanish_mod_6():
    ring = IntegersMod(6)
    # x0*x1 -> 6*y0*y1, 3*x0 -> 6*y0 and 2*x1^3 -> 54*y1^3 all vanish
    poly = Poly(ring, 2, {(1, 1): 1, (1, 0): 3, (0, 3): 2, (0, 2): 1, (0, 0): 5})
    images = [Poly(ring, 2, {(1, 0): 2}), Poly(ring, 2, {(0, 1): 3})]
    got = _assert_subst_matches(poly, images, 2)
    assert got.terms == {(0, 2): 3, (0, 0): 5}


def test_scale_drops_vanishing_products_mod_6():
    ring = IntegersMod(6)
    two = Poly.const(ring, 1, 2)
    got = Poly(ring, 1, {(1,): 3, (0,): 1}).scale(2)
    assert got.terms == {(0,): 2}
    assert got == two and (got - two).is_zero()
    assert got.fmt(["x"]) == two.fmt(["x"]) == "2"
    assert Poly.var(ring, 1, 0).scale(0).is_zero()


def test_subst_over_polynomial_coefficients():
    base = IntegersMod(6)
    coeffs = PolyRing(base, 1)
    a = Poly.var(base, 1, 0)
    two = coeffs.from_int(2)
    poly = Poly(coeffs, 2, {(2, 1): a, (0, 1): two, (1, 0): coeffs.from_int(3)})
    monomial = [Poly(coeffs, 2, {(0, 1): a}), Poly(coeffs, 2, {(1, 0): two})]
    linear = [Poly.var(coeffs, 2, 0) + Poly.var(coeffs, 2, 1).scale(a),
              Poly.const(coeffs, 2, coeffs.from_int(3))]
    for images in (monomial, linear):
        _assert_subst_matches(poly, images, 2)


QUOTIENT_RINGS = KERNEL_RINGS + (IntegersMod(4),)


@st.composite
def quotient_cases(draw):
    """A polynomial (arity <= 4, degree <= 4) and a layout for
    `_shift_quotient`: old variables, partners of the shifted ones and one or
    two scale variables (t_j, or s_j and t_j) placed at random new indices."""
    ring = draw(st.sampled_from(QUOTIENT_RINGS))
    arity = draw(st.integers(1, 4))
    shifted = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
    new_arity = arity + sum(shifted) + draw(st.integers(1, 2))
    slots = draw(st.permutations(range(new_arity)))
    rest = iter(slots[arity:])
    partner = [next(rest) if s else None for s in shifted]
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6))
    table = draw(st.dictionaries(_exponents(arity, 4), coeff, max_size=6))
    poly = Poly(ring, arity, {e: _coefficient(ring, *c) for e, c in table.items()})
    return poly, new_arity, slots[:arity], partner, list(rest)


@given(quotient_cases())
@settings(max_examples=300, deadline=None)
def test_shift_quotient_matches_subst_subtract_divide(case):
    got = _shift_quotient(*case)
    want = reference_shift_quotient(*case)
    assert got == want
    for q in got:
        assert not any(q.ring.is_zero(c) for c in q.terms.values())
    for q in (case[0], *got, *want):
        assert_content_form(q)


def test_shift_quotient_drops_vanishing_binomials_mod_4():
    # x^4 -> (x + t*v)^4: C(4,1) = 4 and C(4,3) = 4 vanish, C(4,2) = 6 is 2
    ring = IntegersMod(4)
    value, slope = _shift_quotient(Poly(ring, 1, {(4,): 1}), 3, [0], [1], [2])
    assert value.terms == {(4, 0, 0): 1}
    assert slope.terms == {(2, 2, 1): 2, (0, 4, 3): 1}


def reference_ring_ops(a: Poly, b: Poly, c) -> tuple:
    """a + b, a * b and c * a as {exponent: scalar} dicts, summed and
    multiplied with the ring's scalar operations, zeros dropped: the
    arithmetic before the content form."""
    r = a.ring
    total = dict(a.terms)
    for e, v in b.terms.items():
        total[e] = r.add(total.get(e, r.zero()), v)
    prod: dict = {}
    for e1, v1 in a.terms.items():
        for e2, v2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            prod[e] = r.add(prod.get(e, r.zero()), r.mul(v1, v2))
    scaled = {e: r.mul(c, v) for e, v in a.terms.items()}
    return tuple({e: v for e, v in d.items() if not r.is_zero(v)}
                 for d in (total, prod, scaled))


@st.composite
def arithmetic_cases(draw):
    """Two polynomials (arity <= 3, degree <= 3) and a scalar over one ring;
    in about half the cases b is -a plus a small polynomial, so that most of
    a + b cancels."""
    ring = draw(st.sampled_from(QUOTIENT_RINGS))
    arity = draw(st.integers(1, 3))
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6)).map(
        lambda nd: _coefficient(ring, *nd))

    def poly_of(size):
        table = draw(st.dictionaries(_exponents(arity, 3), coeff, max_size=size))
        return Poly(ring, arity, table)

    a = poly_of(5)
    b = -a + poly_of(2) if draw(st.booleans()) else poly_of(5)
    return a, b, draw(coeff)


@given(arithmetic_cases())
@settings(max_examples=300, deadline=None)
def test_add_mul_scale_match_scalar_arithmetic(case):
    a, b, c = case
    got = (a + b, a * b, a.scale(c))
    for p, want in zip(got, reference_ring_ops(a, b, c)):
        assert p.terms == want
        assert p == Poly(a.ring, a.arity, want)
    for p in (a, b, *got, a - b, -a):
        assert_content_form(p)
    assert (a - a).is_zero() and (a - a).den == 1


def test_denominators_cancel():
    half = Fraction(1, 2)
    x_half = Poly(QQ, 1, {(1,): half})
    assert (x_half.nums, x_half.den) == ({(1,): 1}, 2)
    total = x_half + x_half
    assert total == Poly.var(QQ, 1, 0)
    assert (total.nums, total.den) == ({(1,): 1}, 1)
    assert (x_half - x_half).den == 1
    assert x_half.scale(2) == total and x_half.scale(2).den == 1
    # the slope of x^2/2 is x*v + 1/2*t*v^2: the first term's 2/2 cancels
    value, slope = _shift_quotient(Poly(QQ, 1, {(2,): half}), 3, [0], [1], [2])
    assert value == Poly(QQ, 3, {(2, 0, 0): half})
    assert (slope.nums, slope.den) == ({(1, 1, 0): 2, (0, 2, 1): 1}, 2)
    assert slope.terms == {(1, 1, 0): 1, (0, 2, 1): half}
    # (2*x + y)/2 with only x shifted: the slope v has denominator 1
    p = Poly(QQ, 2, {(1, 0): 1, (0, 1): half})
    value, slope = _shift_quotient(p, 4, [0, 1], [2, None], [3])
    assert (slope.nums, slope.den) == ({(0, 0, 1, 0): 1}, 1)
    # substitutions: into x/2, and of x/2 into 4*x^2 + 2*x and x^2
    assert x_half.subst([Poly(QQ, 1, {(1,): Fraction(2)})], 1) == total
    square = Poly(QQ, 1, {(2,): 4, (1,): 2}).subst([x_half], 1)
    assert (square.nums, square.den) == ({(2,): 1, (1,): 1}, 1)
    quarter = Poly(QQ, 1, {(2,): 1}).subst([x_half], 1)
    assert (quarter.nums, quarter.den) == ({(2,): 1}, 4)
    for q in (x_half, total, value, slope, square, quarter):
        assert_content_form(q)


def test_constructor_reduces_coefficients_mod_m():
    ring = IntegersMod(6)
    x = Poly.var(ring, 1, 0)
    seven_x = Poly(ring, 1, {(1,): 7})
    assert seven_x == x and hash(seven_x) == hash(x)
    assert seven_x.fmt(["x"]) == "x"
    assert seven_x.terms == {(1,): 1}
    assert Poly(ring, 1, {(1,): -6, (0,): 12}).is_zero()
    assert_content_form(seven_x)


def test_constructor_rejects_inexact_coefficients():
    with pytest.raises(PolyError):
        Poly(QQ, 1, {(1,): 0.5})
    with pytest.raises(PolyError):
        Poly.const(QQ, 2, 1.0)
    with pytest.raises(PolyError):
        Poly(IntegersMod(7), 1, {(1,): Fraction(1, 2)})
    with pytest.raises(PolyError):
        Poly(PolyRing(QQ, 1), 1, {(1,): Fraction(1, 2)})


# -- packed exponent keys -----------------------------------------------------

# degree bounds at the edges of the 1- and 2-byte exponent fields
EDGE_BOUNDS = (255, 256, 65535, 65536)


def _top_term(draw, arity: int, degree: int) -> tuple:
    """An exponent tuple of total degree `degree`, all on one variable or
    split between two."""
    i, j = draw(st.integers(0, arity - 1)), draw(st.integers(0, arity - 1))
    e = [0] * arity
    part = draw(st.integers(0, degree))
    e[i] += part
    e[j] += degree - part
    return tuple(e)


@st.composite
def packed_mul_cases(draw):
    """Two polynomials over one ring whose degrees add up to a byte-width
    edge (or are small); in about half the cases b is a with some signs
    flipped, so that cross terms of the product cancel."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    arity = draw(st.integers(1, 3))
    bound = draw(st.sampled_from((None,) + EDGE_BOUNDS))
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6)).map(
        lambda nd: _coefficient(ring, *nd))

    def poly_of(degree):
        table = draw(st.dictionaries(_exponents(arity, 3), coeff, max_size=4))
        if degree:
            table[_top_term(draw, arity, degree)] = draw(coeff)
        return Poly(ring, arity, table)

    da = None if bound is None else draw(st.integers(4, bound - 4))
    a = poly_of(da)
    if draw(st.booleans()):
        b = Poly(ring, arity, {e: (c if draw(st.booleans()) else ring.neg(c))
                               for e, c in a.terms.items()})
        if bound is not None:
            b = b + Poly(ring, arity, {_top_term(draw, arity, bound - da): 1})
    else:
        b = poly_of(None if bound is None else bound - da)
    return a, b


@given(packed_mul_cases())
@settings(max_examples=300, deadline=None)
def test_packed_mul_matches_tuple_keys(case):
    a, b = case
    got = a * b
    assert got == reference_mul(a, b)
    assert_content_form(got)
    # powers square on keys packed once
    cube = b ** 3
    assert cube == reference_mul(reference_mul(b, b), b)
    assert_content_form(cube)
    assert b ** 1 == b and b ** 0 == Poly.const(b.ring, b.arity, 1)


@st.composite
def packed_subst_cases(draw):
    """A polynomial in which x0 occurs at most to the first power, and an
    image of x0 with at least two terms, so that the substitution expands;
    that image has the degree that brings the degree bound of the result to
    a byte-width edge, or a small one.  In about half the cases x0 and x1
    get the same image and the polynomial is P - P(x0 <-> x1), so that the
    whole result cancels to zero."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    arity = draw(st.integers(1, 3))
    target = draw(st.integers(1, 3))
    bound = draw(st.sampled_from((None,) + EDGE_BOUNDS))
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6)).map(
        lambda nd: _coefficient(ring, *nd))
    exps = _exponents(arity, 2).map(lambda e: (min(e[0], 1),) + e[1:])
    table = draw(st.dictionaries(exps, coeff, max_size=5))
    table[(1,) + (0,) * (arity - 1)] = draw(coeff)
    poly = Poly(ring, arity, table)
    images = [draw(subst_images(ring, target)) for _ in range(arity)]
    rest = sum(max((e[i] for e in poly.nums), default=0) * images[i].degree()
               for i in range(1, arity))
    d0 = 3 if bound is None else bound - rest
    images[0] = images[0] + Poly(ring, target, {
        _top_term(draw, target, d0): draw(coeff), (0,) * target: 1})
    if arity > 1 and draw(st.booleans()):
        images[1] = images[0]
        swap = [Poly.var(ring, arity, i) for i in (1, 0, *range(2, arity))]
        poly = poly - poly.subst(swap, arity)
    return poly, images, target


@given(packed_subst_cases())
@settings(max_examples=300, deadline=None)
def test_packed_subst_matches_tuple_keys(case):
    poly, images, target = case
    got = poly.subst(images, target)
    assert got == reference_subst_tuple(poly, images, target)
    assert_content_form(got)
    # one call for several polynomials shares the packed powers
    other = poly * poly + Poly.const(poly.ring, poly.arity, 1)
    labels = [f"x{i}" for i in range(poly.arity)]
    m = PolyMap(poly.ring, labels, (poly, other))
    out = m.subst(dict(zip(labels, images)), [f"y{i}" for i in range(target)])
    assert out.comps == (got, reference_subst_tuple(other, images, target))


def _field_sizes(monkeypatch) -> list:
    """Record the field size of every packed product."""
    sizes = []
    pick = polymap._field_code

    def recorded(bound):
        code = pick(bound)
        sizes.append(polymap.array(code).itemsize)
        return code

    monkeypatch.setattr(polymap, "_field_code", recorded)
    return sizes


@pytest.mark.parametrize("ring", KERNEL_RINGS)
@pytest.mark.parametrize("bound,size", [(255, 1), (256, 2), (65535, 2),
                                        (65536, 4), (2 ** 32 - 1, 4),
                                        (2 ** 32, 8), (2 ** 64 - 1, 8)])
def test_packed_fields_at_the_byte_edges(monkeypatch, ring, bound, size):
    sizes = _field_sizes(monkeypatch)
    x, y = Poly.var(ring, 2, 0), Poly.var(ring, 2, 1)
    a = Poly(ring, 2, {(bound - 7, 0): 1, (0, 1): 3, (0, 0): 1})
    b = Poly(ring, 2, {(7, 0): 2, (1, 1): 1})
    got = a * b
    assert sizes == [size]
    assert got == reference_mul(a, b)
    assert got.nums[(bound, 0)] == ring.split(ring.from_int(2))[0]
    # x -> x^(bound - 1) + y, so the degree bound of x*y is `bound`
    image = Poly(ring, 2, {(bound - 1, 0): 1, (0, 1): 1})
    got = (x * y).subst([image, y], 2)
    assert sizes[-1] == size
    assert got == reference_subst_tuple(x * y, [image, y], 2)
    assert got.nums.keys() == {(bound - 1, 1), (0, 2)}


def test_packed_bound_beyond_64_bits_is_refused():
    x = Poly(QQ, 1, {(2 ** 63,): 1, (0,): 1})
    with pytest.raises(PolyError):
        x * x
    with pytest.raises(PolyError):
        Poly(QQ, 1, {(2,): 1}).subst([x], 1)
    assert polymap._field_code(2 ** 64 - 1) == "Q"


def test_packed_products_of_zero_and_empty_arity():
    zero = Poly.zero(QQ, 2)
    assert (zero * Poly.var(QQ, 2, 0)).is_zero()
    c = Poly.const(QQ, 0, Fraction(3, 2))
    assert (c * c).terms == {(): Fraction(9, 4)}


# -- folded one-term images and degree-1 substitutions -------------------------


@st.composite
def fold_subst_cases(draw):
    """Two or three polynomials over arity <= 3 and images over a target
    arity <= 3, one of them with two to four terms, so that the substitution
    is not all monomial.  The other images have one term or many, with
    coefficients that may be zero divisors over Z/6 and Z/4 and may have
    denominators over Q.  `kind` is
    - "mixed": the polynomials have degree <= 4, the first a term of
      degree 2, so that the terms are expanded;
    - "zero": as "mixed", and x_last, which occurs in that term, has a zero
      image;
    - "linear": the polynomials have degree <= 1, with or without a constant
      term."""
    ring = draw(st.sampled_from(QUOTIENT_RINGS))
    kind = draw(st.sampled_from(("mixed", "zero", "linear")))
    arity = draw(st.integers(2 if kind == "zero" else 1, 3))
    target = draw(st.integers(1, 3))
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6)).map(
        lambda nd: _coefficient(ring, *nd)).filter(lambda c: not ring.is_zero(c))

    def many_terms():
        table = draw(st.dictionaries(_exponents(target, 2), coeff,
                                     min_size=2, max_size=4))
        return Poly(ring, target, table)

    def one_term():
        return Poly(ring, target, {draw(_exponents(target, 2)): draw(coeff)})

    images = [many_terms()] + [
        many_terms() if draw(st.booleans()) else one_term()
        for _ in range(arity - 1)]
    images = draw(st.permutations(images))
    degree = 1 if kind == "linear" else 4
    polys = [Poly(ring, arity, draw(st.dictionaries(
        _exponents(arity, degree), coeff, max_size=5)))
        for _ in range(draw(st.integers(2, 3)))]
    if kind != "linear":
        top = [0] * arity
        top[0] += 1
        top[-1] += 1
        polys[0] = polys[0] + Poly(ring, arity, {tuple(top): draw(coeff)})
    if kind == "zero":
        images[-1] = Poly.zero(ring, target)
    return polys, images, target


@given(fold_subst_cases(), st.lists(st.integers(-9, 9), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_folded_and_linear_subst_match_references(case, point):
    polys, images, target = case
    ring = polys[0].ring
    labels = [f"x{i}" for i in range(polys[0].arity)]
    m = PolyMap(ring, labels, polys)
    # one call for all components shares the folded keys and the powers
    out = m.subst(dict(zip(labels, images)), [f"y{i}" for i in range(target)])
    point = [ring.from_int(x) for x in point[:target]]
    for p, got in zip(polys, out.comps):
        assert got == p.subst(images, target)
        assert got == reference_subst_tuple(p, images, target)
        assert got == reference_subst(p, images, target)
        assert_content_form(got)
        assert got.eval(point) == p.eval([im.eval(point) for im in images])


@pytest.mark.parametrize("ring", (IntegersMod(6), IntegersMod(4)))
def test_folded_and_linear_products_vanish_mod_m(ring):
    zero = Poly.zero(ring, 2)
    y0, y1 = Poly.var(ring, 2, 0), Poly.var(ring, 2, 1)
    two = Poly.const(ring, 2, 2)
    # x0 -> 2*y0 folds, x1 -> 2*y1 + y0^2 expands: 2*x0*x1 and x0^2 vanish
    # over Z/4 (2*2*2, 2*2), 3*x0*x1 over Z/6 (3*2*2 = 12)
    images = [y0.scale(2), y1.scale(2) + y0 * y0]
    poly = Poly(ring, 2, {(1, 1): 2, (2, 0): 1, (0, 2): 1, (0, 0): 1})
    if ring.m == 6:
        poly = Poly(ring, 2, {(1, 1): 3, (0, 2): 1, (0, 0): 1})
    got = _assert_subst_matches(poly, images, 2)
    assert got == images[1] * images[1] + Poly.const(ring, 2, 1)
    # degree 1: 2*x0 + 3*x1 + 1 with x0 -> 3*y0 + 2*y1 and x1 -> 2*y0 + 2
    # is 12*y0 + 4*y1 + 7, which keeps 4*y1 + 1 over Z/6 and 3 over Z/4
    images = [y0.scale(3) + y1.scale(2), y0.scale(2) + two]
    poly = Poly(ring, 2, {(1, 0): 2, (0, 1): 3, (0, 0): 1})
    got = _assert_subst_matches(poly, images, 2)
    assert got.terms == {6: {(0, 1): 4, (0, 0): 1}, 4: {(0, 0): 3}}[ring.m]
    # a product with a many-term image that vanishes entirely
    assert Poly(ring, 2, {(1, 1): ring.m // 2}).subst(
        [two, y0 + y1], 2) == zero


def _mul_into_calls(monkeypatch) -> list:
    """Record every call of the packed product kernel."""
    calls = []
    kernel = polymap._mul_into

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(polymap, "_mul_into", counted)
    return calls


@pytest.mark.parametrize("ring", QUOTIENT_RINGS)
def test_products_only_for_many_term_images(monkeypatch, ring):
    y = [Poly.var(ring, 3, j) for j in range(3)]
    x = [Poly.var(ring, 3, i) for i in range(3)]
    c = lambda k: Poly.const(ring, 3, ring.from_int(k))
    many = [y[0] * y[0] + y[1] + c(1), (y[0] + y[2]) ** 3, y[1] * y[2] - y[0]]
    folded = [y[0].scale(ring.from_int(2)), y[1] * y[2], c(5)]
    # degree 1: no product, whatever the images
    linear = [x[0].scale(ring.from_int(3)) - x[1] + c(4), x[2], c(2), x[1]]
    calls = _mul_into_calls(monkeypatch)
    for images in (many, folded, [many[0], folded[1], many[2]]):
        got = _subst_both_ways(linear, images)
        assert calls == []
        assert got == [reference_subst_tuple(p, images, 3) for p in linear]
    # a term whose images all have one term: no product, even though x2
    # (which does not occur) has a many-term image
    poly = x[0] ** 3 * x[1] ** 2 + x[0] * x[1] + c(7)
    images = [folded[0], folded[1], many[1]]
    assert _subst_both_ways([poly], images) == [
        reference_subst_tuple(poly, images, 3)]
    assert calls == []
    # x0*x1, x0 -> one term and x1 -> two terms: exactly one product
    images = [folded[0], y[0] + y[1], many[2]]
    assert (x[0] * x[1]).subst(images, 3) == reference_subst_tuple(
        x[0] * x[1], images, 3)
    assert len(calls) == 1
    # a one-term operand of Poly.__mul__ and a one-term base of __pow__
    del calls[:]
    for a, b in ((many[1], folded[0]), (folded[1], many[0]), (c(3), many[2]),
                 (folded[1], folded[0]), (c(2), c(3))):
        assert a * b == b * a == reference_mul(a, b)
        assert_content_form(a * b)
    for base in (folded[0], folded[1], c(2), -x[2]):
        assert base ** 3 == reference_mul(reference_mul(base, base), base)
        assert_content_form(base ** 3)
    assert calls == []


@pytest.mark.parametrize("ring", QUOTIENT_RINGS)
def test_one_term_powers_square_and_refuse_huge_bounds(ring):
    two = ring.from_int(2)
    base = Poly(ring, 2, {(1, 2): two})
    power = base
    for k in range(1, 10):
        assert base ** k == power
        assert_content_form(base ** k)
        power = reference_mul(power, base)
    # square-and-multiply: an exponent near 2^40 takes some 80 products
    k = 2 ** 40 + 3
    assert (Poly.var(ring, 1, 0) ** k).terms == {(k,): ring.one()}
    if ring != QQ:
        got = Poly(ring, 1, {(1,): two}) ** k
        a = pow(2, k, ring.m)
        assert got.terms == ({(k,): ring.from_int(a)} if a else {})
    assert (Poly.var(ring, 1, 0) ** (2 ** 64 - 1)).terms == {
        (2 ** 64 - 1,): ring.one()}
    with pytest.raises(PolyError):
        Poly.var(ring, 1, 0) ** 2 ** 64
    with pytest.raises(PolyError):
        Poly(ring, 2, {(1, 1): two}) ** 2 ** 63


def _subst_both_ways(polys, images) -> list:
    """The substitution of `images` into `polys`, as one PolyMap.subst call
    and as one Poly.subst per polynomial, which must agree."""
    ring, arity = polys[0].ring, polys[0].arity
    labels = [f"x{i}" for i in range(arity)]
    out = PolyMap(ring, labels, polys).subst(
        dict(zip(labels, images)), [f"y{i}" for i in range(images[0].arity)])
    assert list(out.comps) == [p.subst(images, images[0].arity) for p in polys]
    return list(out.comps)


# -- re-indexing without substitution -----------------------------------------


def test_extend_and_reorder_scatter_exponents(rng):
    for _ in range(20):
        m = random_polymap(rng, 3, 2, 3)
        bigger = list(m.in_labels) + ["u", "w"]
        rng.shuffle(bigger)
        assert m.extend_inputs(bigger) == _extend_by_subst(m, bigger)
        order = list(m.in_labels)
        rng.shuffle(order)
        assert m.reorder_inputs(order) == _extend_by_subst(m, order)
        assert m.extend_inputs(m.in_labels) == m
    c = PolyMap(QQ, (), (Poly.const(QQ, 0, 2),))
    assert c.extend_inputs(("x",)).comps == (Poly.const(QQ, 1, 2),)


def test_extend_and_reorder_refuse_bad_labels():
    m = parse("f(x, y) = x*y + y^2")
    with pytest.raises(PolyError):
        m.extend_inputs(("x", "z"))
    with pytest.raises(PolyError):
        m.extend_inputs(("x", "y", "x"))
    for order in (("x",), ("y", "x", "x"), ("x", "z"), ("x", "y", "z")):
        with pytest.raises(PolyError):
            m.reorder_inputs(order)


# -- substitutions by bare variables and zeros --------------------------------


COORD_RINGS = (QQ, IntegersMod(6), IntegersMod(7))


def _variable_of(image: Poly) -> int | None:
    """j when image is the variable y_j with coefficient one, else None."""
    for j in range(image.arity):
        if image == Poly.var(image.ring, image.arity, j):
            return j
    return None


@st.composite
def coordinate_subst_cases(draw):
    """One to three polynomials over arity <= 4 (degree <= 4, with
    denominators over Q) and one image per variable over a target arity
    <= 5.  Each image is a variable not yet taken, zero, the variable of an
    earlier input (a repeated coordinate), a constant or any image of
    `subst_images`; a case is all variables and zeros about half the time,
    so that most of those re-index."""
    ring = draw(st.sampled_from(COORD_RINGS))
    arity = draw(st.integers(1, 4))
    target = draw(st.integers(1, 5))
    coeff = st.tuples(st.integers(-7, 7), st.integers(1, 6)).map(
        lambda nd: _coefficient(ring, *nd))
    kinds = ("var", "zero") if draw(st.booleans()) else \
        ("var", "zero", "repeat", "const", "other")
    free = list(range(target))
    images = []
    for _ in range(arity):
        kind = draw(st.sampled_from(kinds))
        if kind == "var" and free:
            images.append(Poly.var(ring, target, free.pop(
                draw(st.integers(0, len(free) - 1)))))
        elif kind == "repeat" and images:
            images.append(draw(st.sampled_from(images)))
        elif kind == "const":
            images.append(Poly.const(ring, target, draw(coeff)))
        elif kind == "other":
            images.append(draw(subst_images(ring, target)))
        else:
            images.append(Poly.zero(ring, target))
    polys = [Poly(ring, arity, draw(st.dictionaries(
        _exponents(arity, 4), coeff, max_size=6)))
        for _ in range(draw(st.integers(1, 3)))]
    return polys, images, target


@given(coordinate_subst_cases(),
       st.lists(st.integers(-9, 9), min_size=5, max_size=5))
@settings(max_examples=300, deadline=None)
def test_coordinate_subst_matches_reference(case, point):
    polys, images, target = case
    ring = polys[0].ring
    occurring = {i for p in polys for e in p.nums
                 for i, k in enumerate(e) if k}
    variables = [_variable_of(images[i]) for i in occurring
                 if not images[i].is_zero()]
    reindexed = None not in variables and \
        len(set(variables)) == len(variables)
    assert (polymap._coordinate_index(polys, images) is not None) == reindexed
    point = [ring.from_int(x) for x in point[:target]]
    for p, got in zip(polys, _subst_both_ways(polys, images)):
        assert got == reference_subst(p, images, target)
        assert_content_form(got)
        assert got.eval(point) == p.eval([im.eval(point) for im in images])


@pytest.mark.parametrize("ring", COORD_RINGS)
def test_coordinate_subst_packs_nothing(monkeypatch, ring):
    calls = []
    packed = polymap._packed

    def counted(*args):
        calls.append(args)
        return packed(*args)

    monkeypatch.setattr(polymap, "_packed", counted)
    x = [Poly.var(ring, 3, i) for i in range(3)]
    y = [Poly.var(ring, 4, j) for j in range(4)]
    zero = Poly.zero(ring, 4)
    half = Poly.const(ring, 3, ring.from_int(3)) if ring != QQ \
        else Poly.const(QQ, 3, Fraction(1, 2))
    poly = x[0] ** 3 * x[1] + half * x[1] ** 2 * x[2] - x[0] * x[2] + half
    # distinct variables, a zero, and a variable shared with an input that
    # does not occur
    for images, p in (([y[2], y[0], y[3]], poly), ([y[2], y[0], zero], poly),
                      ([y[1], y[1], y[0]], x[1] ** 2 * x[2] + half)):
        got = _subst_both_ways([p], images)[0]
        assert got == reference_subst(p, images, 4)
        assert_content_form(got)
    assert calls == []
    # two inputs that occur share a variable: expanded, as before
    images = [y[2], y[2], zero]
    assert _subst_both_ways([poly], images) == [
        reference_subst(poly, images, 4)]
    assert calls
