from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cubicalc.parser import ParseError, parse
from cubicalc.polymap import Poly, PolyMap, PolyRing, _shift_quotient
from cubicalc.rings import QQ, IntegersMod

from conftest import random_polymap
from reference_checks import reference_shift_quotient


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


def _assert_kernel_matches(f: PolyMap, point) -> None:
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
    assert got == reference_subst(poly, images, target)
    assert not any(got.ring.is_zero(c) for c in got.terms.values())
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
    assert got == reference_shift_quotient(*case)
    for q in got:
        assert not any(q.ring.is_zero(c) for c in q.terms.values())


def test_shift_quotient_drops_vanishing_binomials_mod_4():
    # x^4 -> (x + t*v)^4: C(4,1) = 4 and C(4,3) = 4 vanish, C(4,2) = 6 is 2
    ring = IntegersMod(4)
    value, slope = _shift_quotient(Poly(ring, 1, {(4,): 1}), 3, [0], [1], [2])
    assert value.terms == {(4, 0, 0): 1}
    assert slope.terms == {(2, 2, 1): 2, (0, 4, 3): 1}
