"""Exact commutative coefficient rings: arbitrary-precision rationals and Z/m.

All core arithmetic in the package runs over one of these rings; there is no
floating point anywhere in the computational path.

Besides its scalars (Fractions over Q, reduced ints over Z/m) a ring has a
content form: a scalar as a canonical (numerator, denominator) pair of ints,
the denominator positive and coprime to the numerator over Q, and 1 over
Z/m, so that two pairs are equal exactly when their scalars are.  `split`
and `join` move between the forms, `content` reduces a ratio straight to its
pair, and `draw` samples pairs.  Polynomials keep their coefficients in
content form (`polymap.Poly`), and sampled law checks keep their points in
it from the draw to the comparison (`checks`).
"""
from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import gcd
from typing import Any

Scalar = Any  # Fraction for the rationals, int for Z/m


class RingError(ValueError):
    """Domain error in ring arithmetic (non-unit inversion, bad modulus...)."""


class Ring:
    """Common interface of the exact coefficient rings."""

    kind: str

    def zero(self) -> Scalar:
        raise NotImplementedError

    def one(self) -> Scalar:
        raise NotImplementedError

    def from_int(self, k: int) -> Scalar:
        raise NotImplementedError

    def from_ratio(self, num: int, den: int) -> Scalar:
        """The scalar num/den of two integers, den > 0."""
        raise NotImplementedError

    def from_rational(self, x) -> Scalar:
        """The scalar of an exact rational x (an int or a Fraction)."""
        return self.from_ratio(x.numerator, x.denominator)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        raise NotImplementedError

    def neg(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def is_zero(self, a: Scalar) -> bool:
        raise NotImplementedError

    def is_unit(self, a: Scalar) -> bool:
        raise NotImplementedError

    def inv(self, a: Scalar) -> Scalar:
        raise NotImplementedError

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def parse(self, text: str) -> Scalar:
        raise NotImplementedError

    def fmt(self, a: Scalar) -> str:
        return str(a)

    # -- polynomial coefficients in content form (see `polymap.Poly`) -------
    # A polynomial stores numerators over one positive integer denominator,
    # which is 1 outside Q.

    def split(self, c) -> tuple:
        """An exact scalar c as (numerator, denominator); RingError when c is
        not a scalar of this ring."""
        raise NotImplementedError

    def join(self, num, den: int) -> Scalar:
        """The scalar num/den; outside Q den is 1 and num is the scalar."""
        return num

    def content(self, num: int, den: int) -> tuple:
        """The canonical pair of num/den, den > 0: `split(from_ratio(num,
        den))` without the scalar in between."""
        return self.split(self.from_ratio(num, den))

    def numerator_ops(self) -> tuple:
        """(add, mul, neg, is_zero, from_int) on numerators: outside Q a
        numerator is a scalar, so these are the ring's own operations."""
        return self.add, self.mul, self.neg, self.is_zero, self.from_int

    # random element generators; `rng` is a random.Random
    def draw(self, rng, units, span: int = 6) -> list:
        """One canonical pair per flag of `units`, drawn in order: a unit
        where the flag is set, any value elsewhere.  `span` bounds the
        numerators over Q; Z/m draws from all of Z/m."""
        raise NotImplementedError

    def rand(self, rng, span: int = 6) -> Scalar:
        """One value of `draw`, as a scalar."""
        return self.join(*self.draw(rng, (False,), span)[0])

    def rand_unit(self, rng, span: int = 6) -> Scalar:
        """One unit of `draw`, as a scalar."""
        return self.join(*self.draw(rng, (True,), span)[0])

    def __repr__(self) -> str:
        return self.kind


class Rationals(Ring):
    """The field Q with Fraction scalars (normalized, coprime, exact)."""

    kind = "rationals"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def from_ratio(self, num, den):
        return Fraction(num, den)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise RingError("0 is not invertible in the rationals")
        return 1 / Fraction(a)

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise RingError(f"not a rational: {text!r}") from exc

    def fmt(self, a):
        return str(a)

    def split(self, c):
        if not isinstance(c, (int, Fraction)):
            raise RingError(f"not an exact rational: {c!r}")
        return c.numerator, c.denominator

    def join(self, num, den):
        return Fraction(num, den)

    def content(self, num, den):
        g = gcd(num, den)
        return num // g, den // g

    def numerator_ops(self):
        """Over Q the numerators are ints: plain int operators."""
        return operator.add, operator.mul, operator.neg, operator.not_, int

    def draw(self, rng, units, span: int = 6):
        """The pairs of Fraction(rng.randint(-span, span), rng.randint(1,
        4)), a unit drawn again while it is 0, read off `_small_pairs`: the
        row and the column are drawn as those `randint`s draw them
        (`Random._randbelow`: getrandbits of the bit length, again while out
        of range), so the values and the generator state after them are the
        same, and no Fraction is built."""
        rows = _small_pairs(span)
        getrandbits = rng.getrandbits
        height, k = len(rows), len(rows).bit_length()
        out = []
        for unit in units:
            while True:
                r = getrandbits(k)
                while r >= height:
                    r = getrandbits(k)
                c = getrandbits(3)  # 3 = (4).bit_length(), four columns
                while c >= 4:
                    c = getrandbits(3)
                if r != span or not unit:
                    break
            out.append(rows[r][c])
        return out

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(self.kind)


@functools.cache
def _small_pairs(span: int) -> tuple:
    """The values of `Rationals.draw`: one row per numerator n in
    -span..span, each row the canonical pairs of n/d for d in 1..4 (row
    span, n = 0, is (0, 1) four times).  Every sampler in the package passes
    span 2, 3 or the default 6, so the cache holds at most three tables of
    20 to 52 pairs; each is built on first use."""
    return tuple(tuple((n // gcd(n, d), d // gcd(n, d)) for d in range(1, 5))
                 for n in range(-span, span + 1))


class IntegersMod(Ring):
    """The ring Z/m, m >= 2; scalars are ints reduced to 0..m-1."""

    kind = "integers-mod-m"

    def __init__(self, m: int):
        if m < 2:
            raise RingError(f"modulus must be >= 2, got {m}")
        self.m = m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def from_int(self, k):
        return k % self.m

    def from_ratio(self, num, den):
        if den != 1:
            num *= self.inv(den % self.m)
        return num % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def is_zero(self, a):
        return a % self.m == 0

    def is_unit(self, a):
        return gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a} is not a unit mod {self.m}")
        return pow(a, -1, self.m)

    def parse(self, text):
        try:
            return int(text) % self.m
        except ValueError as exc:
            raise RingError(f"not an integer: {text!r}") from exc

    def split(self, c):
        if not isinstance(c, int):
            raise RingError(f"not an integer mod {self.m}: {c!r}")
        return c % self.m, 1

    def content(self, num, den):
        return self.from_ratio(num, den), 1

    def draw(self, rng, units, span: int = 6):
        """The pairs (x, 1) of x = rng.randrange(m), a unit drawn again while
        gcd(x, m) is not 1, with the generator calls of `randrange`
        (`Random._randbelow`)."""
        m = self.m
        getrandbits, k = rng.getrandbits, m.bit_length()
        out = []
        for unit in units:
            while True:
                x = getrandbits(k)
                while x >= m:
                    x = getrandbits(k)
                if not unit or gcd(x, m) == 1:
                    break
            out.append((x, 1))
        return out

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.m == self.m

    def __hash__(self):
        return hash((self.kind, self.m))

    def __repr__(self):
        return f"Z/{self.m}"


QQ = Rationals()


def ring_from_spec(text: str) -> Ring:
    """Parse a ring spec: "rational" or "mod:<m>"."""
    if text in ("rational", "rationals", "QQ"):
        return QQ
    if text.startswith("mod:"):
        return IntegersMod(int(text[4:]))
    raise RingError(f"unknown ring spec: {text!r}")
