"""Exact commutative coefficient rings: arbitrary-precision rationals and Z/m.

All core arithmetic in the package runs over one of these rings; there is no
floating point anywhere in the computational path.
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

    def numerator_ops(self) -> tuple:
        """(add, mul, neg, is_zero, from_int) on numerators: outside Q a
        numerator is a scalar, so these are the ring's own operations."""
        return self.add, self.mul, self.neg, self.is_zero, self.from_int

    # random element generators; `rng` is a random.Random
    def rand(self, rng, span: int = 6) -> Scalar:
        raise NotImplementedError

    def rand_unit(self, rng, span: int = 6) -> Scalar:
        x = self.rand(rng, span)
        while not self.is_unit(x):
            x = self.rand(rng, span)
        return x

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

    def from_rational(self, x):
        return x if type(x) is Fraction else Fraction(x.numerator, x.denominator)

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

    def numerator_ops(self):
        """Over Q the numerators are ints: plain int operators."""
        return operator.add, operator.mul, operator.neg, operator.not_, int

    def rand(self, rng, span: int = 6):
        """Fraction(rng.randint(-span, span), rng.randint(1, 4)), read off a
        table: `choice` makes the same `_randbelow` calls as those two
        `randint`s, so the value and the generator state after it are the
        same, and no Fraction is built per draw."""
        return rng.choice(rng.choice(_small_rationals(span)))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(self.kind)


@functools.cache
def _small_rationals(span: int) -> tuple:
    """The values of `Rationals.rand`: one row per numerator n in
    -span..span, each row the fractions n/d for d in 1..4.  Every sampler in
    the package passes span 2, 3 or the default 6, so the cache holds at most
    three tables of 20 to 52 fractions."""
    return tuple(tuple(Fraction(n, d) for d in range(1, 5))
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

    def rand(self, rng, span: int = 6):
        return rng.randrange(self.m)

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
