"""Generalized dual numbers: the scalar-extension algebras A_t.

An ExtElement over generators alpha = {a_1 < ... < a_k} with scales t is an
element of K[X_{a_1},...,X_{a_k}] / (X_i^2 - t_i X_i), stored as a dense
coefficient vector indexed by the sub-bitmasks of alpha.  With all t_i = 0
this is the truncated multilinear (tangent) algebra; with t_i units it splits
into copies of K.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .polymap import PolyMap, PolyRing, _subst
from .rings import Ring, RingError


class ExtError(ValueError):
    pass


@dataclass(frozen=True)
class ExtElement:
    """Element of A_t over a generator set; coeffs indexed by subsets of alpha.

    Every scale and coefficient must be an exact scalar of the ring
    (`Ring.split`), and is stored reduced, as a `Poly` stores its
    coefficients; the arithmetic below builds its results from checked
    elements with ring operations, through `_made`, which skips the checks.
    """

    ring: Ring
    alpha: tuple  # sorted generator names (ints)
    t: tuple      # scale per generator, aligned with alpha
    coeffs: tuple  # length 2^len(alpha), subset-bitmask indexed

    def __post_init__(self):
        if len(self.t) != len(self.alpha):
            raise ExtError("one scale per generator required")
        if len(self.coeffs) != 1 << len(self.alpha):
            raise ExtError("coefficient vector must have 2^|alpha| entries")
        object.__setattr__(self, "t", self._reduced(self.t))
        object.__setattr__(self, "coeffs", self._reduced(self.coeffs))

    def _reduced(self, values) -> tuple:
        ring = self.ring
        out = []
        for c in values:
            try:
                out.append(ring.join(*ring.split(c)))
            except RingError as exc:
                raise ExtError(f"{c!r} is not a scalar of {ring!r}") from exc
        return tuple(out)

    @classmethod
    def _made(cls, ring: Ring, alpha: tuple, t: tuple,
              coeffs: tuple) -> "ExtElement":
        """An element computed from checked ones, built without the checks."""
        e = object.__new__(cls)
        for name, value in (("ring", ring), ("alpha", alpha), ("t", t),
                            ("coeffs", coeffs)):
            object.__setattr__(e, name, value)
        return e

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, ring: Ring, alpha, t, c) -> "ExtElement":
        alpha = tuple(alpha)
        coeffs = [ring.zero()] * (1 << len(alpha))
        coeffs[0] = c
        return cls(ring, alpha, tuple(t), tuple(coeffs))

    @classmethod
    def one(cls, ring: Ring, alpha, t) -> "ExtElement":
        return cls.scalar(ring, alpha, t, ring.one())

    @classmethod
    def generator(cls, ring: Ring, alpha, t, name) -> "ExtElement":
        alpha = tuple(alpha)
        i = alpha.index(name)
        coeffs = [ring.zero()] * (1 << len(alpha))
        coeffs[1 << i] = ring.one()
        return cls(ring, alpha, tuple(t), tuple(coeffs))

    @classmethod
    def from_subset_coeffs(cls, ring: Ring, alpha, t, table) -> "ExtElement":
        """Build from a mapping {frozenset of generator names: coefficient}."""
        alpha = tuple(alpha)
        coeffs = [ring.zero()] * (1 << len(alpha))
        for subset, c in table.items():
            m = 0
            for name in subset:
                m |= 1 << alpha.index(name)
            coeffs[m] = c
        return cls(ring, alpha, tuple(t), tuple(coeffs))

    def coeff(self, subset) -> object:
        m = 0
        for name in subset:
            m |= 1 << self.alpha.index(name)
        return self.coeffs[m]

    def _compat(self, other: "ExtElement") -> None:
        if self.ring != other.ring or self.alpha != other.alpha or self.t != other.t:
            raise ExtError("elements live in different extension algebras")


def ext_add(a: ExtElement, b: ExtElement) -> ExtElement:
    a._compat(b)
    r = a.ring
    return ExtElement._made(r, a.alpha, a.t, tuple(
        r.add(x, y) for x, y in zip(a.coeffs, b.coeffs)))


def _submasks(m: int) -> list:
    """Every submask of the bitmask m, from m down to 0."""
    out = [m]
    while out[-1]:
        out.append((out[-1] - 1) & m)
    return out


class _Split:
    """The split transform of A_t and its product, for one ring and scales.

    A unit scale t splits its factor as K x K by X -> (0, t): (c0, c1) ->
    (c0, c0 + t c1), back by c1 = (s1 - s0) / t; over the unit generators U
    this is c_m times t^(m & U), then sums along each bit of U, O(k 2^k).
    Products are slot by slot over U; over the `rest` they are the subset
    product: at t = 0 a disjoint-subset convolution over the submasks
    (3^|rest| pairs), at a nonzero non-unit (composite Z/m) overlaps s
    weighted by t^s.
    """

    __slots__ = ("ring", "size", "tpow", "weights", "inverses", "units",
                 "slots", "rest", "nonzero")

    def __init__(self, ring: Ring, t: tuple):
        tpow, units = [ring.one()], 0  # tpow[m] = t^m
        for i, s in enumerate(t):
            tpow += [ring.mul(w, s) for w in tpow]
            units |= ring.is_unit(s) << i
        self.ring, self.size, self.tpow = ring, 1 << len(t), tpow
        self.weights = [tpow[m & units] for m in range(self.size)]
        self.inverses = [ring.inv(w) for w in self.weights]
        self.units = [(1 << i, [m for m in range(self.size) if m >> i & 1])
                      for i in range(len(t)) if units >> i & 1]
        self.slots = _submasks(units)
        self.rest = self.size - 1 - units
        self.nonzero = sum(1 << i for i, s in enumerate(t)
                           if self.rest >> i & 1 and not ring.is_zero(s))

    def split(self, coeffs) -> list:
        mul = self.ring.mul
        return self._sums([mul(w, c) for w, c in zip(self.weights, coeffs)], 1)

    def unsplit(self, v: list) -> list:
        mul = self.ring.mul
        return [mul(w, x) for w, x in zip(self.inverses, self._sums(v, -1))]

    def _sums(self, v: list, sign: int) -> list:
        """v[m] plus (sign 1) or minus (sign -1) v[m ^ bit] along each unit
        bit, on numerators over one denominator (`Ring.split`; ints over Q)."""
        ring = self.ring
        add, mul, neg, _, from_int = ring.numerator_ops()
        parts = [ring.split(c) for c in v]
        den = lcm(*(d for _, d in parts))
        nums = [n if d == den else mul(n, from_int(den // d)) for n, d in parts]
        for bit, masks in self.units:
            for m in masks:
                nums[m] = add(nums[m], nums[m ^ bit] if sign > 0
                              else neg(nums[m ^ bit]))
        return [ring.join(n, den) for n in nums]

    def mul(self, a: list, b: list) -> list:
        add, mul = self.ring.add, self.ring.mul
        if not self.rest:
            return [mul(x, y) for x, y in zip(a, b)]
        out = [None] * self.size
        for d in _submasks(self.rest):
            # beta | gamma = delta with overlap s: weight t^s, None for s = 0
            pairs = [(g, d ^ g | s, self.tpow[s] if s else None)
                     for g in _submasks(d) for s in _submasks(g & self.nonzero)]
            for u in self.slots:
                acc = None
                for beta, gamma, w in pairs:
                    p = mul(a[u | beta], b[u | gamma])
                    if w is not None:
                        p = mul(w, p)
                    acc = p if acc is None else add(acc, p)
                out[u | d] = acc
        return out


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Product induced by X_i^2 = t_i X_i:

    (a*b)_delta = sum over beta | gamma = delta of
                  a_beta * b_gamma * prod_{i in beta & gamma} t_i,

    computed in split coordinates (`_Split`).
    """
    a._compat(b)
    split = _Split(a.ring, a.t)
    prod = split.mul(split.split(a.coeffs), split.split(b.coeffs))
    return ExtElement._made(a.ring, a.alpha, a.t, tuple(split.unsplit(prod)))


def ext_split(a: ExtElement, t=None) -> tuple:
    """Split A_t over one generator into K x K via X -> (0, t); t must be a unit."""
    if len(a.alpha) != 1:
        raise ExtError("ext_split needs a single-generator element")
    r = a.ring
    tt = a.t[0] if t is None else t
    if not r.is_unit(tt):
        raise RingError(f"scale {tt} is not a unit; the algebra does not split")
    return tuple(_Split(r, (tt,)).split(a.coeffs))


def eval_over_extension(f: PolyMap, base: list[ExtElement]) -> list[ExtElement]:
    """Evaluate a polynomial map on extension-algebra arguments, exactly,
    in split coordinates (`_Split`): with unit scales each slot of the
    images is f at that slot of the arguments (a substitution over a
    `PolyRing`), otherwise a sum of products of the arguments' powers."""
    if len(base) != f.in_arity:
        raise ExtError(f"expected {f.in_arity} arguments, got {len(base)}")
    ref = base[0]
    for b in base[1:]:
        ref._compat(b)
    ring = ref.ring
    split = _Split(ring, ref.t)
    xs = [split.split(b.coeffs) for b in base]
    if not split.rest:
        at = (lambda p: _subst(f.comps, p, ring.arity)) \
            if isinstance(ring, PolyRing) else f.eval
        slots = [at([x[u] for x in xs]) for u in range(split.size)]
        images = [[s[c] for s in slots] for c in range(f.out_arity)]
    else:
        add, mul = ring.add, ring.mul
        one = split.split([ring.one()] + [ring.zero()] * (split.size - 1))
        powers = [[one, x] for x in xs]
        images = []
        for comp in f.comps:
            acc = [ring.zero()] * split.size
            for exps, n in zip(comp.terms, comp.nums.values()):
                term = one
                for row, e in zip(powers, exps):
                    if e:
                        while len(row) <= e:
                            row.append(split.mul(row[-1], row[1]))
                        term = row[e] if term is one else split.mul(term, row[e])
                c = ring.from_ratio(n, comp.den)
                acc = [add(x, mul(c, y)) for x, y in zip(acc, term)]
            images.append(acc)
    return [ExtElement._made(ring, ref.alpha, ref.t, tuple(split.unsplit(v)))
            for v in images]


def ext_automorphism(a: ExtElement, perm: dict) -> ExtElement:
    """Relabel generators (and scales) by a permutation of generator names.

    The result lives over the same sorted generator tuple with permuted scales;
    used to check that S_n acts by ring automorphisms.
    """
    r = a.ring
    alpha = a.alpha
    k = len(alpha)
    idx = {name: i for i, name in enumerate(alpha)}
    new_t = [None] * k
    for name in alpha:
        new_t[idx[perm[name]]] = a.t[idx[name]]
    out = [r.zero()] * (1 << k)
    for m, c in enumerate(a.coeffs):
        nm = 0
        for i in range(k):
            if m & (1 << i):
                nm |= 1 << idx[perm[alpha[i]]]
        out[nm] = c
    return ExtElement._made(r, alpha, tuple(new_t), tuple(out))
