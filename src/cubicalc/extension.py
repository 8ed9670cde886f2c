"""Generalized dual numbers: the scalar-extension algebras A_t.

An ExtElement over generators alpha = {a_1 < ... < a_k} with scales t is an
element of K[X_{a_1},...,X_{a_k}] / (X_i^2 - t_i X_i), stored as a dense
coefficient vector indexed by the sub-bitmasks of alpha.  With all t_i = 0
this is the truncated multilinear (tangent) algebra; with t_i units it splits
into copies of K.
"""
from __future__ import annotations

from dataclasses import dataclass

from .polymap import PolyMap
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


def ext_neg(a: ExtElement) -> ExtElement:
    r = a.ring
    return ExtElement._made(r, a.alpha, a.t, tuple(r.neg(x) for x in a.coeffs))


def ext_scale(a: ExtElement, c) -> ExtElement:
    r = a.ring
    return ExtElement(r, a.alpha, a.t, tuple(r.mul(c, x) for x in a.coeffs))


def ext_mul(a: ExtElement, b: ExtElement) -> ExtElement:
    """Product induced by X_i^2 = t_i X_i:

    (a*b)_delta = sum over beta | gamma = delta of
                  a_beta * b_gamma * prod_{i in beta & gamma} t_i.
    """
    a._compat(b)
    r = a.ring
    k = len(a.alpha)
    out = [r.zero()] * (1 << k)
    for mb, cb in enumerate(a.coeffs):
        if r.is_zero(cb):
            continue
        for mg, cg in enumerate(b.coeffs):
            if r.is_zero(cg):
                continue
            w = r.mul(cb, cg)
            common = mb & mg
            i = 0
            while common:
                if common & 1:
                    w = r.mul(w, a.t[i])
                common >>= 1
                i += 1
            d = mb | mg
            out[d] = r.add(out[d], w)
    return ExtElement._made(r, a.alpha, a.t, tuple(out))


def ext_pow(a: ExtElement, k: int) -> ExtElement:
    acc = ExtElement.one(a.ring, a.alpha, a.t)
    for _ in range(k):
        acc = ext_mul(acc, a)
    return acc


def ext_split(a: ExtElement, t=None) -> tuple:
    """Split A_t over one generator into K x K via X -> (0, t); t must be a unit."""
    if len(a.alpha) != 1:
        raise ExtError("ext_split needs a single-generator element")
    r = a.ring
    tt = a.t[0] if t is None else t
    if not r.is_unit(tt):
        raise RingError(f"scale {tt} is not a unit; the algebra does not split")
    c0, c1 = a.coeffs
    return (c0, r.add(c0, r.mul(tt, c1)))


def eval_over_extension(f: PolyMap, base: list[ExtElement]) -> list[ExtElement]:
    """Evaluate a polynomial map on extension-algebra arguments, exactly."""
    if len(base) != f.in_arity:
        raise ExtError(f"expected {f.in_arity} arguments, got {len(base)}")
    ref = base[0]
    for b in base[1:]:
        ref._compat(b)
    r = f.ring
    out = []
    for comp in f.comps:
        # the numerators first, then one division by the denominator
        acc = ExtElement.scalar(ref.ring, ref.alpha, ref.t, ref.ring.zero())
        for exps, c in comp.nums.items():
            term = ExtElement.scalar(ref.ring, ref.alpha, ref.t, r.join(c, 1))
            for i, e in enumerate(exps):
                if e:
                    term = ext_mul(term, ext_pow(base[i], e))
            acc = ext_add(acc, term)
        if comp.den != 1:
            acc = ext_scale(acc, r.from_ratio(1, comp.den))
        out.append(acc)
    return out


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
