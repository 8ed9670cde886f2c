"""Exact sparse multivariate polynomials and polynomial maps.

A Poly is a map from exponent vectors to nonzero ring coefficients.  A PolyMap
bundles several components over a common labelled variable list; all structure
maps, laws and difference quotients in the package are PolyMaps.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb, lcm
from operator import add as _add_ints
from typing import Any, Callable, Iterable, Mapping, Sequence

from .rings import Ring, RingError

Label = Any  # hashable; str for parsed maps, CoordLabel for constructions


class PolyError(ValueError):
    pass


class ExactDivisionError(PolyError):
    """An exact division left a remainder: a broken internal invariant, which
    the CLI reports with exit code 3.  Slopes are expanded term by term
    (`_shift_quotient`) and divide nothing, so no derivation raises it."""


class Poly:
    """Sparse polynomial: {exponent tuple: coefficient}, zero coeffs never stored."""

    __slots__ = ("ring", "arity", "terms")

    def __init__(self, ring: Ring, arity: int, terms: dict | None = None):
        self.ring = ring
        self.arity = arity
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != arity:
                    raise PolyError(f"exponent vector {exps} has wrong length")
                if not ring.is_zero(c):
                    self.terms[tuple(exps)] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, arity: int) -> "Poly":
        return cls(ring, arity)

    @classmethod
    def const(cls, ring: Ring, arity: int, c) -> "Poly":
        return cls(ring, arity, {(0,) * arity: c})

    @classmethod
    def var(cls, ring: Ring, arity: int, i: int) -> "Poly":
        e = [0] * arity
        e[i] = 1
        return cls(ring, arity, {tuple(e): ring.one()})

    # -- basic algebra -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._compat(other)
        terms = dict(self.terms)
        r = self.ring
        for e, c in other.terms.items():
            s = r.add(terms.get(e, r.zero()), c)
            if r.is_zero(s):
                terms.pop(e, None)
            else:
                terms[e] = s
        return _from_terms(r, self.arity, terms)

    def __neg__(self) -> "Poly":
        return _from_terms(self.ring, self.arity,
                           {e: self.ring.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._compat(other)
        return _from_terms(self.ring, self.arity,
                           _mul_into({}, self.ring, self.terms, other.terms))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise PolyError("negative power of a polynomial")
        result = Poly.const(self.ring, self.arity, self.ring.one())
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "Poly":
        """c times self; a product that vanishes in the ring (c = 0, or a
        zero divisor over Z/m) is dropped."""
        r = self.ring
        prods = ((e, r.mul(c, v)) for e, v in self.terms.items())
        return _from_terms(r, self.arity,
                           {e: p for e, p in prods if not r.is_zero(p)})

    def _compat(self, other: "Poly") -> None:
        if self.ring != other.ring or self.arity != other.arity:
            raise PolyError("polynomials over different rings or arities")

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree over all variables; degree(0) = 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    # -- evaluation and substitution ----------------------------------------

    def eval(self, values: Sequence) -> Any:
        return _Kernel((self,))(self.ring, values)[0]

    def subst(self, images: Sequence["Poly"], arity: int) -> "Poly":
        """Substitute images[i] (all over a common new variable list) for x_i.

        The result is summed into one term dict in place.  When every image
        has at most one term (a variable, a scaled monomial, a constant or
        zero), each term of self maps to one term and no product is expanded.
        """
        if len(images) != self.arity:
            raise PolyError("substitution image count mismatch")
        if all(len(im.terms) <= 1 for im in images):
            terms = self._subst_monomial(images, arity)
        else:
            terms = self._subst_expand(images, arity)
        return _from_terms(self.ring, arity, terms)

    def _subst_monomial(self, images: Sequence["Poly"], arity: int) -> dict:
        r = self.ring
        add, mul, is_zero = r.add, r.mul, r.is_zero
        one = r.one()
        # per image: None for zero, else (sparse exponents, coefficient
        # powers or None when the coefficient is one)
        specs = []
        for im in images:
            if not im.terms:
                specs.append(None)
                continue
            (f, a), = im.terms.items()
            powers = None if is_zero(r.sub(a, one)) else [one, a]
            specs.append((tuple((j, k) for j, k in enumerate(f) if k), powers))
        acc: dict = {}
        for e, c in self.terms.items():
            out = [0] * arity
            for i, k in enumerate(e):
                if not k:
                    continue
                spec = specs[i]
                if spec is None:
                    break
                for j, f in spec[0]:
                    out[j] += k * f
                powers = spec[1]
                if powers is not None:
                    while len(powers) <= k:
                        powers.append(mul(powers[-1], powers[1]))
                    c = mul(c, powers[k])
            else:
                e_out = tuple(out)
                old = acc.get(e_out)
                if old is not None:
                    c = add(old, c)
                if is_zero(c):
                    acc.pop(e_out, None)
                else:
                    acc[e_out] = c
        return acc

    def _subst_expand(self, images: Sequence["Poly"], arity: int) -> dict:
        r = self.ring
        zero = (0,) * arity
        unit = {zero: r.one()}
        rows = [[unit] for _ in images]  # rows[i][k]: terms of images[i]**k
        acc: dict = {}
        for e, c in self.terms.items():
            # c times the powers, the last product summed straight into acc
            prod = {zero: c}
            last = unit
            for i, k in enumerate(e):
                if not k:
                    continue
                row = rows[i]
                while len(row) <= k:
                    row.append(_mul_into({}, r, row[-1], images[i].terms))
                if last is not unit:
                    prod = _mul_into({}, r, prod, last)
                last = row[k]
            _mul_into(acc, r, prod, last)
        return acc

    def used_vars(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    # -- printing ------------------------------------------------------------

    def fmt(self, names: Sequence[str], order: Sequence[int] | None = None) -> str:
        """Render with terms sorted by (total degree, reverse-lex exponents).

        `order` optionally reorders the variables inside each monomial.
        """
        if not self.terms:
            return "0"
        r = self.ring
        var_order = list(order) if order is not None else list(range(self.arity))

        def key(item):
            e, _ = item
            return (sum(e), tuple(-e[i] for i in var_order))

        parts = []
        for e, c in sorted(self.terms.items(), key=key):
            factors = []
            for i in var_order:
                k = e[i]
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            cs = r.fmt(c)
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            elif cs == "-1":
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


def _mul_into(acc: dict, ring: Ring, a: dict, b: dict) -> dict:
    """Add the product of the term dicts a and b into acc, in place.

    A coefficient that is zero in the ring is never stored: sums may cancel,
    and over Z/m a product of nonzero coefficients may vanish.
    """
    add, mul, is_zero = ring.add, ring.mul, ring.is_zero
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(_add_ints, e1, e2))
            p = mul(c1, c2)
            old = acc.get(e)
            if old is not None:
                p = add(old, p)
            if is_zero(p):
                acc.pop(e, None)
            else:
                acc[e] = p
    return acc


def _shift_quotient(p: Poly, arity: int, index: Sequence[int],
                    partner: Sequence[int | None],
                    tau: Sequence[int]) -> tuple[Poly, Poly]:
    """Re-index p onto `arity` variables and take its slope, term by term.

    Old variable x_i becomes new variable index[i]; when partner[i] is not
    None, x_i is shifted to x_i + tau*x'_i, where x'_i is new variable
    partner[i] and tau the product of the new variables `tau`.  Returns the
    re-indexed value and the slope S with tau*S = p(x + tau*x') - p(x): each
    term c*prod x_i^k_i gives, for every j != 0 with j_i <= k_i (j_i = 0 when
    x_i is not shifted), the term
    c*prod C(k_i, j_i) * x_i^(k_i-j_i) * x'_i^j_i * tau^(|j|-1).
    A coefficient that is zero in the ring is never stored: over Z/m a
    binomial coefficient may vanish.
    """
    r = p.ring
    add, mul, is_zero, from_int = r.add, r.mul, r.is_zero, r.from_int
    value: dict = {}
    slope: dict = {}
    for e, c in p.terms.items():
        out = [0] * arity
        shifted = []  # (new index, partner index, exponent)
        for i, k in enumerate(e):
            if k:
                out[index[i]] += k
                if partner[i] is not None:
                    shifted.append((index[i], partner[i], k))
        value[tuple(out)] = c
        for js in product(*(range(k + 1) for _, _, k in shifted)):
            total = sum(js)
            if not total:
                continue
            ex = list(out)
            b = 1
            for (i, pi, k), j in zip(shifted, js):
                if j:
                    ex[i] -= j
                    ex[pi] += j
                    b *= comb(k, j)
            for ti in tau:
                ex[ti] += total - 1
            ex = tuple(ex)
            s = c if b == 1 else mul(c, from_int(b))
            old = slope.get(ex)
            if old is not None:
                s = add(old, s)
            if is_zero(s):
                slope.pop(ex, None)
            else:
                slope[ex] = s
    return _from_terms(r, arity, value), _from_terms(r, arity, slope)


def _from_terms(ring: Ring, arity: int, terms: dict) -> Poly:
    """A Poly around a term dict that already holds no zero coefficient."""
    out = Poly(ring, arity)
    out.terms = terms
    return out


class _Kernel:
    """Exact integer evaluator of a list of polynomials over Q or Z/m.

    Built once in O(terms).  A component that is one input variable with
    coefficient one is copied: its value is that input, through
    `Ring.from_rational`.  Every other component keeps the lcm L of its
    coefficient denominators and, per term, the integer c*L with the
    positions of its powers in a flat row of the variables those components
    use.  For inputs p_i/q_i and D = prod q_i^maxe_i, such a component's
    value is N/(D*L) with N = sum c*L * prod p_i^k_i * (D // prod q_i^k_i);
    the ring turns that ratio into its scalar with `Ring.from_ratio`.
    """

    __slots__ = ("tops", "comps")

    def __init__(self, polys: Sequence[Poly]):
        copied = [_bare_var(poly) for poly in polys]
        exps = [e for poly, var in zip(polys, copied) if var is None
                for e in poly.terms]
        maxe = [max(col) for col in zip(*exps)]
        self.tops = tuple((i, k) for i, k in enumerate(maxe) if k)
        # power k of variable i sits at offset[i] + k of the flat rows
        offset = [0] * len(maxe)
        at = 0
        for i, k in self.tops:
            offset[i] = at
            at += k + 1
        comps = []
        for poly, var in zip(polys, copied):
            if var is not None:
                comps.append((var, 0, ()))
                continue
            den = lcm(*(c.denominator for c in poly.terms.values()))
            comps.append((None, den, tuple(
                (c.numerator * (den // c.denominator),
                 tuple(offset[i] + k for i, k in enumerate(e) if k))
                for e, c in poly.terms.items())))
        self.comps = tuple(comps)

    def __call__(self, ring: Ring, values: Sequence) -> list:
        nums = []
        dens = []
        D = 1
        for i, top in self.tops:
            x = values[i]
            p, q = x.numerator, x.denominator
            pk = qk = 1
            for _ in range(top):
                nums.append(pk)
                dens.append(qk)
                pk *= p
                qk *= q
            nums.append(pk)
            dens.append(qk)
            D *= qk
        out = []
        for i, den, terms in self.comps:
            if i is not None:
                out.append(ring.from_rational(values[i]))
                continue
            N = 0
            for c, idx in terms:
                d = 1
                for j in idx:
                    c *= nums[j]
                    d *= dens[j]
                N += c * (D // d)
            out.append(ring.from_ratio(N, D * den))
        return out


def _bare_var(poly: Poly) -> int | None:
    """The index i when poly is exactly x_i with coefficient one, else None."""
    if len(poly.terms) != 1:
        return None
    (e, c), = poly.terms.items()
    if c != 1 or sum(e) != 1:
        return None
    return e.index(1)


class PolyRing(Ring):
    """Polynomials over a base ring as a coefficient ring (for symbolic checks)."""

    kind = "polynomial-ring"

    def __init__(self, base: Ring, arity: int):
        self.base = base
        self.arity = arity

    def zero(self):
        return Poly.zero(self.base, self.arity)

    def one(self):
        return Poly.const(self.base, self.arity, self.base.one())

    def from_int(self, k):
        return Poly.const(self.base, self.arity, self.base.from_int(k))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a.is_zero()

    def is_unit(self, a):
        return len(a.terms) == 1 and set(a.terms) == {(0,) * self.arity}

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError("only nonzero constants are units in a polynomial ring")
        c = a.terms[(0,) * self.arity]
        return Poly.const(self.base, self.arity, self.base.inv(c))

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and other.base == self.base
            and other.arity == self.arity
        )

    def __hash__(self):
        return hash((self.kind, self.base, self.arity))


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map between labelled coordinate spaces (exact, immutable)."""

    ring: Ring
    in_labels: tuple
    comps: tuple
    out_labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "in_labels", tuple(self.in_labels))
        object.__setattr__(self, "comps", tuple(self.comps))
        if self.out_labels is not None:
            object.__setattr__(self, "out_labels", tuple(self.out_labels))
            if len(self.out_labels) != len(self.comps):
                raise PolyError("out_labels / components length mismatch")
        if len(set(self.in_labels)) != len(self.in_labels):
            raise PolyError(f"duplicate input labels: {self.in_labels}")
        for c in self.comps:
            if c.arity != len(self.in_labels):
                raise PolyError("component arity does not match input labels")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, ring: Ring, labels: Iterable[Label]) -> "PolyMap":
        labels = tuple(labels)
        n = len(labels)
        return cls(ring, labels, tuple(Poly.var(ring, n, i) for i in range(n)), labels)

    @classmethod
    def projection(cls, ring: Ring, in_labels, keep) -> "PolyMap":
        in_labels = tuple(in_labels)
        keep = tuple(keep)
        idx = {l: i for i, l in enumerate(in_labels)}
        n = len(in_labels)
        comps = tuple(Poly.var(ring, n, idx[l]) for l in keep)
        return cls(ring, in_labels, comps, keep)

    @classmethod
    def from_label_exprs(cls, ring: Ring, in_labels, exprs: Mapping[Label, Poly]) -> "PolyMap":
        out_labels = tuple(exprs.keys())
        return cls(ring, tuple(in_labels), tuple(exprs[l] for l in out_labels), out_labels)

    # -- core operations -----------------------------------------------------

    @property
    def in_arity(self) -> int:
        return len(self.in_labels)

    @property
    def out_arity(self) -> int:
        return len(self.comps)

    def var(self, label: Label) -> Poly:
        return Poly.var(self.ring, self.in_arity, self.in_labels.index(label))

    def eval(self, values: Sequence) -> list:
        if len(values) != self.in_arity:
            raise PolyError(f"expected {self.in_arity} values, got {len(values)}")
        return self._kernel(self.ring, values)

    @cached_property
    def _kernel(self) -> _Kernel:
        return _Kernel(self.comps)

    def subst(self, assign: Mapping[Label, Poly], new_in_labels) -> "PolyMap":
        """Substitute a polynomial (over new_in_labels) for every input label."""
        new_in_labels = tuple(new_in_labels)
        images = []
        for l in self.in_labels:
            if l not in assign:
                raise PolyError(f"no substitution image for input {l}")
            images.append(assign[l])
        n = len(new_in_labels)
        comps = tuple(c.subst(images, n) for c in self.comps)
        return PolyMap(self.ring, new_in_labels, comps, self.out_labels)

    def compose(self, g: "PolyMap") -> "PolyMap":
        """self after g; g's outputs feed self's inputs, matched by label."""
        if g.out_labels is None:
            if g.out_arity != self.in_arity:
                raise PolyError("composition arity mismatch")
            assign = dict(zip(self.in_labels, g.comps))
        else:
            have = dict(zip(g.out_labels, g.comps))
            missing = [l for l in self.in_labels if l not in have]
            if missing:
                raise PolyError(f"composition missing outputs for {missing}")
            assign = {l: have[l] for l in self.in_labels}
        return PolyMap(self.ring, g.in_labels, tuple(
            c.subst([assign[l] for l in self.in_labels], g.in_arity) for c in self.comps
        ), self.out_labels)

    def reorder_inputs(self, new_order) -> "PolyMap":
        new_order = tuple(new_order)
        if set(new_order) != set(self.in_labels):
            raise PolyError("reorder must permute the existing labels")
        assign = {l: Poly.var(self.ring, len(new_order), new_order.index(l))
                  for l in self.in_labels}
        return self.subst(assign, new_order)

    def extend_inputs(self, bigger) -> "PolyMap":
        """View over a larger domain containing all current labels."""
        bigger = tuple(bigger)
        assign = {l: Poly.var(self.ring, len(bigger), bigger.index(l))
                  for l in self.in_labels}
        return self.subst(assign, bigger)

    def restrict_outputs(self, keep) -> "PolyMap":
        keep = tuple(keep)
        pos = {l: i for i, l in enumerate(self.out_labels)}
        return PolyMap(self.ring, self.in_labels,
                       tuple(self.comps[pos[l]] for l in keep), keep)

    def component(self, label: Label) -> Poly:
        return self.comps[self.out_labels.index(label)]

    def rename(self, in_map: Callable[[Label], Label] | None = None,
               out_map: Callable[[Label], Label] | None = None) -> "PolyMap":
        ins = tuple(in_map(l) for l in self.in_labels) if in_map else self.in_labels
        outs = None
        if self.out_labels is not None:
            outs = tuple(out_map(l) for l in self.out_labels) if out_map else self.out_labels
        return PolyMap(self.ring, ins, self.comps, outs)

    def add(self, other: "PolyMap") -> "PolyMap":
        if other.in_labels != self.in_labels:
            other = other.reorder_inputs(self.in_labels)
        if self.out_arity != other.out_arity:
            raise PolyError("sum of maps needs equal output arity")
        return PolyMap(self.ring, self.in_labels,
                       tuple(a + b for a, b in zip(self.comps, other.comps)),
                       self.out_labels)

    def scale(self, c) -> "PolyMap":
        return PolyMap(self.ring, self.in_labels,
                       tuple(p.scale(c) for p in self.comps), self.out_labels)

    def degree(self) -> int:
        return max((c.degree() for c in self.comps), default=0)

    def equals(self, other: "PolyMap") -> bool:
        """Symbolic equality: same in/out label sets, equal components."""
        if self.in_labels == other.in_labels:
            aligned = other
        elif set(self.in_labels) == set(other.in_labels):
            aligned = other.reorder_inputs(self.in_labels)
        else:
            return False
        if self.out_labels is not None and aligned.out_labels is not None:
            if set(self.out_labels) != set(aligned.out_labels):
                return False
            return all(self.component(l) == aligned.component(l) for l in self.out_labels)
        return self.comps == aligned.comps

    def fmt(self, labeler: Callable[[Label], str] | None = None,
            monomial_order: Callable[[Label], Any] | None = None) -> str:
        labeler = labeler or _default_labeler
        names = [labeler(l) for l in self.in_labels]
        order = None
        if monomial_order is not None:
            order = sorted(range(self.in_arity), key=lambda i: monomial_order(self.in_labels[i]))
        bodies = [c.fmt(names, order) for c in self.comps]
        return "(" + ", ".join(bodies) + ")"


def _default_labeler(l: Label) -> str:
    if isinstance(l, str):
        return l
    disp = getattr(l, "display", None)
    if callable(disp):
        return disp()
    if isinstance(l, tuple) and len(l) == 2:
        return f"{l[0]}.{_default_labeler(l[1])}"
    return str(l)
