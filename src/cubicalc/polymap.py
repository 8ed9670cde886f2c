"""Exact sparse multivariate polynomials and polynomial maps.

A Poly maps exponent vectors, each packed into one int, to nonzero
numerators over one positive denominator (the content form; over Z/m the
denominator is 1); every product, substitution and slope reads and writes
the packed keys.  A PolyMap
bundles several components over a common labelled variable list; all structure
maps, laws and difference quotients in the package are PolyMaps.

Evaluation runs in content form too: the integer kernel of a map
(`_Kernel`) takes and returns each value as its ring's canonical
(numerator, denominator) pair (`Ring.content`).  `PolyMap.eval` and
`Poly.eval` convert scalars at their boundary; the sampled law checks keep
their points as pairs and call kernels positioned in those points
(`_Kernel.at`).
"""
from __future__ import annotations

import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb, gcd, lcm
from typing import Any, Callable, Iterable, Sequence

from .rings import Ring, RingError

Label = Any  # hashable; str for parsed maps, CoordLabel for constructions


class PolyError(ValueError):
    pass


class ExactDivisionError(PolyError):
    """An exact division left a remainder: a broken internal invariant, which
    the CLI reports with exit code 3.  Slopes are expanded term by term
    (`_shift_quotient`) and divide nothing, so no derivation raises it."""


class Poly:
    """Sparse polynomial in content form, keyed by packed exponents.

    `nums` maps packed exponent keys to nonzero numerators and `den` is a
    positive int; the coefficient of x^e is nums[key(e)]/den.  A key is one
    int that holds the exponent of x_i in its bits w*i to w*(i+1) - 1, w the
    width of the array typecode `code` (8, 16, 32 or 64 bits), so adding two
    keys multiplies their monomials (Monagan and Pearce, CASC 2007; the
    packed monomials of FLINT's mpoly).  `code` comes from the degree bound
    of the operation that made the Poly (`_field_code`): one field holds the
    total degree of every term, so no sum of fields carries.  Operands of two
    codes are widened to the wider one, and `==` and `hash` do not depend on
    the code.

    The content form is how FLINT's fmpq_poly stores a rational polynomial,
    and it is kept canonical: gcd(den, numerators) = 1, so equal polynomials
    of one code have equal (nums, den).  Over Q the numerators are ints; over
    Z/m (and over a `PolyRing`) den is 1 and the numerators are the ring's
    reduced scalars.  Arithmetic runs on the numerators with the ring's
    `numerator_ops` and handles den once per operation, outside the term
    loops.  `terms` is the read-only {exponent tuple: coefficient} view,
    coefficients as ring scalars (Fractions over Q); it and `fmt` are the
    only readers that make exponent tuples.
    """

    __slots__ = ("ring", "arity", "nums", "den", "code", "_top", "_deg")

    def __init__(self, ring: Ring, arity: int, terms: Mapping | None = None):
        """From {exponent tuple: coefficient}, each coefficient an exact
        scalar of the ring (an int or a Fraction over Q, an int over Z/m,
        reduced here); zero coefficients are dropped."""
        self.ring = ring
        self.arity = arity
        self.nums = {}
        self.den = 1
        self.code = "B"
        if not terms:
            return
        parts = []
        for exps, c in terms.items():
            if len(exps) != arity:
                raise PolyError(f"exponent vector {exps} has wrong length")
            parts.append((exps, *_split(ring, c)))
        # each n/d is in lowest terms, so the lcm leaves no common factor
        self.den = den = lcm(*(d for _, _, d in parts))
        self.code = code = _field_code(max(sum(e) for e, _, _ in parts))
        _, mul, _, is_zero, from_int = ring.numerator_ops()
        for e, n, d in parts:
            if is_zero(n):
                continue
            try:
                key = _key(e, code)
            except (OverflowError, ValueError) as exc:
                raise PolyError(f"exponent vector {e} has a negative "
                                "exponent") from exc
            self.nums[key] = n if d == den else mul(n, from_int(den // d))

    @property
    def terms(self) -> Mapping:
        """Read-only {exponent tuple: coefficient} view; coefficients are
        made on access."""
        return _Terms(self)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, arity: int) -> "Poly":
        return cls(ring, arity)

    @classmethod
    def const(cls, ring: Ring, arity: int, c) -> "Poly":
        """The constant c, whose key is 0 in every code."""
        n, d = _split(ring, c)
        return _made(ring, arity, {} if ring.numerator_ops()[3](n) else {0: n},
                     d, "B")

    @classmethod
    def var(cls, ring: Ring, arity: int, i: int) -> "Poly":
        return _var(ring, arity, i, ring.split(ring.one())[0])

    @classmethod
    def coords(cls, ring: Ring, labels: Sequence) -> Callable[[Label], "Poly"]:
        """The coordinate functions of the list `labels`: the returned
        function takes a label to its variable over all of `labels`, a new
        one-term Poly on every read (most labels are read once); a label not
        in the list raises KeyError."""
        n = len(labels)
        pos = {l: i for i, l in enumerate(labels)}
        one = ring.split(ring.one())[0]
        return lambda l: _var(ring, n, pos[l], one)

    # -- basic algebra -----------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._compat(other)
        add, mul, _, is_zero, from_int = self.ring.numerator_ops()
        a, b, code = self.nums, other.nums, self.code
        if code != other.code:
            code = max(code, other.code)  # the typecodes sort by width
            a, b = self._at(code), other._at(code)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        if fa == 1:
            nums = dict(a)
        else:
            nums = {e: mul(n, from_int(fa)) for e, n in a.items()}
        for e, n in b.items():
            if fb != 1:
                n = mul(n, from_int(fb))
            old = nums.get(e)
            if old is not None:
                n = add(old, n)
            if is_zero(n):
                nums.pop(e, None)
            else:
                nums[e] = n
        return _from_content(self.ring, self.arity, nums, den, code)

    def __neg__(self) -> "Poly":
        neg = self.ring.numerator_ops()[2]
        return _from_content(self.ring, self.arity,
                             {e: neg(n) for e, n in self.nums.items()},
                             self.den, self.code)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """self * other: by `_times_term` when one operand has one term, else
        by `_mul_into`, on keys whose fields hold the sum of the degrees."""
        self._compat(other)
        p, q = (other, self) if len(self.nums) == 1 else (self, other)
        if len(q.nums) == 1 and 0 in q.nums:  # a constant: no key moves
            return p._times_term(q.nums[0], q.den)
        code = max(self.code, other.code,
                   _field_code(self.degree() + other.degree()))
        if len(q.nums) == 1:
            (f, n), = q._at(code).items()
            return p._times_term(n, q.den, f, code)
        nums = _mul_into({}, self.ring.numerator_ops(), self._at(code),
                         other._at(code))
        return _from_content(self.ring, self.arity, nums,
                             self.den * other.den, code)

    def __pow__(self, k: int) -> "Poly":
        """self**k by repeated squaring (`_power`): a one-term base has its
        key multiplied by k and its numerator raised, any other is raised by
        `_mul_into`.  A degree bound k * deg(self) of 2^64 or more is refused
        (`_field_code`) for either."""
        if k < 0:
            raise PolyError("negative power of a polynomial")
        if not k:
            return Poly.const(self.ring, self.arity, self.ring.one())
        code = max(self.code, _field_code(k * self.degree()))
        ops = self.ring.numerator_ops()
        nums = self._at(code)
        if len(nums) == 1:
            (e, n), = nums.items()
            c = _power(ops[1], n, k)
            nums = {} if ops[3](c) else {k * e: c}
        else:
            nums = _power(lambda a, b: _mul_into({}, ops, a, b), nums, k)
        return _from_content(self.ring, self.arity, nums, self.den ** k, code)

    def scale(self, c) -> "Poly":
        """c times self; a product that vanishes in the ring (c = 0, or a
        zero divisor over Z/m) is dropped."""
        return self._times_term(*self.ring.split(c))

    def _times_term(self, n, d: int, f: int = 0,
                    code: str | None = None) -> "Poly":
        """self times the one term (n/d) * x^f, f a key in the fields of
        `code` (self's by default), to which self's keys are widened: each
        key is shifted by f and each numerator scaled by n; a product that
        vanishes in the ring is dropped."""
        _, mul, _, is_zero, _ = self.ring.numerator_ops()
        code = code or self.code
        prods = ((e, mul(n, v)) for e, v in self._at(code).items())
        if f:
            prods = ((e + f, p) for e, p in prods)
        return _from_content(self.ring, self.arity,
                             {e: p for e, p in prods if not is_zero(p)},
                             self.den * d, code)

    def _compat(self, other: "Poly") -> None:
        if self.ring != other.ring or self.arity != other.arity:
            raise PolyError("polynomials over different rings or arities")

    def _at(self, code: str) -> dict:
        """nums on keys with the fields of `code`, whose fields hold the
        degree of every term (wider than self.code, or narrower when a
        bound allows): self.nums itself when the code is the same."""
        if code == self.code or not self.arity:
            return self.nums
        return {_key(e, code): n for e, n in zip(
            _exponent_tuples(self.nums, self.code, self.arity),
            self.nums.values())}

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def degree(self) -> int:
        """Total degree over all variables; degree(0) = 0 by convention.
        Worked out on first read and kept: once a Poly is made its `nums`
        are not written."""
        try:
            return self._deg
        except AttributeError:
            fields = map(_field_reader(self.code, self.arity), self.nums)
            self._deg = deg = max(map(sum, fields), default=0)
            return deg

    def _exponents(self) -> tuple:
        """The top exponent of each variable, worked out on first read and
        kept, as `degree` is."""
        try:
            return self._top
        except AttributeError:
            fields = map(_field_reader(self.code, self.arity), self.nums)
            self._top = top = tuple(map(max, zip(*fields))) if self.nums \
                else (0,) * self.arity
            return top

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Poly)
                and self.ring == other.ring
                and self.arity == other.arity
                and self.den == other.den
                and len(self.nums) == len(other.nums)):
            return False
        if self.code == other.code:
            return self.nums == other.nums
        code = max(self.code, other.code)
        return self._at(code) == other._at(code)

    def __hash__(self):
        # on the keys of the narrowest code that holds the degree, which
        # equal polynomials share
        nums = self._at(_field_code(self.degree()))
        return hash((self.arity, self.den, frozenset(nums.items())))

    # -- evaluation and substitution ----------------------------------------

    def eval(self, values: Sequence) -> Any:
        return _eval(_Kernel((self,)), self.ring, values)[0]

    def subst(self, images: Sequence["Poly"], arity: int) -> "Poly":
        """Substitute images[i] (all over a common new variable list) for x_i
        (see `_subst`)."""
        if len(images) != self.arity:
            raise PolyError("substitution image count mismatch")
        return _subst((self,), images, arity)[0]

    def _over_subst_den(self, images: Sequence["Poly"]) -> tuple[int, dict]:
        """The denominator of the substitution and self's numerators over
        it: a term with exponents e is scaled by prod d_i^(maxe_i - e_i).
        Only images over Q can have d_i > 1; self.nums is returned as it is
        when no image does."""
        den = self.den
        w = _WIDTH[self.code]
        rows = []  # (x_i's bit offset, d_i^(maxe_i - k) for k = 0..maxe_i)
        for i, im in enumerate(images):
            if im.den != 1:
                top = self._exponents()[i]
                den *= im.den ** top
                rows.append((w * i, [im.den ** (top - k)
                                     for k in range(top + 1)]))
        if not rows:
            return den, self.nums
        _, mul, _, _, from_int = self.ring.numerator_ops()
        mask = (1 << w) - 1
        scaled = {}
        for e, c in self.nums.items():
            f = 1
            for at, row in rows:
                f *= row[e >> at & mask]
            scaled[e] = mul(c, from_int(f))
        return den, scaled

    def _subst_linear(self, nums: dict, images: Sequence[dict]) -> dict:
        """c_0 + sum c_i * images[i] for the numerators `nums` of degree at
        most 1, with `images` the numerators of the images on keys of one
        code: a linear combination needs no product.  The variable of a term
        is read off the bit position of its key."""
        add, mul, _, is_zero, _ = self.ring.numerator_ops()
        w = _WIDTH[self.code]
        acc: dict = {}
        get, pop = acc.get, acc.pop
        for e, c in nums.items():
            if e:
                prods = ((f, mul(c, a)) for f, a in
                         images[(e.bit_length() - 1) // w].items())
            else:
                prods = ((0, c),)
            for f, p in prods:
                old = get(f)
                if old is not None:
                    p = add(old, p)
                if is_zero(p):
                    pop(f, None)
                else:
                    acc[f] = p
        return acc

    def _reindexed(self, index: Sequence[int | None], arity: int) -> "Poly":
        """x_i renamed x_index[i] over `arity` variables, or sent to zero
        when index[i] is None (the others one-to-one): the fields of each key
        are moved, by one shift when every variable kept moves the same
        distance, the coefficients and the code are kept, and a term where a
        variable sent to zero occurs is dropped."""
        w = _WIDTH[self.code]
        moves = set()  # the distances j - i of the variables kept
        drop = 0  # the fields of the variables sent to zero
        for i, j in enumerate(index):
            if j is None:
                drop |= (1 << w) - 1 << w * i
            else:
                moves.add(j - i)
        nums = self.nums
        if drop:
            nums = {e: c for e, c in nums.items() if not e & drop}
        if len(moves) == 1:
            # the other fields are zero: one shift moves every field kept
            to = w * moves.pop()
            if to > 0:
                nums = {e << to: c for e, c in nums.items()}
            elif to < 0:
                nums = {e >> -to: c for e, c in nums.items()}
        elif moves:
            fields = _field_reader(self.code, self.arity)
            place = [None if j is None else w * j for j in index]
            moved = {}
            for e, c in nums.items():
                key = 0
                for i, k in enumerate(fields(e)):
                    if k:
                        key += k << place[i]
                moved[key] = c
            nums = moved
        if drop:
            return _from_content(self.ring, arity, nums, self.den, self.code)
        return _made(self.ring, arity, nums, self.den, self.code)

    def used_vars(self) -> set[int]:
        return {i for i, k in enumerate(self._exponents()) if k}

    # -- printing ------------------------------------------------------------

    def fmt(self, names: Sequence[str], order: Sequence[int] | None = None) -> str:
        """Render with terms sorted by (total degree, reverse-lex exponents).

        `order` optionally reorders the variables inside each monomial.
        """
        if not self.nums:
            return "0"
        r = self.ring
        var_order = list(order) if order is not None else list(range(self.arity))

        def key(item):
            e, _ = item
            return (sum(e), tuple(-e[i] for i in var_order))

        parts = []
        for e, n in sorted(zip(_exponent_tuples(self.nums, self.code,
                                                self.arity),
                               self.nums.values()), key=key):
            factors = []
            for i in var_order:
                k = e[i]
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            cs = r.fmt(r.join(n, self.den))
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


class _Terms(Mapping):
    """The coefficients of a Poly as ring scalars, nums[key(e)]/den, made on
    access, keyed by exponent tuples."""

    __slots__ = ("_poly",)

    def __init__(self, poly: Poly):
        self._poly = poly

    def __getitem__(self, e):
        p = self._poly
        try:
            n = p.nums.get(_key(e, p.code)) if len(e) == p.arity else None
        except (OverflowError, TypeError, ValueError):  # not p's exponents
            n = None
        if n is None:
            raise KeyError(e)
        return p.ring.join(n, p.den)

    def __iter__(self):
        p = self._poly
        return iter(_exponent_tuples(p.nums, p.code, p.arity))

    def __len__(self):
        return len(self._poly.nums)


# (limit, array typecode) of the unsigned exponent fields of a packed key,
# 1, 2, 4 and 8 bytes wide; the typecodes sort by width
_FIELDS = tuple((1 << 8 * array(code).itemsize, code) for code in "BHIQ")
_WIDTH = {code: limit.bit_length() - 1 for limit, code in _FIELDS}
# keys are read from the fields' bytes in little-endian order
_SWAP = sys.byteorder != "little"


def _split(ring: Ring, c) -> tuple:
    """(numerator, denominator) of the scalar c of `ring` (`Ring.split`)."""
    try:
        return ring.split(c)
    except RingError as exc:
        raise PolyError(f"coefficient {c!r} is not a scalar of {ring!r}") from exc


def _field_code(bound: int) -> str:
    """The typecode of the narrowest field that holds every exponent sum up
    to `bound`, the degree bound of an operation: no term of the result has
    a larger total degree, so adding two packed keys never carries from one
    field into the next."""
    for limit, code in _FIELDS:
        if bound < limit:
            return code
    raise PolyError(f"degree bound {bound} does not fit a 64-bit exponent")


def _key(exps: Sequence[int], code: str) -> int:
    """The packed key of the exponent tuple `exps` in fields of type
    `code`; an exponent that does not fit a field raises ValueError or
    OverflowError."""
    if code == "B":
        return int.from_bytes(bytes(exps), "little")
    fields = array(code, exps)
    if _SWAP:
        fields.byteswap()
    return int.from_bytes(fields, "little")


def _field_run(keys: Iterable[int], code: str, arity: int) -> array:
    """The exponent fields of `keys` over `arity` variables, in one array,
    key after key."""
    run = array(code)
    size = arity * run.itemsize
    run.frombytes(b"".join([k.to_bytes(size, "little") for k in keys]))
    if _SWAP:
        run.byteswap()
    return run


def _field_reader(code: str, arity: int) -> Callable[[int], Sequence[int]]:
    """The function from a key over `arity` variables to its exponent
    fields, read per term by the kernels: for one-byte fields, the key's
    bytes."""
    if code == "B":
        return partial(int.to_bytes, length=arity, byteorder="little")
    return lambda e: _field_run((e,), code, arity)


def _exponent_tuples(nums: dict, code: str, arity: int) -> Iterable[tuple]:
    """The exponent tuple of each key of `nums`, in the order of `nums`."""
    if not arity:
        return [()] * len(nums)
    return zip(*[iter(_field_run(nums, code, arity))] * arity)


def _mul_into(acc: dict, ops: tuple, a: dict, b: dict) -> dict:
    """Add the product of the numerator dicts a and b, keyed by packed
    exponents of one code, into acc, in place, with the ring's
    `numerator_ops`.

    A numerator that is zero in the ring is never stored: sums may cancel,
    and over Z/m a product of nonzero numerators may vanish.
    """
    add, mul, _, is_zero, _ = ops
    get, pop = acc.get, acc.pop
    b = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in b:
            e = e1 + e2
            p = mul(c1, c2)
            old = get(e)
            if old is not None:
                p = add(old, p)
            if is_zero(p):
                pop(e, None)
            else:
                acc[e] = p
    return acc


def _power(mul: Callable, base, k: int):
    """base**k for k >= 1 by square-and-multiply, with the product `mul`:
    at most 2*log2(k) products."""
    result = None
    while True:
        if k & 1:
            result = base if result is None else mul(result, base)
        k >>= 1
        if not k:
            return result
        base = mul(base, base)


def _subst(polys: Sequence[Poly], images: Sequence[Poly],
           arity: int) -> list:
    """Substitute images[i] (all over a common new variable list of length
    `arity`) for x_i in each of `polys`, which share one ring and arity.

    The numerators of each result are summed into one dict in place, every
    term scaled to the common denominator den * prod d_i^maxe_i of the result
    (d_i the denominator of images[i], maxe_i the top exponent of x_i), as the
    evaluation kernel scales its inputs; one gcd at the end makes the result
    canonical.  An image is zero, one term (a variable, a scaled monomial or
    a constant) or many terms, and only a many-term image needs a product.
    When the images of the variables that occur are distinct bare variables
    or zeros, each polynomial is re-indexed (`_coordinate_index`).  Else,
    when every polynomial has degree at most 1, the images are summed on
    keys of their widest code (`Poly._subst_linear`); otherwise the terms are
    expanded (`_Expansion`), one set for all of `polys`, where a zero image
    drops a term and a one-term image is folded into it.
    """
    if not polys:
        return []
    index = _coordinate_index(polys, images)
    if index is not None:
        return [p._reindexed(index, arity) for p in polys]
    if all(p.degree() <= 1 for p in polys):
        code = max((im.code for im in images), default="B")
        keyed = [im._at(code) for im in images]
        expand = None
    else:
        expand = _Expansion(polys, images)
        code = expand.code
    out = []
    for p in polys:
        den, nums = p._over_subst_den(images)
        nums = p._subst_linear(nums, keyed) if expand is None \
            else expand(p, nums)
        out.append(_from_content(p.ring, arity, nums, den, code))
    return out


def _coordinate_index(polys: Sequence[Poly],
                      images: Sequence[Poly]) -> list | None:
    """index[i] = j when x_i goes to the bare variable y_j and None when it
    goes to zero, or None for the whole substitution when it is not a
    re-indexing: that is, when a variable that occurs in `polys` has an image
    that is neither zero nor a bare variable, or two that occur share one.
    Occurrence is read only for the variables whose image is neither zero
    nor a variable of its own; one that does not occur is sent to zero,
    which drops no term."""
    index = []
    for i, im in enumerate(images):
        j = _bare_var(im)
        if j is None and im.nums and _occurs(polys, i):
            return None
        index.append(j)
    if _shared(index):
        index = [j if j is None or _occurs(polys, i) else None
                 for i, j in enumerate(index)]
        if _shared(index):
            return None
    return index


def _occurs(polys: Sequence[Poly], i: int) -> bool:
    return any(p._exponents()[i] for p in polys)


def _shared(index: list) -> bool:
    """Whether two entries of `index` other than None are equal."""
    kept = [j for j in index if j is not None]
    return len(set(kept)) < len(kept)


class _Expansion:
    """The images of one substitution, shared by every polynomial
    substituted.

    Only the images of variables that occur are read, and their degrees are
    taken once.  The code of the results, to which the images are re-keyed,
    comes from their degree bound, sum over x_i of maxe_i * deg(images[i])
    with maxe_i the top exponent of x_i.  In a term c * prod x_i^k_i, whose
    fields are read off its key (`_field_reader`), a zero image drops the
    term and a one-term image a_i * y^f_i is folded: k_i times its key is
    added to the term's key and c is multiplied by a_i^k_i (not at all when
    a_i is one, as for a bare variable).  Only the powers of many-term
    images are multiplied out (`_mul_into`), so a term with none of them is
    one update of the result, whose keys are left as they are.
    """

    __slots__ = ("ops", "code", "folds", "rows")

    def __init__(self, polys: Sequence[Poly], images: Sequence[Poly]):
        ring = polys[0].ring
        self.ops = ring.numerator_ops()
        tops = [p._exponents() for p in polys]
        used = {i for top in tops for i, k in enumerate(top) if k}
        deg = {i: images[i].degree() for i in used}
        self.code = code = _field_code(max(
            sum(k * deg[i] for i, k in enumerate(top) if k) for top in tops))
        one = ring.split(ring.one())[0]
        # folds[i]: the key of a one-term images[i] and the powers of its
        # numerator, None when that is one; rows[i][k]: the numerators of a
        # many-term images[i]**k.  A zero image is in neither.
        self.folds, self.rows = {}, {}
        for i in used:
            nums = images[i]._at(code)
            if len(nums) > 1:
                self.rows[i] = [None, nums]
            elif nums:
                (key, a), = nums.items()
                self.folds[i] = (key, None if a == one else [one, a])

    def __call__(self, p: Poly, nums: dict) -> dict:
        """The expansion of the numerators `nums` on the keys of p."""
        ops, folds, rows = self.ops, self.folds, self.rows
        add, mul, _, is_zero, _ = ops
        fields = _field_reader(p.code, p.arity)
        acc: dict = {}
        for e, c in nums.items():
            key = 0
            many = []  # the powers of the many-term images
            for i, k in enumerate(fields(e)):
                if not k:
                    continue
                fold = folds.get(i)
                if fold is not None:
                    key += k * fold[0]
                    powers = fold[1]
                    if powers is not None:
                        while len(powers) <= k:
                            powers.append(mul(powers[-1], powers[1]))
                        c = mul(c, powers[k])
                    continue
                row = rows.get(i)
                if row is None:  # a zero image
                    break
                while len(row) <= k:
                    row.append(_mul_into({}, ops, row[-1], row[1]))
                many.append(row[k])
            else:
                if many:
                    # c times the powers, the last product summed into acc
                    prod = {key: c}
                    for power in many[:-1]:
                        prod = _mul_into({}, ops, prod, power)
                    _mul_into(acc, ops, prod, many[-1])
                    continue
                old = acc.get(key)
                if old is not None:
                    c = add(old, c)
                if is_zero(c):
                    acc.pop(key, None)
                else:
                    acc[key] = c
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
    On keys, that term is the value's key minus tau's plus, per shifted
    x_i, j_i times the key of x'_i * tau / x_i: one int addition per factor,
    with the deltas and binomials of each (x_i, k_i) made once per call.
    Both keep p's denominator and share a code that holds the slope's
    degree bound; a numerator that is zero in the ring is never stored: over
    Z/m a binomial coefficient may vanish.
    """
    r = p.ring
    add, mul, _, is_zero, from_int = r.numerator_ops()
    deg = p.degree()
    code = max(p.code, _field_code(deg + max(deg - 1, 0) * len(tau)))
    w = _WIDTH[code]
    fields = _field_reader(p.code, p.arity)
    place = [w * j for j in index]
    tau_key = sum(1 << w * t for t in tau)
    steps = [None if q is None else (1 << w * q) - (1 << w * j) + tau_key
             for j, q in zip(index, partner)]
    rows: dict = {}  # (i, k): [(j * steps[i], C(k, j)) for j = 0..k]
    value: dict = {}
    slope: dict = {}
    get, pop = slope.get, slope.pop
    for e, c in p.nums.items():
        out = 0
        shifted = []  # the rows of the shifted variables that occur
        for i, k in enumerate(fields(e)):
            if not k:
                continue
            out += k << place[i]
            if steps[i] is not None:
                row = rows.get((i, k))
                if row is None:
                    step = steps[i]
                    row = rows[i, k] = [(j * step, comb(k, j))
                                        for j in range(k + 1)]
                shifted.append(row)
        value[out] = c
        if not shifted:
            continue
        combos = shifted[0]
        for row in shifted[1:]:
            combos = [(d1 + d2, b1 * b2) for d1, b1 in combos
                      for d2, b2 in row]
        base = out - tau_key
        for n in range(1, len(combos)):  # combos[0] is j = 0
            delta, b = combos[n]
            ex = base + delta
            s = c if b == 1 else mul(c, from_int(b))
            old = get(ex)
            if old is not None:
                s = add(old, s)
            if is_zero(s):
                pop(ex, None)
            else:
                slope[ex] = s
    return (_from_content(r, arity, value, p.den, code),
            _from_content(r, arity, slope, p.den, code))


def _from_content(ring: Ring, arity: int, nums: dict, den: int,
                  code: str) -> Poly:
    """A Poly around numerators that hold no zero, over den > 0, on keys of
    type `code`, made canonical in place: den and the numerators are divided
    by their gcd (den > 1 only over Q, where the numerators are ints)."""
    if den != 1:
        g = den
        for n in nums.values():
            g = gcd(g, n)
            if g == 1:
                break
        if g != 1:
            for e, n in nums.items():
                nums[e] = n // g
            den //= g
    return _made(ring, arity, nums, den, code)


def _made(ring: Ring, arity: int, nums: dict, den: int, code: str) -> Poly:
    """A Poly around content that is already canonical, with no __init__
    call."""
    out = object.__new__(Poly)
    out.ring, out.arity, out.nums, out.den, out.code = \
        ring, arity, nums, den, code
    return out


class _Kernel:
    """Exact integer evaluator of a list of polynomials over Q or Z/m, on
    points in content form: each value is its ring's canonical (num, den)
    pair (`Ring.content`), and so is each output.

    Built once in O(terms).  A component that is one input variable with
    coefficient one is copied: its value is that input's pair.  Every other
    component keeps its content form: the denominator L (`Poly.den`) and,
    per term, the integer numerator c*L with the positions of its powers in
    a flat row of the powers k >= 1 of the variables those components use,
    read off the term's key.  For inputs p_i/q_i and D = prod q_i^maxe_i,
    such a component's value is N/(D*L) with
    N = sum c*L * prod p_i^k_i * (D // prod q_i^k_i), reduced to its pair by
    one `Ring.content`.  `at` positions the kernel in a larger point.
    """

    __slots__ = ("tops", "comps")

    def __init__(self, polys: Sequence[Poly]):
        copied = [_bare_var(poly) for poly in polys]
        # the exponent fields of every term of each component not copied
        fields = [list(map(_field_reader(poly.code, poly.arity), poly.nums))
                  for poly, var in zip(polys, copied) if var is None]
        # the top exponents are taken here, not kept on each Poly
        # (`Poly._exponents`): a kernel is built once per map, and keeping
        # them for every map evaluated only costs memory
        maxe = [max(col) for col in zip(*(f for comp in fields for f in comp))]
        self.tops = tuple((i, k) for i, k in enumerate(maxe) if k)
        # power k >= 1 of variable i sits at offset[i] + k of the flat rows
        offset = [0] * len(maxe)
        at = 0
        for i, k in self.tops:
            offset[i] = at - 1
            at += k
        comps = []
        kept = iter(fields)
        for poly, var in zip(polys, copied):
            if var is not None:
                comps.append((var, 0, ()))
                continue
            comps.append((None, poly.den, tuple(zip(poly.nums.values(), [
                tuple([o + k for o, k in zip(offset, f) if k])
                for f in next(kept)]))))
        self.comps = tuple(comps)

    def at(self, ring: Ring, gather: Sequence[int] | None = None,
           perm: Sequence[int] | None = None) -> Callable[[list], list]:
        """This kernel positioned in a larger point and bound to `ring`: the
        returned function reads input i at point[gather[i]], lists component
        perm[j] j-th, and holds each component with no variable as its pair,
        made here once (None stands for the identity, for either list).
        Built in O(inputs + outputs): the terms are shared, not rebuilt.  A
        kernel with no powers, whose components are all copies and
        constants, becomes a gather from the point and the constants."""
        out = _Kernel.__new__(_Kernel)
        out.tops = self.tops if gather is None else tuple(
            (gather[i], k) for i, k in self.tops)
        comps = []
        for i, den, terms in self.comps if perm is None else \
                [self.comps[j] for j in perm]:
            if i is not None:
                comps.append((i if gather is None else gather[i], 0, ()))
            elif not any(idx for _, idx in terms):
                # a constant has at most one term, so `any` reads at most two
                comps.append((None, None, ring.content(
                    sum(c for c, _ in terms), den)))
            else:
                comps.append((i, den, terms))
        out.comps = tuple(comps)
        if out.tops:
            return partial(out, ring)
        # the constants follow the point, so they sit at negative positions
        consts = [pair for i, _, pair in comps if i is None]
        slots, k = [], -len(consts)
        for i, _, _ in comps:
            if i is None:
                i, k = k, k + 1
            slots.append(i)
        return _gather(slots, consts)

    def __call__(self, ring: Ring, values: Sequence[tuple]) -> list:
        nums = []
        dens = []
        D = 1
        for i, top in self.tops:
            p, q = values[i]
            pk, qk = p, q
            nums.append(p)
            dens.append(q)
            for _ in range(top - 1):
                pk *= p
                qk *= q
                nums.append(pk)
                dens.append(qk)
            D *= qk
        content = ring.content
        out = []
        for i, den, terms in self.comps:
            if i is not None:
                out.append(values[i])
                continue
            if den is None:
                out.append(terms)
                continue
            N = 0
            for c, idx in terms:
                d = 1
                for j in idx:
                    c *= nums[j]
                    d *= dens[j]
                N += c * (D // d)
            out.append(content(N, D * den))
        return out


def _eval(kernel: _Kernel, ring: Ring, values: Sequence) -> list:
    """`kernel` at exact scalars (ints or Fractions over Q, ints over Z/m),
    as scalars: each input goes in as `ring.content(numerator,
    denominator)` and each output comes out through `ring.join`."""
    content, join = ring.content, ring.join
    return [join(num, den) for num, den in kernel(
        ring, [content(x.numerator, x.denominator) for x in values])]


def _gather(slots: list, consts: list) -> Callable[[list], list]:
    """The function point -> [ext[i] for i in slots], ext the point
    followed by `consts`."""
    def run(point: list) -> list:
        ext = point + consts
        return [ext[i] for i in slots]
    return run


def _var(ring: Ring, arity: int, i: int, one) -> Poly:
    """x_i over `arity` variables, with `one` the numerator of the ring's
    one, on one-byte fields."""
    out = _made(ring, arity, {1 << 8 * i: one}, 1, "B")
    out._deg = 1
    return out


def _bare_var(poly: Poly) -> int | None:
    """The index i when poly is exactly x_i with coefficient one, else None:
    its one key is a single bit, the lowest of a field."""
    if len(poly.nums) != 1 or poly.den != 1:
        return None
    (e, c), = poly.nums.items()
    if c != 1 or not e or e & (e - 1):
        return None
    i, at = divmod(e.bit_length() - 1, _WIDTH[poly.code])
    return None if at else i


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

    def from_ratio(self, num, den):
        return Poly.const(self.base, self.arity, self.base.from_ratio(num, den))

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
        c = a.terms.get((0,) * self.arity)
        return len(a.nums) == 1 and c is not None and self.base.is_unit(c)

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError("only nonzero constants are units in a polynomial ring")
        c = a.terms[(0,) * self.arity]
        return Poly.const(self.base, self.arity, self.base.inv(c))

    def split(self, c):
        if not (isinstance(c, Poly) and c.ring == self.base
                and c.arity == self.arity):
            raise RingError(f"not a polynomial over {self.base!r} "
                            f"in {self.arity} variables: {c!r}")
        return c, 1

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
        return cls(ring, labels, tuple(map(Poly.coords(ring, labels), labels)),
                   labels)

    @classmethod
    def projection(cls, ring: Ring, in_labels, keep) -> "PolyMap":
        in_labels, keep = tuple(in_labels), tuple(keep)
        return cls(ring, in_labels, tuple(map(Poly.coords(ring, in_labels), keep)),
                   keep)

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
        return _eval(self._kernel, self.ring, values)

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
        comps = tuple(_subst(self.comps, images, len(new_in_labels)))
        return PolyMap(self.ring, new_in_labels, comps, self.out_labels)

    def compose(self, g: "PolyMap") -> "PolyMap":
        """self after g; g's outputs feed self's inputs, matched by label."""
        if g.out_labels is None:
            if g.out_arity != self.in_arity:
                raise PolyError("composition arity mismatch")
            assign = dict(zip(self.in_labels, g.comps))
        else:
            assign = dict(zip(g.out_labels, g.comps))
            missing = [l for l in self.in_labels if l not in assign]
            if missing:
                raise PolyError(f"composition missing outputs for {missing}")
        return self.subst(assign, g.in_labels)

    def reorder_inputs(self, new_order) -> "PolyMap":
        new_order = tuple(new_order)
        if len(new_order) != self.in_arity or \
                set(new_order) != set(self.in_labels):
            raise PolyError("reorder must permute the existing labels")
        return self.extend_inputs(new_order)

    def extend_inputs(self, bigger) -> "PolyMap":
        """View over a larger domain containing all current labels; the
        exponents are scattered to the new positions, nothing is
        substituted."""
        bigger = tuple(bigger)
        if bigger == self.in_labels:
            return self
        pos = {l: i for i, l in enumerate(bigger)}
        missing = [l for l in self.in_labels if l not in pos]
        if missing:
            raise PolyError(f"new inputs lack the labels {missing}")
        index = [pos[l] for l in self.in_labels]
        return PolyMap(self.ring, bigger, tuple(
            c._reindexed(index, len(bigger)) for c in self.comps),
            self.out_labels)

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
