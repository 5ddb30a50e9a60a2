"""Exact coefficient arithmetic behind one element interface.

Four kinds of rings are supported: the rationals, prime fields F_p, dual
numbers base[eps]/(eps^2), and truncated local rings base[v1..vk]/m^N.
All of them are local with a field at the bottom, so "unit" uniformly means
"nonzero residue".  Every operation is exact; inversion either succeeds
exactly or raises `NotAUnitError`.

The two composite kinds, nested in any order, share one arithmetic
(`TruncatedRing`): an element's value is a flat dict from monomials in every
variable of the tower to raw values of the bottom field, so no element holds
the elements of another ring.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import lcm
from operator import add, mul


class NotAUnitError(ArithmeticError):
    """Inversion was requested for an element with zero residue."""


class RingConstructionError(ValueError):
    """Invalid ring parameters (composite modulus, truncation order < 1, ...)."""


class CoeffParseError(ValueError):
    """A coefficient literal could not be parsed for the target ring."""


# Bases 2..41, the first 13 primes, admit no strong pseudoprime below this
# bound (Sorenson and Webster 2017), so Miller-Rabin with them decides
# primality exactly there.  Larger moduli are refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Primality of an int n < _PRIME_BOUND, by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def format_terms(terms, names):
    """Render (exponent tuple, coefficient string) pairs as a sum of monomials.

    A coefficient with a sign after its first character is bracketed, so the
    result parses back as a literal; a coefficient of 1 or -1 is dropped in
    front of a monomial, and the empty sum is "0".
    """
    parts = []
    for e, cs in terms:
        mono = "*".join(nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, e) if k)
        if mono and cs == "1":
            parts.append(mono)
        elif mono and cs == "-1":
            parts.append(f"-{mono}")
        else:
            if any(ch in cs[1:] for ch in "+-"):
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono else cs)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


# --- coefficient kernels -----------------------------------------------------
#
# Sparse polynomials are dicts {exponent tuple: nonzero coefficient}; dense
# ones are sequences indexed by exponent.  Every element type builds its
# arithmetic on these, so each coefficient loop is written once.  The sparse
# loops test coefficients by truth value, so they run on ring elements and on
# raw values alike; over F_p, raw sums and products come out unreduced.


def _sparse_add(x, y):
    """Sum of two sparse polynomials."""
    out = dict(x)
    for e, c in y.items():
        c0 = out.get(e)
        c = c if c0 is None else c0 + c
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def _sparse_mul(x, y, keep=None):
    """Product of two sparse polynomials.

    With `keep`, a mapping from exponent tuples to bools, only the products
    at exponents it maps to True are formed (a truncated ring drops the
    monomials past its orders).
    """
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(map(add, e1, e2))
            if keep is not None and not keep[e]:
                continue
            c0 = out.get(e)
            c = c1 * c2 if c0 is None else c0 + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


# Over Q and F_p a dense vector of raw values is multiplied as one integer
# (Kronecker substitution): its integer images v_k (numerators over a shared
# denominator over Q, residues over F_p) become sum v_k * 2^(w*k), and the
# product of two such integers holds the convolution, one coefficient per
# w-bit slot.  A slot sums at most `count` products, each below
# 2^(bitlen(max|a|) + bitlen(max|b|)) in absolute value, so with
#     w >= bitlen(max|a|) + bitlen(max|b|) + bitlen(count) + 1
# every coefficient c has |c| < 2^(w-1).  Adding 2^(w-1) to every slot then
# leaves each one a digit c + 2^(w-1) in [0, 2^w) with no borrow between
# slots, so the coefficients are read back from the bytes of the sum (w is
# rounded up to whole bytes, and to 1, 2, 4 or 8 of them when it fits a
# machine word, which a memoryview reads in one call).

_WORD_FORMATS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}  # slot bytes -> format
_LITTLE_ENDIAN = sys.byteorder == "little"


def _integer_images(ring, vecs):
    """Integer images of dense vectors of RingElem, the denominator they share,
    and the bit length of the largest image in absolute value."""
    if isinstance(ring, PrimeField):
        return [[c.val for c in v] for v in vecs], 1, (ring.p - 1).bit_length()
    vals = [[c.val for c in v] for v in vecs]
    den = lcm(*{x.denominator for v in vals for x in v})
    ints = [[x.numerator * (den // x.denominator) for x in v] for v in vals]
    return ints, den, max((max(map(abs, v)) for v in ints if v), default=0).bit_length()


def _pack(ints, w):
    out = 0
    for x in reversed(ints):
        out = (out << w) + x
    return out


def _product_sums(ring, left, right, outputs):
    """Dense sums of products, the one kernel behind Series2 and DPElem products.

    For each (length, pairs) in outputs, the `length` coefficients of the sum
    of left[i] * right[j] over (i, j) in pairs, as a tuple of RingElem;
    `length` must cover every product in the sum.  Over Q and F_p each vector
    is packed once into an integer (see above) and all sums are unpacked
    together; over composite rings the coefficients are multiplied pair by
    pair.
    """
    if not isinstance(ring, (Rationals, PrimeField)):
        sums = []
        for length, pairs in outputs:
            out = [ring.zero] * length
            for i, j in pairs:
                nb = [(k, y) for k, y in enumerate(right[j]) if not y.is_zero]
                for k1, x in enumerate(left[i]):
                    if x.is_zero:
                        continue
                    for k2, y in nb:
                        out[k1 + k2] = out[k1 + k2] + x * y
            sums.append(tuple(out))
        return sums
    lints, lden, lbits = _integer_images(ring, left)
    rints, rden, rbits = _integer_images(ring, right)
    # each pair puts at most min(len(a), len(b)) products into a slot
    count = max((len(pairs) for _, pairs in outputs), default=0) * min(
        max(map(len, left), default=0), max(map(len, right), default=0)
    )
    wb = (lbits + rbits + count.bit_length() + 8) // 8  # bytes per slot
    if wb <= 8:
        wb = 1 << (wb - 1).bit_length()
    w = 8 * wb
    lpacked = [_pack(v, w) for v in lints]
    rpacked = [_pack(v, w) for v in rints]
    # every sum, stacked into one integer at the offset of its first slot
    total = 0
    for length, pairs in reversed(outputs):
        acc = 0
        for i, j in pairs:
            acc += lpacked[i] * rpacked[j]
        total = (total << (w * length)) + acc
    nslots = sum(length for length, _ in outputs)
    bias = int.from_bytes((bytes(wb - 1) + b"\x80") * nslots, "little")  # 2^(w-1) in every slot
    buf = (total + bias).to_bytes(wb * nslots, "little")
    if wb in _WORD_FORMATS and _LITTLE_ENDIAN:
        digits = memoryview(buf).cast(_WORD_FORMATS[wb]).tolist()
    else:
        digits = [int.from_bytes(buf[k : k + wb], "little") for k in range(0, wb * nslots, wb)]
    half, zero = 1 << (w - 1), ring.zero
    if isinstance(ring, PrimeField):
        p = ring.p
        vals = [RingElem(ring, (d - half) % p) if d != half else zero for d in digits]
    else:
        den = lden * rden
        vals = [RingElem(ring, Fraction(d - half, den)) if d != half else zero for d in digits]
    sums, start = [], 0
    for length, _ in outputs:
        sums.append(tuple(vals[start : start + length]))
        start += length
    return sums


def _power(x, n, one, times=mul):
    """x**n by binary powering, each product formed as times(a, b).

    The base is squared only while bits remain, so every power formed is
    x**m with m <= n (a degree bound that admits x**n admits them all).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("only nonnegative integer powers")
    out = one
    while n:
        if n & 1:
            out = times(out, x)
        n >>= 1
        if n:
            x = times(x, x)
    return out


class RingElem:
    """Element of a `Ring`.  Arithmetic coerces Python ints automatically."""

    __slots__ = ("ring", "val")

    def __init__(self, ring, val):
        self.ring = ring
        self.val = val

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ring != self.ring:
                raise ValueError(f"mixed rings: {self.ring} and {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElem(self.ring, self.ring._vadd(self.val, other.val))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElem(self.ring, self.ring._vadd(self.val, self.ring._vneg(other.val)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RingElem(self.ring, self.ring._vmul(self.val, other.val))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElem(self.ring, self.ring._vneg(self.val))

    def __pow__(self, n):
        return _power(self, n, self.ring.one)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.val == other.val

    def __bool__(self):
        return not self.ring._vis_zero(self.val)

    @property
    def is_zero(self):
        return self.ring._vis_zero(self.val)

    @property
    def is_unit(self):
        return not self.residue().is_zero

    def inv(self):
        """Exact multiplicative inverse; raises NotAUnitError for non-units."""
        return RingElem(self.ring, self.ring._vinv(self.val))

    def try_invert(self):
        """Inverse when the element is a unit, else None."""
        try:
            return self.inv()
        except NotAUnitError:
            return None

    def residue(self):
        """Image in the residue field (the identity on field elements)."""
        return self.ring.residue(self)

    def __str__(self):
        return self.ring.short(self)

    def __repr__(self):
        return f"<{self} in {self.ring.descriptor()}>"


class Ring:
    """Common interface of all coefficient rings.

    Instances are immutable value objects: two rings compare equal iff they
    were built from the same parameters, i.e. have the same descriptor, and
    elements of equal rings mix freely.
    """

    is_field = False

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        raise NotImplementedError

    def from_fraction(self, fr):
        raise NotImplementedError

    def __call__(self, x):
        """Coerce an int, literal string, or element of this ring."""
        if isinstance(x, RingElem):
            if x.ring != self:
                raise ValueError(f"element of {x.ring} is not in {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, str):
            return self.parse_elem(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def _vis_zero(self, val):
        return not val  # every raw value is falsy exactly when it is zero

    def residue_ring(self):
        return self

    def residue(self, elem):
        """Image in the residue field; the identity on fields."""
        return elem

    def atoms(self):
        """Named generators usable in literals (eps, truncation variables)."""
        return {}

    def parse_elem(self, s):
        return _parse_literal(self, s)

    def random_element(self, rng):
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def short(self, elem):
        raise NotImplementedError

    def format_elem(self, elem):
        return self.short(elem)

    @cached_property
    def _key(self):
        return self.descriptor()

    def __eq__(self, other):
        return type(other) is type(self) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return self.descriptor()


class Rationals(Ring):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    is_field = True

    def from_int(self, n):
        return RingElem(self, Fraction(n))

    def from_fraction(self, fr):
        return RingElem(self, Fraction(fr))

    def _vadd(self, a, b):
        return a + b

    def _vneg(self, a):
        return -a

    def _vmul(self, a, b):
        return a * b

    def _vinv(self, a):
        if a == 0:
            raise NotAUnitError("0 is not invertible")
        return 1 / a

    def random_element(self, rng):
        return RingElem(self, Fraction(rng.randint(-8, 8), rng.randint(1, 6)))

    def descriptor(self):
        return "q"

    def short(self, elem):
        return str(elem.val)


class PrimeField(Ring):
    """The field F_p; elements are residues in [0, p)."""

    is_field = True

    def __init__(self, p):
        if isinstance(p, int) and p >= _PRIME_BOUND:
            raise RingConstructionError(
                f"modulus {p} is not below {_PRIME_BOUND}, the bound of the exact primality test"
            )
        if not isinstance(p, int) or not _is_prime(p):
            raise RingConstructionError(f"modulus {p!r} is not prime")
        self.p = p

    def from_int(self, n):
        return RingElem(self, n % self.p)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        den = self.from_int(fr.denominator)
        if not den.is_unit:
            raise CoeffParseError(f"denominator {fr.denominator} vanishes mod {self.p}")
        return self.from_int(fr.numerator) * den.inv()

    def _vadd(self, a, b):
        return (a + b) % self.p

    def _vneg(self, a):
        return (-a) % self.p

    def _vmul(self, a, b):
        return (a * b) % self.p

    def _vinv(self, a):
        if a == 0:
            raise NotAUnitError(f"0 is not invertible mod {self.p}")
        return pow(a, -1, self.p)

    def random_element(self, rng):
        return RingElem(self, rng.randrange(self.p))

    def descriptor(self):
        return f"fp:{self.p}"

    def short(self, elem):
        return str(elem.val)

    def format_elem(self, elem):
        return f"{elem.val} mod {self.p}"


class _Truncation(dict):
    """Exponent tuple -> whether its monomial survives, i.e. each group of
    variables stays below its order; filled on demand."""

    def __init__(self, groups):
        self.groups = groups

    def __missing__(self, e):
        ok = self[e] = all(sum(e[a:b]) < order for a, b, order in self.groups)
        return ok


class TruncatedRing(Ring):
    """field[x1..xn] modulo the monomials past some group's order.

    The composite rings are towers over a bottom field: each level adjoins a
    group of variables, nilpotent of a given order (the dual numbers adjoin
    the group (eps,) of order 2).  A value is a flat dict {exponent tuple over
    every variable of the tower, base-level variables first: raw field value},
    a ``Fraction`` over Q and an int in [0, p) over F_p, with zeros dropped so
    equality is structural.  Subclasses add the per-kind interface: the
    variable names, parsing atoms and printing.
    """

    def __init__(self, base, nvars, order):
        if isinstance(base, TruncatedRing):
            self.field, groups, start = base.field, base._groups, len(base._const_exp)
        else:
            self.field, groups, start = base, (), 0
        self.base = base
        self._groups = groups + ((start, start + nvars, order),)
        self._nbase = start
        self._own_zero = (0,) * nvars
        self._const_exp = (0,) * (start + nvars)
        self._fzero, self._fone = self.field.zero.val, self.field.one.val
        self._p = self.field.p if isinstance(self.field, PrimeField) else None
        # m^index = 0 for the maximal ideal m: a product of more factors puts
        # some group past its order
        self._index = 1 + sum(order - 1 for _, _, order in self._groups)
        self._keep = _Truncation(self._groups)

    # --- raw values --------------------------------------------------------

    def _reduce(self, d):
        p = self._p
        return d if p is None else {e: r for e, c in d.items() if (r := c % p)}

    def _const(self, raw):
        return {self._const_exp: raw} if raw else {}

    def from_int(self, n):
        return RingElem(self, self._const(self.field.from_int(n).val))

    def from_fraction(self, fr):
        return RingElem(self, self._const(self.field.from_fraction(fr).val))

    def _vadd(self, x, y):
        return self._reduce(_sparse_add(x, y))

    def _vneg(self, x):
        return self._reduce({e: -c for e, c in x.items()})

    def _vmul(self, x, y):
        return self._reduce(_sparse_mul(x, y, self._keep))

    def _vinv(self, x):
        # x = (1 - n) / c with c the inverse of the residue and n nilpotent, so
        # 1/x = c * (1 + n + ... + n^(index-1))
        const = self._const_exp
        c = RingElem(self.field, x.get(const, self._fzero)).inv().val  # NotAUnitError on a zero residue
        n = self._vneg(self._scale({e: v for e, v in x.items() if e != const}, c))
        out, pw = self._vadd({const: self._fone}, n), n
        for _ in range(2, self._index):
            pw = self._vmul(pw, n)
            out = self._vadd(out, pw)
        return self._scale(out, c)

    def _scale(self, x, c):
        """x times a raw field value."""
        return self._reduce({e: v * c for e, v in x.items()})

    def residue_ring(self):
        return self.field

    def residue(self, elem):
        return RingElem(self.field, elem.val.get(self._const_exp, self._fzero))

    # --- the base ring's view ----------------------------------------------

    def _split(self, val):
        """{exponents of this level's variables: base-ring coefficient} of a value."""
        k, parts = self._nbase, {}
        for e, c in val.items():
            parts.setdefault(e[k:], {})[e[:k]] = c
        flat = isinstance(self.base, TruncatedRing)
        return {own: RingElem(self.base, d if flat else d[()]) for own, d in parts.items()}

    def _join(self, parts):
        """The value of a sum of base-ring coefficient * monomial of this level's
        variables, given as {exponents: coefficient}."""
        flat = isinstance(self.base, TruncatedRing)
        return {e + own: c for own, a in parts.items() for e, c in (a.val if flat else {(): a.val}).items() if c}

    def embed(self, a):
        """A base-ring element (or anything the base ring coerces) as an element of this ring."""
        return RingElem(self, self._join({self._own_zero: self.base(a)}))


class DualNumbers(TruncatedRing):
    """base[eps]/(eps^2), whose elements are a + b*eps with a, b in base."""

    def __init__(self, base):
        if not isinstance(base, Ring):
            raise RingConstructionError("dual-number base must be a ring")
        super().__init__(base, 1, 2)

    @property
    def eps(self):
        return RingElem(self, self._join({(1,): self.base.one}))

    def parts(self, elem):
        """The (a, b) components of a + b*eps as base-ring elements."""
        parts = self._split(elem.val)
        return parts.get((0,), self.base.zero), parts.get((1,), self.base.zero)

    def atoms(self):
        out = {"e": self.eps, "eps": self.eps}
        for name, g in self.base.atoms().items():
            if name in out:
                raise RingConstructionError(f"atom name {name!r} collides with eps")
            out[name] = self.embed(g)
        return out

    def random_element(self, rng):
        a = self.base.random_element(rng)
        return RingElem(self, self._join({(0,): a, (1,): self.base.random_element(rng)}))

    def descriptor(self):
        return f"dual:{self.base.descriptor()}"

    def short(self, elem):
        a, b = self.parts(elem)
        if b.is_zero:
            return self.base.short(a)
        bs = self.base.short(b)
        if bs == "1":
            eps_term = "eps"
        elif bs == "-1":
            eps_term = "-eps"
        else:
            if any(c in bs[1:] for c in "+-"):
                bs = f"({bs})"
            eps_term = f"{bs}*eps"
        if a.is_zero:
            return eps_term
        head = self.base.short(a)
        return head + eps_term if eps_term.startswith("-") else f"{head}+{eps_term}"

    def format_elem(self, elem):
        a, b = self.parts(elem)
        bs = self.base.short(b)
        if not re.fullmatch(r"\d+(/\d+)?", bs):
            bs = f"({bs})"
        return f"{self.base.short(a)}+{bs}*eps"


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class LocalTruncation(TruncatedRing):
    """base[v1..vk] truncated at m^N = 0, m = (v1..vk)."""

    def __init__(self, base, var_names, order):
        if not isinstance(base, Ring):
            raise RingConstructionError("truncation base must be a ring")
        var_names = tuple(var_names)
        if not var_names or len(set(var_names)) != len(var_names):
            raise RingConstructionError("variable names must be nonempty and distinct")
        for nm in var_names:
            if not _NAME_RE.fullmatch(nm):
                raise RingConstructionError(f"bad variable name {nm!r}")
            if nm in base.atoms() or nm in ("e", "eps"):
                raise RingConstructionError(f"variable {nm!r} collides with a base atom")
        if not isinstance(order, int) or order < 1:
            raise RingConstructionError(f"truncation order must be >= 1, got {order!r}")
        self.var_names = var_names
        self.order = order
        super().__init__(base, len(var_names), order)

    def gen(self, name):
        i = self.var_names.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.var_names)))
        return RingElem(self, self._join({e: self.base.one}) if self.order > 1 else {})

    @property
    def gens(self):
        return tuple(self.gen(nm) for nm in self.var_names)

    def terms(self, elem):
        """Sorted (exponents, base coefficient) pairs of an element."""
        return sorted(self._split(elem.val).items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def atoms(self):
        out = {nm: self.gen(nm) for nm in self.var_names}
        for name, g in self.base.atoms().items():
            out[name] = self.embed(g)
        return out

    def random_element(self, rng):
        out = {}
        for e in self._small_exponents():
            if rng.random() < 0.6:
                c = self.base.random_element(rng)
                if not c.is_zero:
                    out[e] = c
        return RingElem(self, self._join(out))

    def _small_exponents(self, cap=2):
        k = len(self.var_names)
        picks = (c for d in range(min(self.order, cap + 1)) for c in combinations_with_replacement(range(k), d))
        return sorted(tuple(c.count(i) for i in range(k)) for c in picks)

    def descriptor(self):
        return f"loc:{self.base.descriptor()}:{','.join(self.var_names)}:{self.order}"

    def short(self, elem):
        return format_terms(
            [(e, self.base.short(c)) for e, c in self.terms(elem)], self.var_names
        )


# --- literal parsing -------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|[+\-*^()])")


def _quote(s, limit=60):
    """A literal quoted for an error message, cut to its first ``limit`` characters."""
    return repr(s) if len(s) <= limit else f"{s[:limit]!r}… ({len(s)} characters)"


def _tokenize(s):
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if not m:
            raise CoeffParseError(f"bad literal {_quote(s)} at position {pos}")
        out.append(m.group(1))
        pos = m.end()
    return out


# Bit bound on a literal's exponents, value and every product its powers form:
# 9^99999999 would take minutes to compute and reports could not print it.
_LITERAL_BITS = 4096


def _bits(val):
    """Bit length of the largest numerator or denominator in a raw value."""
    vals = val.values() if isinstance(val, dict) else (val,)
    return max((max(abs(v.numerator), v.denominator).bit_length() for v in vals), default=0)


def _check_number(tok, source, what="a number"):
    """Refuse a number token that passes the bit bound or is too long to convert."""
    try:
        bits = max(int(part).bit_length() for part in tok.split("/"))
    except ValueError:  # more digits than the interpreter converts
        bits = None
    if bits is None or bits > _LITERAL_BITS:
        raise CoeffParseError(f"{what} passes the bound of {_LITERAL_BITS} bits in {_quote(source)}")


class _LiteralParser:
    """Recursive-descent parser for sums of products of atoms and numbers.

    Grammar: expr := ['+'|'-'] term (('+'|'-') term)*;
    term := factor (['*'] factor)*; factor := base ['^' int];
    base := number | atom | '(' expr ')'.  Adjacency is implicit product.
    """

    def __init__(self, ring, tokens, source):
        self.ring = ring
        self.atoms = ring.atoms()
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def fail(self, why):
        raise CoeffParseError(f"{why} in {_quote(self.source)}")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expr(self):
        total = self.ring.zero
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.tokens[self.pos] == "-" else 1
            self.pos += 1
        while True:
            term = self.term()
            total = total + (term if sign == 1 else -term)
            tok = self.peek()
            if tok not in ("+", "-"):
                return total
            sign = -1 if tok == "-" else 1
            self.pos += 1

    def term(self):
        out = self.factor()
        while True:
            tok = self.peek()
            if tok == "*":
                self.pos += 1
                out = out * self.factor()
            elif tok is not None and tok not in ("+", "-", ")", "^"):
                out = out * self.factor()  # implicit product, e.g. "2e"
            else:
                return out

    def factor(self):
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            tok = self.peek()
            if tok is None or not tok.isdigit():
                self.fail("bad exponent")
            self.pos += 1
            _check_number(tok, self.source, "an exponent")
            base = _power(base, int(tok), self.ring.one, lambda a, b: self.bounded(a * b))
        return base

    def bounded(self, x):
        if _bits(x.val) > _LITERAL_BITS:
            self.fail(f"a numerator or denominator passes the bound of {_LITERAL_BITS} bits")
        return x

    def base(self):
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of literal")
        if tok == "(":
            self.pos += 1
            out = self.expr()
            if self.peek() != ")":
                self.fail("unbalanced parentheses")
            self.pos += 1
            return out
        self.pos += 1
        if tok in self.atoms:
            return self.atoms[tok]
        if tok[0].isdigit():
            _check_number(tok, self.source)
        try:
            return self.ring.from_fraction(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            self.fail(f"unknown atom {_quote(tok)}")


def _parse_literal(ring, s):
    """Parse terms like '3/2', '-1+2*eps', 's^2*t-3' against the ring's atoms."""
    s = s.strip()
    m = re.fullmatch(r"(-?\d+)\s+mod\s+(\d+)", s)
    if m and isinstance(ring, PrimeField):
        _check_number(m.group(1), s)
        _check_number(m.group(2), s)
        if int(m.group(2)) != ring.p:
            raise CoeffParseError(f"literal {_quote(s)} names a different modulus than {ring.p}")
        return ring.from_int(int(m.group(1)))
    tokens = _tokenize(s)
    if not tokens:
        raise CoeffParseError("empty literal")
    parser = _LiteralParser(ring, tokens, s)
    out = parser.expr()
    if parser.pos != len(tokens):
        raise CoeffParseError(f"trailing tokens in {_quote(s)}")
    return parser.bounded(out)


# --- descriptors -----------------------------------------------------------

def make_ring(descriptor):
    """Build a ring from a descriptor string.

    Grammar: ``q`` | ``fp:<prime>`` | ``dual:<base>`` |
    ``loc:<base>:<v1,..,vk>:<order>``; e.g. ``loc:fp:7:s,t:4``.
    """
    if isinstance(descriptor, Ring):
        return descriptor
    tokens = descriptor.split(":")

    def parse(pos):
        if pos >= len(tokens):
            raise RingConstructionError(f"truncated descriptor {descriptor!r}")
        tok = tokens[pos]
        if tok in ("q", "Q", "rationals"):
            return Rationals(), pos + 1
        if tok == "fp":
            if pos + 1 >= len(tokens):
                raise RingConstructionError("fp: needs a modulus")
            try:
                p = int(tokens[pos + 1])
            except ValueError:
                raise RingConstructionError(f"bad modulus {tokens[pos + 1]!r}") from None
            return PrimeField(p), pos + 2
        if tok == "dual":
            base, nxt = parse(pos + 1)
            return DualNumbers(base), nxt
        if tok == "loc":
            base, nxt = parse(pos + 1)
            if nxt + 1 >= len(tokens):
                raise RingConstructionError("loc: needs variables and an order")
            names = tokens[nxt].split(",")
            try:
                order = int(tokens[nxt + 1])
            except ValueError:
                raise RingConstructionError(f"bad order {tokens[nxt + 1]!r}") from None
            return LocalTruncation(base, names, order), nxt + 2
        raise RingConstructionError(f"unknown ring kind {tok!r}")

    ring, pos = parse(0)
    if pos != len(tokens):
        raise RingConstructionError(f"trailing descriptor parts in {descriptor!r}")
    ring.atoms()  # raises when nested atom names collide, e.g. dual:dual:q
    return ring
