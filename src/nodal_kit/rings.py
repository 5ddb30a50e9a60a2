"""Exact coefficient arithmetic behind one element interface.

Four kinds of rings are supported: the rationals, prime fields F_p, dual
numbers base[eps]/(eps^2), and truncated local rings base[v1..vk]/m^N.
All of them are local with a field at the bottom, so "unit" uniformly means
"nonzero residue".  Every operation is exact; inversion either succeeds
exactly or raises `NotAUnitError`.

The two composite kinds, nested in any order, share one arithmetic
(`TruncatedRing`): a value is a dense tuple of integer numerators over the
standard monomials of the whole tower, then one positive denominator (1 over
F_p), so no element holds another ring's elements.  A rational is the same
layout over the one monomial 1: (numerator, denominator), zero being ().  Each
ring reads a raw value as integers over a denominator with `_ints` and writes
one with `_norm`; only the ring classes read the layout.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd, lcm
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

    In front of a monomial a coefficient of 1 or -1 is dropped and one with a
    sign after its first character is bracketed, so the result parses back as
    a literal; the empty sum is "0".
    """
    parts = []
    for e, cs in terms:
        mono = "*".join(nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, e) if k)
        if not mono:
            parts.append(cs)
        elif cs in ("1", "-1"):
            parts.append(cs[:-1] + mono)  # the sign alone
        else:
            parts.append(f"({cs})*{mono}" if any(ch in cs[1:] for ch in "+-") else f"{cs}*{mono}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


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
            if other.ring is not self.ring and other.ring != self.ring:
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
            if x.ring is not self and x.ring != self:
                raise ValueError(f"element of {x.ring} is not in {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, str):
            return self.parse_elem(x)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def _vis_zero(self, val):
        return not val  # every raw value is falsy exactly when it is zero

    def residue(self, elem):
        """Image in the residue field; the identity on fields."""
        return elem

    def atoms(self):
        """Named generators usable in literals (eps, truncation variables)."""
        return {}

    @cached_property
    def _atoms(self):
        """atoms(), built once per ring: the literal parser only reads them."""
        return self.atoms()

    def parse_elem(self, s):
        return _parse_literal(self, s)

    def random_element(self, rng):
        return RingElem(self, self._norm(*self._random_ints(rng)))

    def _random_ints(self, rng):
        """A random value as integer numerators (a list) over a positive
        denominator, the form `_ints` reads, not necessarily in lowest terms."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def short(self, elem):
        return str(elem.val)

    def format_elem(self, elem):
        return self.short(elem)

    @cached_property
    def _key(self):
        return self.descriptor()

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and other._key == self._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return self.descriptor()


class Rationals(Ring):
    """The field of rational numbers, in the layout of the towers over it: a
    value is (numerator, denominator) in lowest terms with a positive
    denominator, and zero is ()."""

    is_field = True

    def from_int(self, n):
        return RingElem(self, (n, 1) if n else ())

    def from_fraction(self, fr):
        fr = Fraction(fr)
        return RingElem(self, (fr.numerator, fr.denominator) if fr else ())

    def _vadd(self, a, b):
        if not a or not b:
            return a or b
        (n1, d1), (n2, d2) = a, b
        if d1 == d2:
            return self._norm((n1 + n2,), d1)
        return self._norm((n1 * d2 + n2 * d1,), d1 * d2)

    def _vneg(self, a):
        return (-a[0], a[1]) if a else a

    def _vmul(self, a, b):
        return self._norm((a[0] * b[0],), a[1] * b[1]) if a and b else ()

    def _vinv(self, a):
        if not a:
            raise NotAUnitError("0 is not invertible")
        return (a[1], a[0]) if a[0] > 0 else (-a[1], -a[0])

    def _ints(self, a):
        return (a[:1], a[1]) if a else ((0,), 1)

    def _common(self, vecs):
        """Vectors of raw values over one denominator, the lcm of theirs, as
        (lists of numerators, denominator): the bulk `_ints` of a kernel side."""
        den = lcm(*{x[1] for v in vecs for x in v if x})
        return [[x[0] * (den // x[1]) if x else 0 for x in v] for v in vecs], den

    def _norm(self, nums, den):
        g = gcd(nums[0], den)
        return (nums[0] // g, den // g) if nums[0] else ()

    def _random_ints(self, rng):
        return [rng.randint(-8, 8)], rng.randint(1, 6)

    def descriptor(self):
        return "q"

    def short(self, elem):
        (n,), d = self._ints(elem.val)
        return str(n) if d == 1 else f"{n}/{d}"


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

    def _ints(self, a):
        return (a,), 1

    def _norm(self, nums, den):
        return nums[0] % self.p  # den is 1: raw values over F_p have no denominator

    def _random_ints(self, rng):
        return [rng.randrange(self.p)], 1

    def descriptor(self):
        return f"fp:{self.p}"

    def format_elem(self, elem):
        return f"{elem.val} mod {self.p}"


# Size bounds on a composite ring, checked before it is built.  Its product
# table holds a pair per two monomials whose product survives: at the bound,
# loc:q:s:446 builds in 0.13 s and 12 MB; 20 dual: levels would need 3.5e9.
# A value is dense over the monomials, so they are bounded too: on a 2-vCPU x86
# box check-all takes 7 s over loc:q:s,t,u:14 (1,120 monomials in its dual),
# 11.5 s over the widest ring the CLI admits (599 variables of order 2).
_MAX_PAIRS = 100_000
_MAX_MONOMIALS = 1_200


def _comb_capped(n, k, cap):
    """comb(n, k), or cap + 1 as soon as it passes cap."""
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i  # comb(n - k + i, i), nondecreasing in i
        if c > cap:
            return cap + 1
    return c


class TruncatedRing(Ring):
    """field[x1..xn] modulo the monomials past some group's order.

    The composite rings are towers over a bottom field: each level adjoins a
    group of variables, nilpotent of a given order (the dual numbers adjoin
    the group (eps,) of order 2).  A value is a dense tuple over the tower's
    standard monomials, in one order fixed at construction: the base ring's
    monomials times this level's first monomial (1), then times its second,
    and so on, so monomial 0 is the constant.  Over both fields a value is
    integer numerators, one per monomial, then one positive denominator
    coprime to them all: residues in [0, p) over 1 over F_p.  Zero is (), so
    equality is structural and only zero is falsy; `_norm` alone knows the
    field.  A product walks a fixed index map: for each monomial i, the pairs
    (j, k) with m_i * m_j = m_k.  An element prints as a sum over this
    level's variables `var_names` with base-ring coefficients.  Subclasses add
    the per-kind interface: the variable names, parsing atoms and the report
    format `format_elem`.
    """

    def __init__(self, base, nvars, order):
        if isinstance(base, TruncatedRing):
            self.field, base_monos, base_rows, base_index = base.field, base._monos, base._rows, base._index
        else:
            self.field, base_monos, base_rows, base_index = base, [()], [[(0, 0)]], 1
        # this level's monomials are those of degree < order in nvars variables,
        # its pairs those of degree < order in 2 * nvars variables
        base_pairs = sum(map(len, base_rows))
        pairs = base_pairs * _comb_capped(2 * nvars + order - 1, 2 * nvars, _MAX_PAIRS // base_pairs)
        if pairs > _MAX_PAIRS:
            raise RingConstructionError(
                f"ring too large: its product table passes {_MAX_PAIRS} pairs of monomials, the size bound"
            )
        monos = len(base_monos) * _comb_capped(nvars + order - 1, nvars, _MAX_MONOMIALS // len(base_monos))
        if monos > _MAX_MONOMIALS:
            raise RingConstructionError(f"ring too large: it passes {_MAX_MONOMIALS} monomials, the size bound")
        self.base = base
        self._p = self.field.p if isinstance(self.field, PrimeField) else None
        # this level's monomials by degree, so those of degree below d are a prefix
        own = [
            tuple(c.count(i) for i in range(nvars))
            for d in range(order)
            for c in combinations_with_replacement(range(nvars), d)
        ]
        degrees = [sum(e) for e in own]
        self._own_pos = pos = {e: k for k, e in enumerate(own)}
        own_rows = [
            [(j, pos[tuple(map(add, e1, e2))]) for j, e2 in enumerate(own[: bisect_left(degrees, order - d)])]
            for e1, d in zip(own, degrees)
        ]
        self._own_zero = own[0]
        self._nb = nb = len(base_monos)
        self._monos = [e + o for o in own for e in base_monos]
        # monomial o*nb + b is own[o] times the base's monomial b, so a product
        # pairs the entries of this level's table with those of the base's
        self._rows = [
            [(j2 * nb + j1, k2 * nb + k1) for j2, k2 in own_rows[o] for j1, k1 in base_rows[b]]
            for o in range(len(own))
            for b in range(nb)
        ]
        # m^index = 0 for the maximal ideal m: a product of more factors puts
        # some group past its order
        self._index = base_index + order - 1
        self._one = self._const(self.field.one.val)

    # --- raw values --------------------------------------------------------

    def _ints(self, x):
        return x[:-1], x[-1]

    def _norm(self, nums, den):
        """The value of a list of integer numerators over a positive
        denominator: reduced mod p over F_p (where the denominator is 1), and
        over Q divided by their gcd with the denominator."""
        p = self._p
        if p is not None:
            nums = [v % p for v in nums]
        if not any(nums):
            return ()
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = [v // g for v in nums]
                den //= g
        nums.append(den)
        return tuple(nums)

    def _const(self, raw):
        if not raw:
            return ()
        (num,), den = self.field._ints(raw)
        zeros = (0,) * (len(self._monos) - 1)
        return (num, *zeros, den)

    @property
    def zero(self):
        return RingElem(self, ())

    @property
    def one(self):
        return RingElem(self, self._one)

    def from_int(self, n):
        return RingElem(self, self._const(self.field.from_int(n).val))

    def from_fraction(self, fr):
        return RingElem(self, self._const(self.field.from_fraction(fr).val))

    def _vadd(self, x, y):
        if not x:
            return y
        if not y:
            return x
        dx, dy = x[-1], y[-1]
        if dx == dy:
            return self._norm([a + b for a, b in zip(x[:-1], y)], dx)
        return self._norm([a * dy + b * dx for a, b in zip(x[:-1], y)], dx * dy)

    def _vneg(self, x):
        return self._norm([-a for a in x[:-1]], x[-1]) if x else x

    def _vmul(self, x, y):
        if not x or not y:
            return ()
        out = [0] * len(self._monos)
        for a, row in zip(x, self._rows):
            if a:
                for j, k in row:
                    b = y[j]
                    if b:
                        out[k] += a * b
        return self._norm(out, x[-1] * y[-1])

    def _scale(self, x, c):
        """x times a raw field value."""
        if not x:
            return x
        (num,), den = self.field._ints(c)
        return self._norm([a * num for a in x[:-1]], x[-1] * den)

    def _vinv(self, x):
        # x = (1 - n) / c with c the inverse of the residue and n nilpotent, so
        # 1/x = c * (1 + n + ... + n^(index-1))
        c = RingElem(self.field, self._residue_raw(x)).inv().val  # NotAUnitError on a zero residue
        n = self._scale(self._norm([0, *x[1:-1]], x[-1]), self.field._vneg(c))
        out, pw = self._vadd(self._one, n), n
        for _ in range(2, self._index):
            pw = self._vmul(pw, n)
            if not pw:
                break
            out = self._vadd(out, pw)
        return self._scale(out, c)

    def _residue_raw(self, x):
        return self.field._norm(x[:1], x[-1]) if x else self.field.zero.val

    def residue(self, elem):
        return RingElem(self.field, self._residue_raw(elem.val))

    def flat_terms(self, elem):
        """{exponents over every variable of the tower, base variables first: raw
        field value} of an element's nonzero coefficients."""
        x, norm = elem.val, self.field._norm
        return {e: norm((v,), x[-1]) for e, v in zip(self._monos, x) if v}

    # --- the base ring's view ----------------------------------------------

    def _split(self, val):
        """{exponents of this level's variables: base-ring coefficient} of a value."""
        nb, base, out = self._nb, self.base, {}
        for own, k in self._own_pos.items():
            block = list(val[k * nb : (k + 1) * nb])
            if any(block):
                out[own] = RingElem(base, base._norm(block, val[-1]))
        return out

    def _join(self, parts):
        """The value of a sum of base-ring coefficient * monomial of this level's
        variables, given as {exponents: coefficient}."""
        pos, ints = self._own_pos, self.base._ints
        return self._norm(*self._blocks([(pos[own], *ints(a.val)) for own, a in parts.items() if a.val]))

    def _blocks(self, blocks):
        """Numerators over one denominator of a sum of base-ring values times
        this level's monomials, given as (monomial index, numerators, denominator)."""
        nb = self._nb
        den = lcm(*[d for _, _, d in blocks])
        out = [0] * len(self._monos)
        for k, nums, d in blocks:
            out[k * nb : (k + 1) * nb] = [v * (den // d) for v in nums]
        return out, den

    def embed(self, a):
        """A base-ring element (or anything the base ring coerces) as an element of this ring."""
        return RingElem(self, self._join({self._own_zero: self.base(a)}))

    # --- printing ----------------------------------------------------------

    def terms(self, elem):
        """Sorted (exponents of this level's variables, base coefficient) pairs of an element."""
        return sorted(self._split(elem.val).items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def short(self, elem):
        return format_terms([(e, self.base.short(c)) for e, c in self.terms(elem)], self.var_names)


class DualNumbers(TruncatedRing):
    """base[eps]/(eps^2), whose elements are a + b*eps with a, b in base."""

    var_names = ("eps",)

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

    def _random_ints(self, rng):
        draw = self.base._random_ints
        return self._blocks([(0, *draw(rng)), (1, *draw(rng))])

    def descriptor(self):
        return f"dual:{self.base.descriptor()}"

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
        base_atoms = base.atoms()
        for nm in var_names:
            if not _NAME_RE.fullmatch(nm):
                raise RingConstructionError(f"bad variable name {nm!r}")
            if nm in base_atoms or nm in ("e", "eps"):
                raise RingConstructionError(f"variable {nm!r} collides with a base atom")
        if not isinstance(order, int) or order < 1:
            raise RingConstructionError(f"truncation order must be >= 1, got {order!r}")
        self.var_names = var_names
        self.order = order
        super().__init__(base, len(var_names), order)

    def gen(self, name):
        i = self.var_names.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.var_names)))
        return RingElem(self, self._join({e: self.base.one}) if self.order > 1 else ())

    @property
    def gens(self):
        return tuple(self.gen(nm) for nm in self.var_names)

    def atoms(self):
        out = {nm: self.gen(nm) for nm in self.var_names}
        for name, g in self.base.atoms().items():
            out[name] = self.embed(g)
        return out

    def _random_ints(self, rng):
        # a base draw for each monomial of degree <= 2 with probability 0.6
        draw = self.base._random_ints
        return self._blocks([(k, *draw(rng)) for k in self._small_positions if rng.random() < 0.6])

    @cached_property
    def _small_positions(self):
        """This level's monomials of degree <= 2, by their sorted exponents."""
        return [k for e, k in sorted(self._own_pos.items()) if sum(e) <= 2]

    def descriptor(self):
        return f"loc:{self.base.descriptor()}:{','.join(self.var_names)}:{self.order}"


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


def _bits(elem):
    """Bit length of the largest numerator or denominator among an element's
    coefficients, each read as a reduced fraction."""
    ring, vals = elem.ring, (elem.val,)
    if isinstance(ring, TruncatedRing):
        ring, vals = ring.field, ring.flat_terms(elem).values()
    return max((max(abs(n), d).bit_length() for (n,), d in map(ring._ints, vals)), default=0)


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
        self.atoms = ring._atoms
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
        if _bits(x) > _LITERAL_BITS:
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
        if not tok[0].isdigit():
            self.fail(f"unknown atom {_quote(tok)}")
        _check_number(tok, self.source)
        try:
            return self.ring.from_fraction(Fraction(tok))
        except ZeroDivisionError:
            self.fail(f"number {_quote(tok)} has denominator 0")
        except CoeffParseError as e:  # a denominator the ring cannot invert
            self.fail(f"number {_quote(tok)}: {e}")


def _parse_literal(ring, s):
    """Parse terms like '3/2', '-1+2*eps', 's^2*t-3' against the ring's atoms.

    A plain signed integer or fraction is read directly; on any error it is
    handed to the general parser, which words the message."""
    s = s.strip()
    start = 1 if s[:1] in ("+", "-") else 0
    num, slash, den = s[start:].partition("/")
    if num.isdecimal() and (den.isdecimal() or not slash):  # a number token: \d+ or \d+/\d+
        try:
            _check_number(s[start:], s)
            n = -int(num) if start and s[0] == "-" else int(num)
            return ring.from_fraction(Fraction(n, int(den))) if slash else ring.from_int(n)
        except (ArithmeticError, ValueError):
            pass
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

# Every level of order >= 2 at least triples the product table, so a tower
# within _MAX_PAIRS has at most 10 of them; levels of order 1 add nothing but
# depth, and 300 of them take 17 s to build (2,000 overflow the recursion).
_MAX_LEVELS = 16


def make_ring(descriptor):
    """Build a ring from a descriptor string.

    Grammar: ``q`` | ``fp:<prime>`` | ``dual:<base>`` |
    ``loc:<base>:<v1,..,vk>:<order>``; e.g. ``loc:fp:7:s,t:4``.
    """
    if isinstance(descriptor, Ring):
        return descriptor
    tokens = descriptor.split(":")

    def parse(pos, depth=0):
        if pos >= len(tokens):
            raise RingConstructionError(f"truncated descriptor {descriptor!r}")
        if depth > _MAX_LEVELS:
            raise RingConstructionError(f"more than {_MAX_LEVELS} nested dual:/loc: levels, the size bound")
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
            base, nxt = parse(pos + 1, depth + 1)
            clash = {"e", "eps"} & base.atoms().keys()  # e.g. dual:dual:q, refused before it is built
            if clash:
                raise RingConstructionError(f"atom name {min(clash)!r} collides with eps")
            return DualNumbers(base), nxt
        if tok == "loc":
            base, nxt = parse(pos + 1, depth + 1)
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
    return ring
