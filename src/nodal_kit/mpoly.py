"""Sparse multivariate polynomials over an exact coefficient ring.

Internal plumbing shared by the quotient-ring, factorization, and chart
modules; terms are stored as a dict from exponent tuples to nonzero
coefficients, so equality is structural and arithmetic stays exact.
"""

from __future__ import annotations

from operator import add, ge, sub

from .rings import RingElem, _power, _sparse_add, _sparse_mul, format_terms


class MPoly:
    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars, terms):
        clean = {}
        for e, c in terms.items():
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent tuple {e!r} for {nvars} variables")
            if not c.is_zero:
                clean[e] = c
        self.ring = ring
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _of(cls, ring, nvars, terms):
        """A polynomial of terms known to be valid (exponent tuples of length
        nvars, nonzero coefficients), built without checking them again."""
        out = object.__new__(cls)
        out.ring, out.nvars, out.terms = ring, nvars, terms
        return out

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars, {})

    @classmethod
    def const(cls, ring, nvars, c):
        return cls(ring, nvars, {(0,) * nvars: ring(c)})

    @classmethod
    def var(cls, ring, nvars, i, power=1):
        e = tuple(power if j == i else 0 for j in range(nvars))
        return cls(ring, nvars, {e: ring.one})

    @classmethod
    def monomial(cls, ring, exps, c=1):
        return cls(ring, len(exps), {tuple(exps): ring(c)})

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.ring.zero)

    def terms_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=None)

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ring != self.ring or other.nvars != self.nvars:
                raise ValueError("mixed polynomial rings")
            return other
        if isinstance(other, (RingElem, int)):
            return MPoly.const(self.ring, self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._of(self.ring, self.nvars, _sparse_add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return MPoly._of(self.ring, self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (RingElem, int)):
            c = self.ring(other)
            return MPoly._of(self.ring, self.nvars, {e: ca for e, a in self.terms.items() if (ca := c * a)})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._of(self.ring, self.nvars, _sparse_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(self, k, MPoly.const(self.ring, self.nvars, 1))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def divide(self, relation, lead, rng=None):
        """Divide by a relation whose lex-leading term is 1 * x^lead.

        Returns (rem, quot) with self = rem + quot * relation and no monomial of
        rem divisible by `lead`.  Each step cancels, in place, the largest divisible
        monomial, or with an rng a seeded draw from them in sorted order, trading it
        for lex-smaller ones, so the loop ends (Cox, Little and O'Shea, *Ideals,
        Varieties, and Algorithms*, 2.3).
        """
        relation = self._coerce(relation)
        if max(relation.terms, default=None) != lead or relation.terms[lead] != self.ring.one:
            raise ValueError(f"the relation's lex-leading term is not 1 * x^{lead}")
        tail = [(e, c) for e, c in relation.terms.items() if e != lead]
        rem, quot = dict(self.terms), {}
        while divisible := [e for e in rem if all(map(ge, e, lead))]:
            e = max(divisible) if rng is None else sorted(divisible)[rng.randrange(len(divisible))]
            c = rem.pop(e)
            shift = tuple(map(sub, e, lead))
            quot[shift] = quot[shift] + c if shift in quot else c
            for e2, c2 in tail:
                m = tuple(map(add, shift, e2))
                rem[m] = rem[m] - c * c2 if m in rem else -(c * c2)
                if rem[m].is_zero:
                    del rem[m]
        return MPoly(self.ring, self.nvars, rem), MPoly(self.ring, self.nvars, quot)

    def eval_var(self, i, value):
        """Specialize variable i to a ring element (exponent stays, set to 0)."""
        value = self.ring(value)
        out = MPoly.zero(self.ring, self.nvars)
        powers = {0: self.ring.one}
        for e, c in self.terms.items():
            k = e[i]
            if k not in powers:
                powers[k] = value**k
            e2 = tuple(0 if j == i else a for j, a in enumerate(e))
            out = out + MPoly(self.ring, self.nvars, {e2: c * powers[k]})
        return out

    def eval_all(self, values):
        """Evaluate at a full point; returns a ring element."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        values = [self.ring(v) for v in values]
        out = self.ring.zero
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                t = t * v**k
            out = out + t
        return out

    def subs_var(self, i, poly):
        """Substitute a polynomial for variable i."""
        poly = self._coerce(poly)
        out = MPoly.zero(self.ring, self.nvars)
        powers = {0: MPoly.const(self.ring, self.nvars, 1)}
        maxk = max((e[i] for e in self.terms), default=0)
        for k in range(1, maxk + 1):
            powers[k] = powers[k - 1] * poly
        for e, c in self.terms.items():
            e2 = tuple(0 if j == i else a for j, a in enumerate(e))
            out = out + powers[e[i]] * MPoly(self.ring, self.nvars, {e2: c})
        return out

    def derivative(self, i):
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = tuple(a - 1 if j == i else a for j, a in enumerate(e))
            out[e2] = c * k
        return MPoly(self.ring, self.nvars, out)

    def format(self, names):
        if len(names) != self.nvars:
            raise ValueError("wrong number of variable names")
        return format_terms([(e, str(c)) for e, c in self.terms_sorted()], names)

    def __str__(self):
        return self.format([f"x{i}" for i in range(self.nvars)])

    def __repr__(self):
        return f"MPoly({self})"


def random_poly2(ring, rng, max_deg=3, density=0.4):
    """Random sparse bivariate polynomial, for randomized identity checks."""
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1):
            if rng.random() < density:
                c = ring.random_element(rng)
                if not c.is_zero:
                    terms[(i, j)] = c
    return MPoly(ring, 2, terms)
