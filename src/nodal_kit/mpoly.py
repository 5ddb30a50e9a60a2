"""Sparse multivariate polynomials over an exact coefficient ring.

Internal plumbing shared by the quotient-ring, factorization, and chart
modules.  Terms are stored as a dict from exponent tuples to nonzero raw
coefficient values, the form the sparse kernels take, so equality is
structural and arithmetic stays exact.  Coefficients are wrapped as ring
elements only where they leave the class.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import add, ge, sub

from .kernels import _sparse_add, _sparse_mul
from .rings import RingElem, _power, format_terms


class MPoly:
    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars, terms):
        """A polynomial of {exponent tuple: coefficient}, each coefficient
        anything `ring(c)` coerces; zero coefficients are dropped."""
        clean = {}
        for e, c in terms.items():
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent tuple {e!r} for {nvars} variables")
            if v := ring(c).val:
                clean[e] = v
        self.ring = ring
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _of(cls, ring, nvars, terms):
        """A polynomial of terms known to be valid (exponent tuples of length
        nvars, nonzero raw values), built without checking them again."""
        out = object.__new__(cls)
        out.ring, out.nvars, out.terms = ring, nvars, terms
        return out

    @classmethod
    def zero(cls, ring, nvars):
        return cls(ring, nvars, {})

    @classmethod
    def const(cls, ring, nvars, c):
        return cls(ring, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, ring, nvars, i, power=1):
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} is out of range for {nvars} variables")
        e = tuple(power if j == i else 0 for j in range(nvars))
        return cls(ring, nvars, {e: ring.one})

    @classmethod
    def monomial(cls, ring, exps, c=1):
        return cls(ring, len(exps), {tuple(exps): c})

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, exps):
        return RingElem(self.ring, self.terms.get(tuple(exps), self.ring.zero.val))

    def terms_sorted(self):
        """(exponent tuple, ring element) pairs by degree, then exponents."""
        return [(e, RingElem(self.ring, self.terms[e])) for e in sorted(self.terms, key=lambda e: (sum(e), e))]

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if (other.ring is not self.ring and other.ring != self.ring) or other.nvars != self.nvars:
                raise ValueError("mixed polynomial rings")
            return other
        if isinstance(other, (RingElem, int)):
            return MPoly.const(self.ring, self.nvars, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._of(self.ring, self.nvars, _sparse_add(self.ring, self.terms, other.terms))

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
        vneg = self.ring._vneg
        return MPoly._of(self.ring, self.nvars, {e: vneg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (RingElem, int)):
            c, vmul = ring(other).val, ring._vmul
            return MPoly._of(ring, self.nvars, {e: v for e, a in self.terms.items() if (v := vmul(c, a))})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MPoly._of(ring, self.nvars, _sparse_mul(ring, self.terms, other.terms))

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
        Varieties, and Algorithms*, 2.3).  The divisible monomials of the
        remainder are kept, exactly, in a sorted list, so no step lists the
        remainder again: a step pops the last (the lex-largest) or the drawn
        one, inserts by bisection each divisible monomial it adds, and removes
        by bisection each one whose coefficient cancels.
        """
        relation = self._coerce(relation)
        ring = self.ring
        if max(relation.terms, default=None) != lead or relation.terms[lead] != ring.one.val:
            raise ValueError(f"the relation's lex-leading term is not 1 * x^{lead}")
        # rem gains c * (-c2) for each tail term c2
        vadd, vmul = ring._vadd, ring._vmul
        tail = [(e, ring._vneg(c)) for e, c in relation.terms.items() if e != lead]
        rem, quot = dict(self.terms), {}
        queue = sorted(e for e in rem if all(map(ge, e, lead)))
        while queue:
            e = queue.pop() if rng is None else queue.pop(rng.randrange(len(queue)))
            c = rem.pop(e)
            shift = tuple(map(sub, e, lead))
            quot[shift] = vadd(quot[shift], c) if shift in quot else c
            for e2, c2 in tail:
                m = tuple(map(add, shift, e2))
                v = vmul(c, c2)
                if m in rem:
                    v = vadd(rem[m], v)
                    if v:
                        rem[m] = v
                        continue
                    del rem[m]
                    if all(map(ge, m, lead)):
                        del queue[bisect_left(queue, m)]
                elif v:
                    rem[m] = v
                    if all(map(ge, m, lead)):
                        insort(queue, m)
        n = self.nvars
        return MPoly._of(ring, n, rem), MPoly._of(ring, n, {e: v for e, v in quot.items() if v})

    def eval_all(self, values):
        """Evaluate at a full point; returns a ring element."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        values = [self.ring(v) for v in values]
        out = self.ring.zero
        for e, c in self.terms.items():
            t = RingElem(self.ring, c)
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
            out = out + powers[e[i]] * MPoly._of(self.ring, self.nvars, {e2: c})
        return out

    def derivative(self, i):
        ring, out = self.ring, {}
        for e, c in self.terms.items():
            # k * c is zero when the characteristic divides k
            if e[i] and (v := ring._vmul(c, ring.from_int(e[i]).val)):
                out[tuple(a - 1 if j == i else a for j, a in enumerate(e))] = v
        return MPoly._of(ring, self.nvars, out)

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
                terms[(i, j)] = ring.random_element(rng)
    return MPoly(ring, 2, terms)
