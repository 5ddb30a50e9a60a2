"""Truncated bivariate power series stored by homogeneous components.

A `Series2` knows its components up to a precision N (``None`` means the
value is an exact polynomial); components of higher degree are treated as
unknown garbage, and arithmetic propagates precision pessimistically so an
order assertion can never become vacuously true through silent truncation.
Homogeneous components are dense coefficient vectors indexed by X-exponent.

Products and compositions run on raw values: `_graded_sums` forms sums of
series products on raw parts, and `substitute_all` composes several series
with one substituted pair (xs, ys), forming the powers of xs and ys once for
all of them.  Each result is wrapped as ring elements once.
"""

from __future__ import annotations

import reprlib
from collections import defaultdict
from operator import add, neg, sub

from .kernels import _product_sums
from .rings import RingElem, format_terms


class PrecisionError(ValueError):
    """A component beyond the known precision was requested."""


class SubstitutionError(ValueError):
    """Substitution by a series with nonzero constant term."""


def _min_prec(*ps):
    finite = [p for p in ps if p is not None]
    return min(finite) if finite else None


def _series_arg(name, value, like=None):
    """`value` as a series, or given a series `like`, also a scalar over its
    ring; anything else raises a TypeError that names the argument."""
    out = value if like is None else like._coerce(value)
    if not isinstance(out, Series2):
        raise TypeError(f"{name} must be a Series2{' or a scalar' if like else ''}, not {type(value).__name__}")
    return out


def _raw(s):
    """A series' parts as raw values: {degree: list of raw values}."""
    return {n: [c.val for c in v] for n, v in s.parts.items()}


def _wrap(ring, raw, prec):
    """The series known through `prec` whose parts are `raw`, nonzero
    components as `_graded_sums` returns them: each at or below `prec` is
    wrapped once, the others are dropped."""
    zero, top = ring.zero, float("inf") if prec is None else prec
    # a raw value is falsy exactly when it is zero
    parts = {n: tuple([RingElem(ring, x) if x else zero for x in v]) for n, v in raw.items() if n <= top}
    return Series2._of(ring, parts, prec)


def _graded_sums(ring, sums, prec):
    """For each list of pairs (a, b) of raw series in `sums`, the raw series
    sum of a*b through degree `prec` (exact when None), all in one packed
    product.

    A raw series is a dict {degree: list of raw values}, as `_raw` makes one.
    Each is packed once per side, component by component, however many pairs
    it enters; a sum holds the degrees its pairs reach, less the components
    that come out zero.
    """
    vecs, index = ([], []), ({}, {})  # per side: the vectors, and id(series) -> [(degree, position)]

    def components(s, side):
        got = index[side].get(id(s))
        if got is None:
            degrees = sorted(s)
            got = index[side][id(s)] = [(n, len(vecs[side]) + k) for k, n in enumerate(degrees)]
            vecs[side].extend([s[n] for n in degrees])
        return got

    top = float("inf") if prec is None else prec
    shapes, outputs = [], []
    for pairs in sums:
        by_degree = defaultdict(list)
        for a, b in pairs:
            right = components(b, 1)
            for n1, i in components(a, 0):
                for n2, j in right:
                    if n1 + n2 > top:
                        break
                    by_degree[n1 + n2].append((i, j))
        degrees = sorted(by_degree)
        shapes.append(degrees)
        outputs.extend([(n + 1, by_degree[n]) for n in degrees])
    flat = iter(_product_sums(ring, *vecs, outputs))
    return [{n: v for n, v in zip(degrees, flat) if any(v)} for degrees in shapes]


def substitute_all(series, xs, ys):
    """Compose every series in `series` with X = xs, Y = ys.

    The work is shared, as Brent and Kung compose several series with one
    inner pair ("Fast algorithms for manipulating formal power series",
    J. ACM 25, 1978): the powers of xs and ys are formed once, one graded sum
    per step, through the largest precision a result needs (exactly if some
    result is exact); then every series' rows E_i = sum_j c_ij*ys^j come
    from one more graded sum and every sum_i xs^i*E_i from a last one, all on
    raw values.  Both substituted series need order >= 1 (a nonzero constant
    term would make every output coefficient an infinite sum).  Each result
    is exact through the minimum of its own precision and those of xs and
    ys; an empty list gives [], once xs and ys pass the check.  xs must be a
    series; ys and each entry of `series` may also be scalars over its ring.
    """
    xs = _series_arg("xs", xs)
    ys = _series_arg("ys", ys, xs)
    series = [_series_arg(f"series[{k}]", f, xs) for k, f in enumerate(series)]
    for g, nm in ((xs, "X"), (ys, "Y")):
        if not g.coefficient(0, 0).is_zero:
            raise SubstitutionError(f"substitution for {nm} has a constant term")
    ring, precs = xs.ring, [_min_prec(f.precision, xs.precision, ys.precision) for f in series]

    # per series, c_ij, the raw coefficient of X^i Y^j, as {i: {j: c}} through its precision
    tables = []
    for f, prec in zip(series, precs):
        by_x = {}
        for n, vec in f.parts.items():
            if prec is None or n <= prec:
                for i, c in enumerate(vec):
                    if c.val:
                        by_x.setdefault(i, {})[n - i] = c.val
        tables.append(by_x)
    top = None if None in precs else max(precs, default=0)
    top_x = max([i for by_x in tables for i in by_x], default=0)
    top_y = max([j for by_x in tables for cs in by_x.values() for j in cs], default=0)

    # xs, ys have order >= 1, so only degrees <= top matter
    one, xr, yr = {0: [ring.one.val]}, _raw(xs), _raw(ys)
    xp, yp = [one, xr], [one, yr]
    for k in range(2, max(top_x, top_y) + 1):
        steps = [[(xp[-1], xr)] if k <= top_x else [], [(yp[-1], yr)] if k <= top_y else []]
        x_k, y_k = _graded_sums(ring, steps, top)
        xp.append(x_k)
        yp.append(y_k)
    rows = [[({0: [c]}, yp[j]) for j, c in cs.items()] for by_x in tables for cs in by_x.values()]
    es = iter(_graded_sums(ring, rows, top))
    sums = [[(xp[i], next(es)) for i in by_x] for by_x in tables]
    return [_wrap(ring, raw, prec) for raw, prec in zip(_graded_sums(ring, sums, top), precs)]


class Series2:
    """Bivariate series known through a precision bound.

    ``parts`` maps degree -> coefficient vector; degrees without an entry are
    zero when <= precision and unknown beyond it.  ``precision=None`` marks an
    exact polynomial.
    """

    __slots__ = ("ring", "precision", "parts")

    def __init__(self, ring, parts, precision=None):
        if precision is not None and precision < 0:
            raise ValueError("precision must be >= 0")
        clean = {}
        for n, vec in parts.items():
            vec = tuple(vec)
            if len(vec) != n + 1:
                raise ValueError(f"degree-{n} component needs {n + 1} coefficients")
            if precision is not None and n > precision:
                continue
            if any(not c.is_zero for c in vec):
                clean[n] = vec
        self.ring = ring
        self.precision = precision
        self.parts = clean

    # --- constructors -----------------------------------------------------

    @classmethod
    def _of(cls, ring, parts, precision):
        """A series of parts known to be valid (tuples of the right length,
        none all zero, no degree above the precision), built without
        checking them again."""
        out = object.__new__(cls)
        out.ring, out.precision, out.parts = ring, precision, parts
        return out

    @classmethod
    def zero(cls, ring, precision=None):
        return cls(ring, {}, precision)

    @classmethod
    def const(cls, ring, c, precision=None):
        return cls(ring, {0: (ring(c),)}, precision)

    @classmethod
    def x(cls, ring, precision=None):
        return cls(ring, {1: (ring.zero, ring.one)}, precision)

    @classmethod
    def y(cls, ring, precision=None):
        return cls(ring, {1: (ring.one, ring.zero)}, precision)

    @classmethod
    def from_terms(cls, ring, terms, precision=None):
        """Build from (i, j, coefficient) triples meaning coeff * X^i Y^j,
        summed on raw values, each nonzero coefficient wrapped once and each
        zero one the ring's shared zero."""
        vadd, zero = ring._vadd, ring.zero
        parts = {}
        for i, j, c in terms:
            n = i + j
            if precision is not None and n > precision:
                continue  # unknown beyond the precision; allocating it could exhaust memory
            vec = parts.get(n)
            if vec is None:
                vec = parts[n] = [zero.val] * (n + 1)
            vec[i] = vadd(vec[i], ring(c).val)
        parts = {n: tuple([RingElem(ring, v) if v else zero for v in vec]) for n, vec in parts.items() if any(vec)}
        return cls._of(ring, parts, precision)

    @classmethod
    def from_triples(cls, ring, triples, precision=None):
        """CLI literal format: [[i, j, "coeff"], ...] with non-negative int exponents.

        Each distinct coefficient literal is parsed once, at its first use."""
        terms, parsed = [], {}
        for idx, term in enumerate(triples):
            if not (isinstance(term, (list, tuple)) and len(term) == 3):
                raise ValueError(f'term {idx} must be [i, j, "coeff"], not {reprlib.repr(term)}')
            i, j, c = term
            if not all(type(k) is int and k >= 0 for k in (i, j)):  # bool is not an exponent
                raise ValueError(f"exponents must be non-negative integers, not {[i, j]}")
            c = str(c)
            if c not in parsed:
                parsed[c] = ring.parse_elem(c)
            terms.append((i, j, parsed[c]))
        return cls.from_terms(ring, terms, precision)

    # --- inspection ---------------------------------------------------------

    @property
    def is_zero(self):
        """Zero through the stored precision (exactly zero when precision is None)."""
        return not self.parts

    def known(self, n):
        return self.precision is None or n <= self.precision

    def homogeneous_part(self, n):
        """The degree-n component as an exact series (precision None)."""
        if not self.known(n):
            raise PrecisionError(f"component {n} exceeds precision {self.precision}")
        return Series2(self.ring, {n: self.parts[n]} if n in self.parts else {})

    def coefficient(self, i, j):
        vec = self.parts.get(i + j)
        if vec is None:
            if not self.known(i + j):
                raise PrecisionError(f"coefficient ({i},{j}) exceeds precision {self.precision}")
            return self.ring.zero
        return vec[i]

    def order(self):
        """Least degree with a nonzero component, or None when zero at precision."""
        return min(self.parts) if self.parts else None

    def order_at_least(self, k):
        """True when the series provably has no nonzero component below k."""
        o = self.order()
        if o is not None and o < k:
            return False
        if self.precision is not None and self.precision < k - 1:
            return False  # low components unknown, cannot certify
        return True

    def agrees_below(self, other, k):
        """(self - other).order_at_least(k), without forming the difference:
        the components below degree k are equal and known on both sides."""
        other = self._coerce(other)
        prec = _min_prec(self.precision, other.precision)
        if prec is not None and prec < k - 1:
            return False
        mine, theirs = self.parts, other.parts
        for n in mine.keys() | theirs.keys():
            if n < k:
                a, b = mine.get(n), theirs.get(n)
                # a shared component is equal; else compare raw values (a
                # stored component is nonzero, so a missing one differs)
                if a is not b and (a is None or b is None or [c.val for c in a] != [c.val for c in b]):
                    return False
        return True

    # --- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Series2):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed coefficient rings")
            return other
        if isinstance(other, (RingElem, int)):
            return Series2.const(self.ring, other)
        return None

    # Components are built as tuple([...]): tuple(<generator>) over-allocates
    # and then shrinks, which in CPython fills the free lists of tuples of
    # every other size and so raises peak memory on long runs.

    def _termwise(self, other, op, lone):
        """op(self, other) component by component in one pass; a component of
        `other` alone becomes lone(c) coefficientwise (unchanged for None)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = _min_prec(self.precision, other.precision)
        parts = {}
        for n in set(self.parts) | set(other.parts):
            a = self.parts.get(n)
            b = other.parts.get(n)
            if a is None:
                parts[n] = b if lone is None else tuple([lone(y) for y in b])
            elif b is None:
                parts[n] = a
            else:
                parts[n] = tuple([op(x, y) for x, y in zip(a, b)])
        return Series2(self.ring, parts, prec)

    def __add__(self, other):
        return self._termwise(other, add, None)

    __radd__ = __add__

    def __sub__(self, other):
        return self._termwise(other, sub, neg)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Series2(self.ring, {n: tuple([-c for c in v]) for n, v in self.parts.items()}, self.precision)

    def scale(self, c):
        c = self.ring(c)
        return Series2(self.ring, {n: tuple([c * a for a in v]) for n, v in self.parts.items()}, self.precision)

    def __mul__(self, other):
        if isinstance(other, (RingElem, int)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = _min_prec(self.precision, other.precision)
        return _wrap(self.ring, _graded_sums(self.ring, [[(_raw(self), _raw(other))]], prec)[0], prec)

    __rmul__ = __mul__

    def truncated(self, precision):
        prec = _min_prec(self.precision, precision)
        if prec is None or prec < 0:  # a negative precision is refused by the constructor
            return Series2(self.ring, self.parts, prec)
        return Series2._of(self.ring, {n: v for n, v in self.parts.items() if n <= prec}, prec)

    # --- substitution -------------------------------------------------------

    def substitute(self, xs, ys):
        """Compose: the series evaluated at X = xs, Y = ys, exact through the
        minimum of the three precisions (see `substitute_all`)."""
        return substitute_all([self], _series_arg("xs", xs, self), ys)[0]

    # --- comparison / display ------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.precision == other.precision and self.parts == other.parts

    def __str__(self):
        terms = [
            ((i, n - i), str(c))
            for n in sorted(self.parts)
            for i, c in enumerate(self.parts[n])
            if not c.is_zero
        ]
        tail = "" if self.precision is None else f" + O(deg>{self.precision})"
        return format_terms(terms, ("X", "Y")) + tail

    def __repr__(self):
        return f"Series2({self})"
