"""The versal double-point ring A[X, Y]/(q(X, Y) - q(s, t)).

The relation is monic of degree 2 in X, so division gives every element a
unique canonical form f(Y) + X*g(Y).  Elements hold f and g as X-rows, the
dicts {Y-degree: nonzero raw value} of a polynomial's X^i*Y^j terms for each
i; raw values are canonical, so equal rows are equal elements.  The division
is synthetic division on X-rows (`_divide_rows`); it refuses a relation whose
lex-leading term is not 1*X^2, and certifies poly = rem + h*relation on every
call.  Multiplication runs the sparse row loop (`kernels._row_mul_add`) on
the rows, with X^2 replaced by its canonical form, and is cross-checked
against the division.  A recursive decomposition of the powers X^n, run on
rows too, is kept as an independent witness for the same canonical forms.
"""

from __future__ import annotations

from itertools import zip_longest

from .kernels import _row_mul_add, _sparse_add
# kernel_basis is unused here; perfbench's tracer tests wrap it in this namespace
from .linalg import kernel_basis  # noqa: F401
from .mpoly import MPoly
from .normal_form import QuadForm
from .rings import RingElem, _power


class DegreeOverflowError(ArithmeticError):
    """A canonical form exceeded the configured Y-degree bound."""


class PowerIdentityError(AssertionError):
    """The power-decomposition identity X^n = f_n + X g_{n-1} + h_{n-2} * rel failed."""


class DPRing:
    """Context for canonical-form arithmetic in A[X, Y]/(q(X,Y) - q(s,t)).

    `degree_bound` caps the Y-degree of canonical forms; overflow raises
    rather than truncating.  No unit discriminant is needed for bare
    division; constructions that require one check it themselves.
    """

    def __init__(self, ring, q, s, t, degree_bound=16):
        if not isinstance(q, QuadForm) or (q.ring is not ring and q.ring != ring):
            raise ValueError("quadratic form must live over the coefficient ring")
        if degree_bound < 0:
            raise ValueError("degree bound must be >= 0")
        self.ring = ring
        self.q = q
        self.s = ring(s)
        self.t = ring(t)
        self.degree_bound = degree_bound
        self.q_st = q.value_at(self.s, self.t)
        # the rows of X^2 in canonical form: (q(s,t) - delta*Y^2) + X*(-gamma*Y)
        self.x_squared = (_row((self.q_st, ring.zero, -q.delta)), _row((ring.zero, -q.gamma)))
        # q(X, Y) - q(s, t), monic of degree 2 in X
        self.relation = MPoly(ring, 2, {(2, 0): ring.one, (1, 1): q.gamma, (0, 2): q.delta, (0, 0): -self.q_st})

    def __eq__(self, other):
        return other is self or (
            isinstance(other, DPRing)
            and other.ring == self.ring
            and other.q == self.q
            and other.s == self.s
            and other.t == self.t
            and other.degree_bound == self.degree_bound
        )

    def __repr__(self):
        return (
            f"DPRing({self.ring.descriptor()}, gamma={self.q.gamma}, "
            f"delta={self.q.delta}, s={self.s}, t={self.t})"
        )

    # --- element constructors ----------------------------------------------

    def element(self, f_coeffs=(), g_coeffs=()):
        """f(Y) + X*g(Y) from coefficient sequences, ascending Y-degree, each
        coefficient coerced into the ring."""
        ring = self.ring
        return DPElem(self, _row(map(ring, f_coeffs)), _row(map(ring, g_coeffs)))

    def const(self, c):
        return self.element((self.ring(c),), ())

    @property
    def zero(self):
        return self.element()

    @property
    def one(self):
        return self.const(1)

    @property
    def u(self):
        """The class of X."""
        return self.element((), (self.ring.one,))

    @property
    def v(self):
        """The class of Y."""
        return self.element((self.ring.zero, self.ring.one), ())

    def random_element(self, rng, degree=3):
        fc = [self.ring.random_element(rng) for _ in range(degree + 1)]
        gc = [self.ring.random_element(rng) for _ in range(degree + 1)]
        return self.element(fc, gc)

    # --- division ------------------------------------------------------------

    def reduce(self, poly):
        """Canonical form of a bivariate polynomial (variables X, Y)."""
        return self.reduce_with_multiplier(poly)[0]

    def reduce_with_multiplier(self, poly):
        """Divide by the relation, monic of degree 2 in X: returns (elem, h) with
        poly = elem.expand() + h * relation, verified exactly before returning.

        The division is synthetic, on X-rows (`_divide_rows`).  The
        certificate multiplies h by the relation's rows afresh, adds the
        remainder and compares the rows with those of poly; raw values are
        canonical, so equal rows are equal polynomials.
        """
        ring, relation = self.ring, self.relation
        if (poly.ring is not relation.ring and poly.ring != relation.ring) or poly.nvars != relation.nvars:
            raise ValueError("mixed polynomial rings")
        rel = _x_rows(relation.terms)
        if len(rel) != 3 or rel[2] != {0: ring.one.val}:
            raise ValueError("the relation's lex-leading term is not 1 * x^(2, 0)")
        rows = _x_rows(poly.terms, 2)
        work = [dict(r) for r in rows]
        quot = _divide_rows(ring, work, rel)
        check = [dict(work[0]), dict(work[1])] + [{} for _ in quot]
        for i, q in enumerate(quot):
            for k, r in enumerate(rel):
                _row_mul_add(ring, check[i + k], q, r)
        if check != rows:
            raise AssertionError("division certificate failed (internal error)")
        return DPElem(self, work[0], work[1]), _rows_poly(ring, quot)


class DPElem:
    """Canonical form f(Y) + X*g(Y), f and g as rows {Y-degree: nonzero raw
    value}, which are shared and never mutated; the representation is unique."""

    __slots__ = ("dp", "f", "g")

    def __init__(self, dp, f, g):
        self.dp, self.f, self.g = dp, f, g
        top = self.degree()
        if top is not None and top > dp.degree_bound:
            raise DegreeOverflowError(f"canonical Y-degree {top} exceeds bound {dp.degree_bound}")

    def _coerce(self, other):
        if isinstance(other, DPElem):
            if other.dp is not self.dp and other.dp != self.dp:
                raise ValueError("mixed double-point rings")
            return other
        if isinstance(other, (RingElem, int)):
            return self.dp.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ring = self.dp.ring
        return DPElem(self.dp, _sparse_add(ring, self.f, other.f), _sparse_add(ring, self.g, other.g))

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
        vneg = self.dp.ring._vneg
        return DPElem(self.dp, *({j: vneg(c) for j, c in row.items()} for row in (self.f, self.g)))

    def __mul__(self, other):
        dp = self.dp
        ring = dp.ring
        if isinstance(other, (RingElem, int)):
            k, vmul = ring(other).val, ring._vmul
            return DPElem(dp, *({j: v for j, c in row.items() if (v := vmul(k, c))} for row in (self.f, self.g)))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # (f1 + X g1)(f2 + X g2) = f1 f2 + X (f1 g2 + g1 f2) + X^2 g1 g2, with
        # X^2 = x2f + X x2g in canonical form:
        #   f = f1 f2 + x2f g1 g2,  g = f1 g2 + g1 f2 + x2g g1 g2
        x2f, x2g = dp.x_squared
        gg, f, g = {}, {}, {}
        _row_mul_add(ring, gg, self.g, other.g)
        _row_mul_add(ring, f, self.f, other.f)
        _row_mul_add(ring, f, gg, x2f)
        _row_mul_add(ring, g, self.f, other.g)
        _row_mul_add(ring, g, self.g, other.f)
        _row_mul_add(ring, g, gg, x2g)
        return DPElem(dp, f, g)

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(self, k, self.dp.one)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.f == other.f and self.g == other.g

    @property
    def is_zero(self):
        return not self.f and not self.g

    def degree(self):
        """Canonical Y-degree, or None for zero."""
        d = max([*self.f, *self.g], default=-1)
        return d if d >= 0 else None

    def expand(self):
        """The representative f(Y) + X*g(Y) as a bivariate polynomial."""
        return _rows_poly(self.dp.ring, [self.f, self.g])

    def __str__(self):
        # from the rows, not through expand, which the division suite checks
        return _rows_poly(self.dp.ring, [self.f, self.g]).format(("X", "Y"))

    def __repr__(self):
        return f"DPElem({self})"


def x_power_decompositions(dp, n_max):
    """Triples (f_n, g_n, h_n) with X^n = f_n + X g_{n-1} + h_{n-2} * relation.

    f_n, g_n are univariate in Y, rows {Y-degree: raw value} like the parts
    of a DPElem, which are shared and never mutated; h_n is bivariate.  Built
    by the recursion f_{n+1} = f_2 g_{n-1}, g_{n+1} = f_{n+1} + g_1 g_n,
    h_{n+1} = g_{n+1} + X h_n from the bases f_0 = g_0 = h_0 = 1, f_1 = 0,
    g_1 = -gamma*Y, f_2 = q(s,t) - delta*Y^2, and h_1 = X + g_1; the
    recursion is applied from n = 1 on, which pins down g_2 and h_2, and the
    h_1 base is the one the identity forces (expanding X^(n+1) = X * X^n
    gives h_{n-1} = g_{n-1} + X h_{n-2}, so h_1 = g_1 + X).  The identity is
    verified for every n up to n_max, on X-rows, against the rows of
    ``dp.relation``; the least n where it fails raises PowerIdentityError.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ring = dp.ring
    f, g, h = _power_rows(ring, *dp.x_squared, n_max)
    rel = _x_rows(dp.relation.terms)
    vneg = ring._vneg
    # Both sides are built incrementally from the returned h: X^n = X * X^(n-1),
    # and h_k * relation = X * (h_{k-1} * relation) + (h_k - X h_{k-1}) * relation,
    # which holds for any h_k (h_{-1} = 0).  By the recursion h_k - X h_{k-1}
    # is g_k, a polynomial in Y alone: the rows h_k shares with X h_{k-1}
    # differ by nothing.
    h_rel, x_rows = [], [{}, {0: ring.one.val}]
    for n in range(2, n_max + 1):
        x_rows = [{}] + x_rows
        hk, shifted = h[n - 2], [{}] + (h[n - 3] if n > 2 else [])
        h_rel = [{}] + h_rel
        h_rel += [{} for _ in range(len(hk) + len(rel) - 1 - len(h_rel))]
        for i, (a, b) in enumerate(zip_longest(hk, shifted, fillvalue={})):
            if a is not b:
                diff = _sparse_add(ring, a, {j: vneg(c) for j, c in b.items()})
                for k, r in enumerate(rel):
                    _row_mul_add(ring, h_rel[i + k], diff, r)
        rhs = [_sparse_add(ring, h_rel[0], f[n]), _sparse_add(ring, h_rel[1], g[n - 1])] + h_rel[2:]
        if rhs != x_rows:
            raise PowerIdentityError(f"power identity failed at n={n}")
    return f, g, [_rows_poly(ring, rows) for rows in h]


def _power_rows(ring, f2, g1, n_max):
    """The rows of the recursion of `x_power_decompositions` through n_max:
    f_n and g_n as dicts {Y-degree: raw value}, h_n as its X-rows, which are
    g_n, g_{n-1}, ..., g_0 by h_{n+1} = g_{n+1} + X h_n.  Each step scales
    and shifts g_{n-1} by the terms of f_2, and g_n by those of g_1."""
    one = {0: ring.one.val}
    f, g, h = [one, {}], [one, g1], [[one], [g1, one]]
    for n in range(1, n_max):
        fn = {}
        _row_mul_add(ring, fn, f2, g[n - 1])
        gn = dict(fn)
        _row_mul_add(ring, gn, g1, g[n])
        f.append(fn)
        g.append(gn)
        h.append([gn] + h[n])
    return f, g, h


def _divide_rows(ring, rows, relation_rows):
    """Synthetic division, in place, of the X-rows `rows` by a relation monic
    of X-degree 2, given by its rows (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, 2.3).  From the top X-degree down, row i >= 2
    is the quotient's row i - 2, and its products with the negated tail,
    relation rows 0 and 1, are added into rows i - 2 and i - 1; no product
    reaches row i or above, so each row is final when it is read.  Rows 0
    and 1 are left holding the remainder; returns the quotient's rows."""
    vneg = ring._vneg
    tail = [{j: vneg(c) for j, c in r.items()} for r in relation_rows[:2]]
    quot = rows[2:]
    for i in range(len(rows) - 1, 1, -1):
        for k, t in enumerate(tail):
            _row_mul_add(ring, rows[i - 2 + k], rows[i], t)
    return quot


def _x_rows(terms, least=0):
    """The X-rows of a polynomial in X, Y given by its terms: row i is the
    dict {j: c} of its X^i*Y^j terms; at least `least` rows."""
    rows = [{} for _ in range(max(max([e[0] for e in terms], default=-1) + 1, least))]
    for (i, j), c in terms.items():
        rows[i][j] = c
    return rows


def _row(elems):
    """The row {Y-degree: nonzero raw value} of ring elements in ascending Y-degree."""
    return {j: c.val for j, c in enumerate(elems) if c.val}


def _rows_poly(ring, rows):
    """The polynomial in X, Y whose X-rows are `rows`."""
    return MPoly._of(ring, 2, {(i, j): c for i, row in enumerate(rows) for j, c in row.items()})


def mul_columns(elem, bound, out_bound):
    """Columns of multiplication by `elem` on the basis Y^k, X*Y^k, k <= bound.

    Each column is a sparse {index: raw value} vector of 2*(out_bound + 1)
    rows.  Rows and columns are degree-major alike, the Y^k coefficient at 2k
    and the X*Y^k one at 2k + 1, so the matrix at `bound` is the leading
    columns of the matrix at any larger bound.  Multiplying a canonical form by Y shifts both
    its parts up one degree and keeps it canonical, so elem*Y^k and
    elem*X*Y^k are elem and elem*u shifted by k: one DPElem product serves
    all 2*(bound + 1) columns.
    """
    parts = []
    for part in (elem, elem * elem.dp.u):
        top = part.degree()
        if top is not None and top + bound > out_bound:
            raise DegreeOverflowError(f"element degree {top + bound} exceeds {out_bound}")
        parts.append([(2 * j + x, c) for x, row in enumerate((part.f, part.g)) for j, c in row.items()])
    return [{i + 2 * k: v for i, v in entries} for k in range(bound + 1) for entries in parts]
