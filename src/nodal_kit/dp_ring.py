"""The versal double-point ring A[X, Y]/(q(X, Y) - q(s, t)).

The relation is monic of degree 2 in X, so division gives every element a
unique canonical form f(Y) + X*g(Y); multiplication is implemented directly
on canonical pairs and cross-checked against generic division.  A recursive
decomposition of the powers X^n is kept as an independent witness for the
same canonical forms.
"""

from __future__ import annotations

from itertools import zip_longest

# kernel_basis is unused here; perfbench's tracer tests wrap it in this namespace
from .linalg import kernel_basis  # noqa: F401
from .mpoly import MPoly
from .normal_form import QuadForm
from .rings import RingElem, _power, _product_sums


class DegreeOverflowError(ArithmeticError):
    """A canonical form exceeded the configured Y-degree bound."""


class PowerIdentityError(AssertionError):
    """The power-decomposition identity X^n = f_n + X g_{n-1} + h_{n-2} * rel failed."""


# --- dense univariate helpers (coefficient tuples, ascending Y-degree) -----

def _norm(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return tuple(coeffs)


def _uadd(ring, a, b):
    return _norm(x + y for x, y in zip_longest(a, b, fillvalue=ring.zero))


def _umul(ring, a, b):
    if not a or not b:
        return ()
    return _norm(_product_sums(ring, [a], [b], [(len(a) + len(b) - 1, [(0, 0)])])[0])


class DPRing:
    """Context for canonical-form arithmetic in A[X, Y]/(q(X,Y) - q(s,t)).

    `degree_bound` caps the Y-degree of canonical forms; overflow raises
    rather than truncating.  No unit discriminant is needed for bare
    division; constructions that require one check it themselves.
    """

    def __init__(self, ring, q, s, t, degree_bound=16):
        if not isinstance(q, QuadForm) or q.ring != ring:
            raise ValueError("quadratic form must live over the coefficient ring")
        if degree_bound < 0:
            raise ValueError("degree bound must be >= 0")
        self.ring = ring
        self.q = q
        self.s = ring(s)
        self.t = ring(t)
        self.degree_bound = degree_bound
        self.q_st = q.value_at(self.s, self.t)
        # canonical form of X^2: (q(s,t) - delta*Y^2) + X*(-gamma*Y)
        self.x_squared = (_norm((self.q_st, ring.zero, -q.delta)), _norm((ring.zero, -q.gamma)))
        # q(X, Y) - q(s, t), monic of degree 2 in X
        self.relation = MPoly(
            ring,
            2,
            {
                (2, 0): ring.one,
                (1, 1): q.gamma,
                (0, 2): q.delta,
                (0, 0): -self.q_st,
            },
        )

    def __eq__(self, other):
        return (
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
        fc = _norm(self.ring(c) for c in f_coeffs)
        gc = _norm(self.ring(c) for c in g_coeffs)
        return DPElem(self, fc, gc)

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
        """
        rem, h = poly.divide(self.relation, (2, 0))
        if poly - (rem + h * self.relation) != MPoly.zero(self.ring, 2):
            raise AssertionError("division certificate failed (internal error)")
        fc = [self.ring.zero] * (self.degree_bound + 1)
        gc = [self.ring.zero] * (self.degree_bound + 1)
        for (i, j), c in rem.terms.items():
            if j > self.degree_bound:
                raise DegreeOverflowError(
                    f"canonical Y-degree {j} exceeds bound {self.degree_bound}"
                )
            (fc if i == 0 else gc)[j] = c
        return DPElem(self, _norm(fc), _norm(gc)), h


class DPElem:
    """Canonical form f(Y) + X*g(Y); the representation is unique."""

    __slots__ = ("dp", "fc", "gc")

    def __init__(self, dp, fc, gc):
        if max(len(fc), len(gc)) - 1 > dp.degree_bound:
            raise DegreeOverflowError(
                f"canonical Y-degree {max(len(fc), len(gc)) - 1} exceeds bound {dp.degree_bound}"
            )
        self.dp = dp
        self.fc = fc
        self.gc = gc

    def _coerce(self, other):
        if isinstance(other, DPElem):
            if other.dp != self.dp:
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
        return DPElem(self.dp, _uadd(ring, self.fc, other.fc), _uadd(ring, self.gc, other.gc))

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
        return DPElem(self.dp, tuple(-c for c in self.fc), tuple(-c for c in self.gc))

    def __mul__(self, other):
        if isinstance(other, (RingElem, int)):
            c = self.dp.ring(other)
            return DPElem(self.dp, _norm(c * x for x in self.fc), _norm(c * x for x in self.gc))
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # (f1 + X g1)(f2 + X g2) = f1 f2 + X (f1 g2 + g1 f2) + X^2 g1 g2, with
        # X^2 = x2f + X x2g in canonical form:
        #   f = f1 f2 + x2f g1 g2,  g = f1 g2 + g1 f2 + x2g g1 g2
        dp = self.dp
        x2f, x2g = dp.x_squared
        gg = _umul(dp.ring, self.gc, other.gc)
        size = max(len(self.fc), len(self.gc)) + max(len(other.fc), len(other.gc)) + 1
        f, g = _product_sums(
            dp.ring,
            [self.fc, self.gc, gg],
            [other.fc, other.gc, x2f, x2g],
            [(size, [(0, 0), (2, 2)]), (size, [(0, 1), (1, 0), (2, 3)])],
        )
        return DPElem(dp, _norm(f), _norm(g))

    __rmul__ = __mul__

    def __pow__(self, k):
        return _power(self, k, self.dp.one)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.fc == other.fc and self.gc == other.gc

    @property
    def is_zero(self):
        return not self.fc and not self.gc

    def degree(self):
        """Canonical Y-degree, or None for zero."""
        d = max(len(self.fc), len(self.gc)) - 1
        return d if d >= 0 else None

    def expand(self):
        """The representative f(Y) + X*g(Y) as a bivariate polynomial."""
        terms = {}
        for j, c in enumerate(self.fc):
            if not c.is_zero:
                terms[(0, j)] = c
        for j, c in enumerate(self.gc):
            if not c.is_zero:
                terms[(1, j)] = c
        return MPoly(self.dp.ring, 2, terms)

    def __str__(self):
        return self.expand().format(("X", "Y"))

    def __repr__(self):
        return f"DPElem({self})"


def x_power_decompositions(dp, n_max):
    """Triples (f_n, g_n, h_n) with X^n = f_n + X g_{n-1} + h_{n-2} * relation.

    f_n, g_n are univariate in Y (coefficient tuples), h_n bivariate.  Built
    by the recursion f_{n+1} = f_2 g_{n-1}, g_{n+1} = f_{n+1} + g_1 g_n,
    h_{n+1} = g_{n+1} + X h_n from the bases f_0 = g_0 = h_0 = 1, f_1 = 0,
    g_1 = -gamma*Y, f_2 = q(s,t) - delta*Y^2, and h_1 = X + g_1; the
    recursion is applied from n = 1 on, which pins down g_2 and h_2, and the
    h_1 base is the one the identity forces (expanding X^(n+1) = X * X^n
    gives h_{n-1} = g_{n-1} + X h_{n-2}, so h_1 = g_1 + X).  The identity is
    verified for every n up to n_max.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    ring = dp.ring
    one = (ring.one,)
    f2, g1 = dp.x_squared
    x = MPoly.var(ring, 2, 0)
    f = [one, ()]
    g = [one, g1]
    h = [MPoly.const(ring, 2, 1), x + _y_poly_to_mpoly(ring, g1)]
    for n in range(1, n_max):
        f.append(_umul(ring, f2, g[n - 1]))
        g.append(_uadd(ring, f[n + 1], _umul(ring, g1, g[n])))
        h.append(_times_x(h[n]) + _y_poly_to_mpoly(ring, g[n + 1]))
    # Both sides are built incrementally from the returned h: X^n = X * X^(n-1),
    # and h_k * relation = X * (h_{k-1} * relation) + (h_k - X h_{k-1}) * relation,
    # which holds for any h_k.  By the recursion h_k - X h_{k-1} is g_k, a
    # polynomial in Y alone, so no step multiplies two large polynomials.
    x_power = x
    h_rel = h[0] * dp.relation
    for n in range(2, n_max + 1):
        x_power = _times_x(x_power)
        if n > 2:
            h_rel = _times_x(h_rel) + (h[n - 2] - _times_x(h[n - 3])) * dp.relation
        # the large summand first: a sum copies its left side and walks its right
        rhs = h_rel + (_y_poly_to_mpoly(ring, f[n]) + _times_x(_y_poly_to_mpoly(ring, g[n - 1])))
        if x_power != rhs:
            raise PowerIdentityError(f"power identity failed at n={n}")
    return f[: n_max + 1], g[: n_max + 1], h[: n_max + 1]


def _times_x(poly):
    """X * poly for a polynomial in X, Y: a shift of the exponents."""
    return MPoly._of(poly.ring, 2, {(i + 1, j): c for (i, j), c in poly.terms.items()})


def _y_poly_to_mpoly(ring, coeffs):
    return MPoly._of(ring, 2, {(0, j): c for j, c in enumerate(coeffs) if not c.is_zero})


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
        parts.append(
            [(2 * j + x, c.val) for x, cs in enumerate((part.fc, part.gc)) for j, c in enumerate(cs) if not c.is_zero]
        )
    return [{i + 2 * k: v for i, v in entries} for k in range(bound + 1) for entries in parts]
