"""Quadratic normal forms for plane singularities.

Implements the linearized update map for a binary quadratic form and its
right inverse, the successive-approximation iteration that straightens a
series with non-degenerate quadratic part into the exact form q(x', y'),
and the square-zero coordinate repairs used when lifting over a small
extension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import DualNumbers, RingElem, _product_sums
from .series import Series2, _min_prec


class DegenerateFormError(ValueError):
    """The quadratic part has non-unit discriminant."""


@dataclass(frozen=True)
class QuadForm:
    """The binary quadratic form X^2 + gamma*X*Y + delta*Y^2."""

    ring: object
    gamma: RingElem
    delta: RingElem

    @classmethod
    def make(cls, ring, gamma, delta):
        return cls(ring, ring(gamma), ring(delta))

    @property
    def discriminant(self):
        return self.gamma * self.gamma - 4 * self.delta

    def value_at(self, a, b):
        a, b = self.ring(a), self.ring(b)
        return a * a + self.gamma * a * b + self.delta * b * b

    def series(self, precision=None):
        return Series2.from_terms(
            self.ring,
            [(2, 0, self.ring.one), (1, 1, self.gamma), (0, 2, self.delta)],
            precision,
        )

    def apply_series(self, xs, ys):
        """q(xs, ys) for series arguments, computed by direct multiplication
        as x*(x + gamma*y) + (delta*y)*y: two series products, the second
        empty when delta = 0."""
        return xs * (xs + ys.scale(self.gamma)) + ys.scale(self.delta) * ys


@dataclass(frozen=True)
class CoordChange:
    """Images (xs, ys) of X and Y under a change of coordinates.

    Constant terms must vanish in the residue field (they are allowed to be
    nilpotent, as in square-zero repairs) and the linear part must be an
    invertible 2x2 matrix, so the change is invertible.
    """

    xs: Series2
    ys: Series2

    def __post_init__(self):
        for s in (self.xs, self.ys):
            c = s.coefficient(0, 0)
            if not c.residue().is_zero:
                raise ValueError("coordinate image has a non-nilpotent constant term")
        a, b = self.xs.coefficient(1, 0), self.xs.coefficient(0, 1)
        c, d = self.ys.coefficient(1, 0), self.ys.coefficient(0, 1)
        if not (a * d - b * c).is_unit:
            raise ValueError("linear part of the coordinate change is not invertible")

    @property
    def precision(self):
        return _min_prec(self.xs.precision, self.ys.precision)

    def apply(self, f):
        """Compose a series with the change (requires zero constant terms)."""
        return f.substitute(self.xs, self.ys)

    @classmethod
    def identity(cls, ring):
        return cls(Series2.x(ring), Series2.y(ring))


def linearized_increment(q, mu, nu):
    """The part of q(X+mu, Y+nu) - q(X, Y) linear in the series mu, nu.

    Equals (2*mu + gamma*nu)*X + (gamma*mu + 2*delta*nu)*Y: each degree-n
    component feeds degree n+1.  Keeps the precision of mu and nu.
    """
    left = mu.scale(2) + nu.scale(q.gamma)
    right = mu.scale(q.gamma) + nu.scale(2 * q.delta)
    zero = (q.ring.zero,)
    times_x = Series2(q.ring, {n + 1: zero + v for n, v in left.parts.items()}, left.precision)
    times_y = Series2(q.ring, {n + 1: v + zero for n, v in right.parts.items()}, right.precision)
    return times_x + times_y


def _raw_increment_preimage(q, f):
    """(mu, nu) with linearized_increment(q, mu, nu) = d * f, d the discriminant.

    f needs zero constant term.  Each component is split as f_n = X*u + Y*v
    by the fixed rule: the pure-Y monomial feeds v, every other monomial
    feeds u.  mu and nu keep the precision of f.
    """
    if 0 in f.parts:
        raise ValueError("series must have zero constant term")
    zero = (f.ring.zero,)
    u = Series2(f.ring, {n - 1: vec[1:] for n, vec in f.parts.items()}, f.precision)
    v = Series2(f.ring, {n - 1: vec[:1] + zero * (n - 1) for n, vec in f.parts.items()}, f.precision)
    mu = u.scale(-2 * q.delta) + v.scale(q.gamma)
    nu = u.scale(q.gamma) - v.scale(2)
    return mu, nu


def solve_linearized_increment(q, f):
    """Right inverse of the linearized increment, for a series f with zero
    constant term: one homogeneous component or a whole series.

    Needs a unit discriminant; the defining identity is re-checked on every
    call, which pins down the sign conventions of the preimage formula.
    """
    d = q.discriminant
    if not d.is_unit:
        raise DegenerateFormError("right inverse needs a unit discriminant")
    dinv = d.inv()
    mu_raw, nu_raw = _raw_increment_preimage(q, f)
    mu, nu = mu_raw.scale(dinv), nu_raw.scale(dinv)
    if linearized_increment(q, mu, nu) != f:
        raise AssertionError("right-inverse identity failed (internal error)")
    return mu, nu


def normalize_quadratic_part(f):
    """Linear change and unit scale bringing the degree-2 part to monic form.

    Requires field coefficients, vanishing parts of degree < 2, and a
    non-degenerate binary quadratic degree-2 part a*X^2 + b*X*Y + c*Y^2.
    Returns (change, scale, q) with scale*(f o change) having degree-2 part
    exactly X^2 + gamma*X*Y + delta*Y^2.
    """
    ring = f.ring
    if not ring.is_field:
        raise ValueError("quadratic normalization needs field coefficients")
    for n in (0, 1):
        if not f.homogeneous_part(n).is_zero:
            raise ValueError(f"degree-{n} part must vanish")
    f2 = f.homogeneous_part(2)
    c_, b, a = (f2.coefficient(i, 2 - i) for i in range(3))
    if (b * b - 4 * a * c_).is_zero:
        raise DegenerateFormError("degenerate quadratic part")
    X, Y = Series2.x(ring), Series2.y(ring)
    if not a.is_zero:
        change = CoordChange(X, Y)
        scale = a.inv()
        gamma, delta = b * scale, c_ * scale
    elif not c_.is_zero:
        change = CoordChange(Y, X)  # swap the variables
        scale = c_.inv()
        gamma, delta = b * scale, a * scale
    else:
        change = CoordChange(X, X + Y)  # shear: b*X*(X+Y) = b*X^2 + b*X*Y
        scale = b.inv()
        gamma, delta = ring.one, ring.zero
    q = QuadForm(ring, gamma, delta)
    check = change.apply(f).scale(scale).homogeneous_part(2)
    if check != q.series().homogeneous_part(2):
        raise AssertionError("normalization postcondition failed (internal error)")
    return change, scale, q


def normal_form_iteration(f, q, n_steps):
    """Successive coordinate corrections flattening f onto q.

    Starting from the identity, step n kills the degree-(n+2) component of
    q(x_n, y_n) - f by a homogeneous degree-(n+1) correction, so after step n
    the residual has order >= n+3.  Yields (x_n, y_n) for n = 1 .. n_steps.

    The residual is built incrementally, one degree per step.  With
    x = X + sum a_k and y = Y + sum b_k (a_k, b_k of degree k >= 2), its
    degree-(n+2) component is

        sum_{i+j=n+2, 2<=i,j<=n} (a_i*(a_j + gamma*b_j) + delta*b_i*b_j) - f_{n+2}:

    q(X, Y) lives in degree 2, and the linear term L(a_{n+1}, b_{n+1}) is
    still zero when step n reads it.  Each correction is stored with
    a_j + gamma*b_j and delta*b_j, so step n costs O(n) products of
    components, formed together by the packed kernel with one unpack,
    instead of multiplying out whole series (van der Hoeven's relaxed, or
    on-line, scheme in its simplest form).
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    if not q.discriminant.is_unit:
        raise DegenerateFormError("iteration needs a unit discriminant")
    if any(n < 2 for n in f.parts):
        raise ValueError("parts of degree < 2 of the series must vanish")
    if f.homogeneous_part(2) != q.series().homogeneous_part(2):
        raise ValueError("degree-2 part of the series must equal the quadratic form")
    if f.precision is not None and f.precision < n_steps + 1:
        raise ValueError(
            f"series precision {f.precision} too small for {n_steps} steps"
        )
    ring = f.ring
    xs, ys = Series2.x(ring), Series2.y(ring)
    out = [(xs, ys)]
    # degree k -> (a_k, b_k, a_k + gamma*b_k, delta*b_k), for nonzero corrections
    comps = {}
    for n in range(1, n_steps):
        top = n + 2
        degrees = [i for i in comps if top - i in comps]
        left = [comps[i][k] for i in degrees for k in (0, 1)]  # a_i, b_i
        right = [comps[top - i][k] for i in degrees for k in (2, 3)]  # c_j, d_j
        (eps,) = _product_sums(ring, left, right, [(top + 1, [(k, k) for k in range(len(left))])])
        f_top = f.parts.get(top)
        if f_top:
            eps = [e - c for e, c in zip(eps, f_top)]
        mu, nu = solve_linearized_increment(q, Series2(ring, {top: eps}))
        xs = xs - mu
        ys = ys - nu
        out.append((xs, ys))
        a, b = xs.parts.get(n + 1), ys.parts.get(n + 1)
        if a or b:
            zero = (ring.zero,) * (n + 2)
            a, b = a or zero, b or zero
            comps[n + 1] = (
                a,
                b,
                tuple([x + q.gamma * y for x, y in zip(a, b)]),
                tuple([q.delta * y for y in b]),
            )
    return out


def normal_form_coordinates(f, q, n_steps):
    """The coordinate change after `n_steps` corrections.

    Guarantees order(q(xs, ys) - f) >= n_steps + 2; the iteration always runs
    the full number of steps so the output shape is predictable.
    """
    xs, ys = normal_form_iteration(f, q, n_steps)[-1]
    return CoordChange(xs, ys)


def square_zero_change(q, tau, f):
    """Coordinates X' = X + tau*mu, Y' = Y + tau*nu absorbing tau*f into q.

    tau must square to zero and f must have zero constant term; then
    q(X', Y') = q(X, Y) + tau*f holds exactly through the precision of f,
    because the cross terms carry tau^2 = 0.
    """
    ring = f.ring
    tau = ring(tau)
    if not (tau * tau).is_zero:
        raise ValueError("tau must square to zero")
    if not q.discriminant.is_unit:
        raise DegenerateFormError("square-zero change needs a unit discriminant")
    mu, nu = solve_linearized_increment(q, f)
    xs = Series2.x(ring) + mu.scale(tau)
    ys = Series2.y(ring) + nu.scale(tau)
    return CoordChange(xs, ys)


@dataclass(frozen=True)
class RepairResult:
    u: Series2
    v: Series2
    s: RingElem
    t: RingElem


def repair_small_lift(q, tau, u, v, s, t, defect):
    """Correct generator lifts so the double-point relation holds exactly.

    The data presents a flat lift whose generators (u, v) satisfy
    q(u, v) - q(s, t) = defect with defect = tau * f, tau a square-zero
    element killed by s and t.  The corrected generators u' = u - tau*mu,
    v' = v - tau*nu satisfy q(u', v') = q(u, v) - defect exactly, i.e. the
    relation q(u', v') - q(s, t) = 0 holds in the presented ring; s and t
    are unchanged.  Verified on every call.
    """
    ring = defect.ring
    tau = ring(tau)
    if not (tau * tau).is_zero:
        raise ValueError("tau must square to zero")
    for name, c in (("s", ring(s)), ("t", ring(t))):
        if not (tau * c).is_zero:
            raise ValueError(f"tau*{name} must vanish (small-extension hypothesis)")
    if not defect.coefficient(0, 0).is_zero:
        raise ValueError("defect has a constant term")
    X, Y = Series2.x(ring), Series2.y(ring)
    for name, w, var in (("u", u, X), ("v", v, Y)):
        if _divide_by_tau(w - var, tau) is None:
            raise ValueError(f"generator {name} must equal its variable modulo tau")
    f = _divide_by_tau(defect, tau)
    if f is None:
        raise ValueError("defect is not divisible by tau")
    f = f - Series2.const(ring, f.coefficient(0, 0), f.precision)
    mu, nu = solve_linearized_increment(q, f)
    u2 = u - mu.scale(tau)
    v2 = v - nu.scale(tau)
    lhs = q.apply_series(u2, v2)
    rhs = q.apply_series(u, v) - defect
    if lhs != rhs:
        raise AssertionError("repair identity failed (internal error)")
    return RepairResult(u2, v2, ring(s), ring(t))


def _divide_by_tau(series, tau):
    """series / tau over dual numbers, tau a unit multiple of eps; None when
    some coefficient is not a multiple of tau."""
    ring = series.ring
    if not isinstance(ring, DualNumbers):
        raise ValueError("tau-division is supported over dual numbers only")
    residue, slope = ring.parts(tau)
    if not residue.is_zero or not slope.is_unit:
        raise ValueError("tau must be a unit multiple of eps")
    inv = slope.inv()
    parts = {}
    for n, vec in series.parts.items():
        pairs = [ring.parts(c) for c in vec]
        if any(not a.is_zero for a, _ in pairs):
            return None
        parts[n] = [ring.embed(b * inv) for _, b in pairs]
    return Series2(ring, parts, series.precision)


def tangent_pair(dx, dy):
    """Extract (a, b) from a pair (eps*a, eps*b) of dual numbers."""
    ring = dx.ring
    if not isinstance(ring, DualNumbers) or dy.ring != ring:
        raise ValueError("tangent extraction expects dual-number inputs")
    out = []
    for w in (dx, dy):
        a, b = ring.parts(w)
        if not a.is_zero:
            raise ValueError(f"{w} has a nonzero residue part")
        out.append(b)
    return tuple(out)
