"""Quadratic normal forms for plane singularities.

Implements the linearized update map for a binary quadratic form and its
right inverse, the successive-approximation iteration that straightens a
series with non-degenerate quadratic part into the exact form q(x', y'),
and the square-zero coordinate repairs used when lifting over a small
extension.

The right inverse of L(mu, nu) = q_X*mu + q_Y*nu is built in one place and
checked in one place.  `_correction_rows(q, c)` gives the rows of the raw
preimage at c, with L(mu, nu) = c*d*f for d = gamma^2 - 4*delta, and
`_certify_right_inverse` checks sign*L(mu, nu) = target degree by degree.
The solver takes c = 1/d and certifies with sign +1, so L(mu, nu) = f; the
iteration takes c = -1/d and certifies with sign -1, so each correction
cancels its residual.

The products behind these run in the kernels on coefficient vectors held in
one of two formats, by base (`_vectors`): over Q, where each coefficient
carries its own denominator, as integer images over one denominator,
multiplied by `kernels._packed_sums`; over every other base, F_p and the
composite rings, as lists of raw values, multiplied by
`kernels._product_sums`.  Only the components a result keeps are wrapped as
ring elements.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .kernels import _canonical, _elements, _images, _packed_sums, _product_sums
from .rings import DualNumbers, Rationals, RingElem
from .series import Series2, _min_prec, _series_arg


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

    @cached_property
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

    def apply_series(self, xs, ys, minus=None):
        """q(xs, ys) for series arguments, less the series `minus` when one is
        given, known through the least precision of the arguments.  Series
        over another ring than the form's are refused with a ValueError, and
        an argument that is not a series with a TypeError that names it.

        With v_k = (x_k, y_k) the degree-k components and the polar form
        B(v, w) = q(v + w) - q(v) - q(w) = x*(2x' + gamma*y') + y*(gamma*x' + 2*delta*y'),
        the degree-m component is

            sum_{i<j, i+j=m} B(v_i, v_j) + [m even] q(v_{m/2}),

        q(v) = x*(x + gamma*y) + y*(delta*y): each unordered pair of
        components is multiplied once, and nothing is divided, so
        characteristic 2 is covered.  Every degree is one output of one
        kernel call, the low degree on the left: x_i and y_i against the
        polar vectors p_j = 2x_j + gamma*y_j and r_j = gamma*x_j + 2*delta*y_j,
        or against x_k + gamma*y_k and delta*y_k on the diagonal, and -1
        against minus_m; a component missing from xs or ys counts as zeros.
        The components of xs and ys are lifted once (`_vectors`), in two
        calls (the low ones, which form the left side, and the rest; over Q
        each over one shared denominator), and those of minus in one more;
        the polar vectors are formed coefficientwise on those (over Q with no
        content divided out: the packed kernel reads any image), and a zero
        output is dropped before wrapping.
        """
        ring = self.ring
        args = {"xs": xs, "ys": ys} | ({} if minus is None else {"minus": minus})
        _check_args(self, **args)
        prec = _min_prec(*(s.precision for s in args.values()))
        top = float("inf") if prec is None else prec
        sums, lift, wrap, nonzero = _vectors(ring)
        if isinstance(ring, Rationals):

            def combine(c, v, d, w):
                """the image of c*v + d*w from images, with no content divided out"""
                ((cn,), cd), ((dn,), dd), (vi, vd, _), (wi, wd, _) = ring._ints(c.val), ring._ints(d.val), v, w
                den = lcm(cd * vd, dd * wd)
                cn, dn = cn * (den // (cd * vd)), dn * (den // (dd * wd))
                out = [cn * a + dn * b for a, b in zip(vi, wi)]
                return out, den, max(map(abs, out)).bit_length()

        else:
            vadd, vmul = ring._vadd, ring._vmul

            def combine(c, v, d, w):
                """c*v + d*w, on raw values"""
                c, d = c.val, d.val
                return [vadd(vmul(c, a), vmul(d, b)) for a, b in zip(v, w)]

        gamma, delta, zero = self.gamma, self.delta, ring.zero
        one, two, two_delta = ring.one, ring(2), 2 * delta
        degrees = sorted(n for n in {*xs.parts, *ys.parts} if n <= top)
        degrees = [n for n in degrees if n + degrees[0] <= top]  # those that enter a product
        # x_n and y_n by degree, a missing one as zeros; the low ones, the left
        # side, are lifted apart from the high ones, so that over Q they do not
        # take the height of the high ones
        components = [s.parts.get(n) or (zero,) * (n + 1) for n in degrees for s in (xs, ys)]
        n_low = 2 * sum(2 * n <= top for n in degrees)
        low = lift(components[:n_low])
        left, vectors, right = lift([(-one,)]) + low, low + lift(components[n_low:]), []
        lows, highs = {}, {}  # degree -> index of x_i in left; (degree, diagonal) -> index in right
        for k, n in enumerate(degrees):
            x, y = vectors[2 * k : 2 * k + 2]
            if 2 * n <= top:
                lows[n] = 2 * k + 1
                highs[n, True] = len(right)
                right += [combine(one, x, gamma, y), combine(zero, x, delta, y)]
            if degrees[0] < n:
                highs[n, False] = len(right)
                right += [combine(two, x, gamma, y), combine(gamma, x, two_delta, y)]
        by_degree = defaultdict(list)
        for i, low in lows.items():
            for (j, diagonal), high in highs.items():
                if (i == j) if diagonal else (i < j <= top - i):
                    by_degree[i + j] += [(low, high), (low + 1, high + 1)]
        if minus is not None:
            kept = [m for m in minus.parts if m <= top]
            for k, m in enumerate(kept):
                by_degree[m].append((0, len(right) + k))
            right += lift([minus.parts[m] for m in kept])
        out_degrees = sorted(by_degree)
        outputs = [(m + 1, by_degree[m]) for m in out_degrees]
        parts = {m: wrap(v) for m, v in zip(out_degrees, sums(ring, left, right, outputs)) if nonzero(v)}
        return Series2._of(ring, parts, prec)


def _check_args(q, **series):
    """Refuse what a function of the form cannot take: a q that is not a
    QuadForm, or a named argument that is not a series, with a TypeError
    that names it; a series over another ring than q's with a ValueError."""
    if not isinstance(q, QuadForm):
        raise TypeError(f"q must be a QuadForm, not {type(q).__name__}")
    if any(_series_arg(name, s).ring != q.ring for name, s in series.items()):
        raise ValueError("mixed coefficient rings")


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


def _correction_rows(q, c):
    """The raw preimage of the linearized increment at c as four rows of
    scalars, for mu, nu, mu + gamma*nu and delta*nu, with mu = (-2*delta*c,
    gamma*c) and nu = (gamma*c, -2*c): a row (r, s) maps a component f_n to
    r*f_n[1:] + s*f_n[0], the f_n[0] term at X-exponent 0, of degree n - 1
    (`_apply_row`), and q_X*mu + q_Y*nu = c*d*f, d = gamma^2 - 4*delta.  The
    solver reads mu and nu at c = 1/d; the iteration reads all four at
    c = -1/d, where its correction cancels the residual.

    The rows of mu + gamma*nu and delta*nu are ((gamma^2 - 2*delta)*c,
    -gamma*c) and (delta*gamma*c, -2*delta*c).  The polar vectors
    p = 2*mu + gamma*nu and r = gamma*mu + 2*delta*nu need no rows: by those
    of mu and nu, p = c*d*f_n[1:] and r = c*d*f_n[0], so at c = -1/d,
    p = -f_n[1:] and r = -f_n[0], exactly over every base where d is a unit,
    characteristic 2 included (`_polar`)."""
    g, gc, two_c = q.gamma, q.gamma * c, 2 * c
    mu, nu = (-(q.delta * two_c), gc), (gc, -two_c)
    return mu, nu, (mu[0] + g * gc, -gc), (q.delta * gc, mu[0])


def _apply_row(ring, row, v):
    """r*v[1:] + s*v[0], the v[0] term at X-exponent 0, for a row (r, s) of
    scalars and a component v of degree n >= 1, in place: no kernel call.
    Both are held as `_vectors` holds them, the row as the two length-1
    vectors of one lift call (so over Q over one denominator); over Q the
    result is a canonical image, over every other base a list of raw
    values."""
    if not isinstance(ring, Rationals):
        ((r,), (s,)), vmul = row, ring._vmul
        out = [vmul(r, c) for c in v[1:]]
        out[0] = ring._vadd(out[0], vmul(s, v[0]))
        return out
    ((r,), den, _), ((s,), _, _) = row
    ints, vden, _ = v
    out = [r * x for x in ints[1:]]
    out[0] += s * ints[0]
    return _canonical(out, den * vden)


def _polar(ring, eps):
    """The polar vectors (p, r) of the correction made from the residual
    component eps, read off eps (see `_correction_rows`): p = -eps[1:] and
    r = (-eps[0], 0, ..., 0).  Over Q they are eps's image negated, over
    every other base its raw values negated."""
    if not isinstance(ring, Rationals):
        vneg = ring._vneg
        return [vneg(c) for c in eps[1:]], [vneg(eps[0])] + [ring.zero.val] * (len(eps) - 2)
    ints, den, bits = eps
    return ([-x for x in ints[1:]], den, bits), ([-ints[0]] + [0] * (len(ints) - 2), den, bits)


def _certify_right_inverse(q, ring, sign, targets, preimages):
    """Raise AssertionError unless sign*L(mu, nu) = target, L(mu, nu) =
    q_X*mu + q_Y*nu, in every degree n of targets (a dict, in increasing
    degree), with (mu, nu) = preimages[n] of degree n - 1, a missing pair
    counting as zeros; all vectors held as `_vectors` holds them, compared as
    such (over Q canonical images, over every other base raw values).  One
    product against the gradient, one output per degree; L is graded, so
    the error names the least degree where the identity fails.  The solver
    certifies with sign +1 (L(mu, nu) = f), the iteration with sign -1
    (its correction cancels the residual)."""
    sums, lift, _, _ = _vectors(ring)
    # sign*q_X = sign*(gamma, 2) and sign*q_Y = sign*(2*delta, gamma), by X-exponent
    g, two = sign * q.gamma, ring(2 * sign)
    gradient = lift([(g, two), (two * q.delta, g)])
    right, outputs = [], []
    for n in targets:
        pairs = []
        if n in preimages:
            pairs = [(0, len(right)), (1, len(right) + 1)]
            right += preimages[n]
        outputs.append((n + 1, pairs))
    for (n, target), lhs in zip(targets.items(), sums(ring, gradient, right, outputs)):
        if lhs != target:
            raise AssertionError(f"right-inverse identity failed at degree {n} (internal error)")


def solve_linearized_increment(q, f):
    """Right inverse of the linearized increment L(mu, nu) = q_X*mu + q_Y*nu,
    for a series f with zero constant term: one homogeneous component or a
    whole series.

    Needs a unit discriminant d.  Each component of f is lifted once
    (`_vectors`: over Q a canonical image, over every other base raw
    values), and the rows of mu and nu of `_correction_rows` at c = 1/d make
    mu and nu from it in place (`_apply_row`), so that L(mu, nu) = f.  That
    is re-checked on every call, which pins down the signs: by
    `_certify_right_inverse` with sign +1, degree by degree, naming the least
    degree where it fails.  mu and nu are wrapped once, after the check.
    """
    _check_args(q, f=f)
    d = q.discriminant
    if not d.is_unit:
        raise DegenerateFormError("right inverse needs a unit discriminant")
    if 0 in f.parts:
        raise ValueError("series must have zero constant term")
    ring = f.ring
    _, lift, wrap, nonzero = _vectors(ring)
    rows = [lift([(r,), (s,)]) for r, s in _correction_rows(q, d.inv())[:2]]
    targets = {n: lift([f.parts[n]])[0] for n in sorted(f.parts)}
    preimages = {n: [_apply_row(ring, row, v) for row in rows] for n, v in targets.items()}
    _certify_right_inverse(q, ring, 1, targets, preimages)
    return tuple(
        Series2._of(ring, {n - 1: wrap(p[k]) for n, p in preimages.items() if nonzero(p[k])}, f.precision)
        for k in (0, 1)
    )


def _certify(identity, lhs, rhs):
    """Raise AssertionError unless the series lhs and rhs are equal, naming the
    least degree where they differ."""
    if lhs != rhs:
        n = (lhs - rhs).order()
        where = f"at degree {n}" if n is not None else f"in precision, {lhs.precision} != {rhs.precision}"
        raise AssertionError(f"{identity} identity failed {where} (internal error)")


def _vectors(ring):
    """How the normal form holds a coefficient vector, as (sums, lift, wrap,
    nonzero): over Q an integer image (see `kernels`), multiplied by
    `_packed_sums`; over every other base a list of raw values, multiplied
    by `_product_sums`.  lift takes a list of vectors of RingElem to that
    format (over Q to images over one shared denominator, so a single
    vector's is canonical), wrap takes one back to a tuple of RingElem, and
    nonzero tells whether it is."""
    if isinstance(ring, Rationals):
        return _packed_sums, lambda vecs: _images(ring, vecs), lambda image: _elements(ring, image), _nonzero_image
    zero = ring.zero

    def wrap(vec):
        return tuple([RingElem(ring, x) if x else zero for x in vec])

    return _product_sums, lambda vecs: [[c.val for c in v] for v in vecs], wrap, any


def _nonzero_image(image):
    return any(image[0])


def normal_form_iteration(f, q, n_steps):
    """Successive coordinate corrections flattening f onto q.

    Starting from the identity, step n kills the degree-(n+2) component of
    q(x_n, y_n) - f by a homogeneous degree-(n+1) correction, so after step n
    the residual has order >= n+3.  Returns n_steps pairs (x_n, y_n): the
    identity (n = 0), then one per step n = 1 .. n_steps - 1.

    The residual is built incrementally, one degree per step.  With
    x = X + sum a_k and y = Y + sum b_k (a_k, b_k of degree k >= 2) and the
    polar form B(v, w) = q(v + w) - q(v) - q(w) of v_k = (a_k, b_k) (see
    `QuadForm.apply_series`), its degree-(n+2) component is

        eps = sum_{i<j, i+j=n+2} (a_i*p_j + b_i*r_j)
              + [n even] (a_k*(a_k + gamma*b_k) + b_k*delta*b_k) - f_{n+2},

    k = (n+2)/2, with the polar vectors p_j = 2a_j + gamma*b_j and
    r_j = gamma*a_j + 2*delta*b_j: q(X, Y) lives in degree 2, and the linear
    term L(a_{n+1}, b_{n+1}) is still zero when step n reads it.  Each
    correction is stored with a + gamma*b, delta*b, p and r, so step n costs
    one product per unordered pair of components, the low degree on the left
    (each side's common denominator and slot height then follow only half
    the components), instead of multiplying out whole series (van der
    Hoeven's relaxed, or on-line, scheme in its simplest form).

    A step is one product, which forms eps, -f_{n+2} entering as the
    length-1 vector (-1,) times f_{n+2}.  eps goes straight to
    (a, b, a + gamma*b, delta*b) through the four rows of `_correction_rows`
    at c = -1/d, the raw preimage with the sign that makes L(a, b) = -eps,
    formed once per iteration and applied in place (`_apply_row`), with no
    kernel call.  p and r are read off eps: p = -eps[1:] and r = -eps[0]
    (`_polar`), which holds since 2a + gamma*b and gamma*a + 2*delta*b are
    c*d times eps[1:] and eps[0].  Every vector the steps
    read or make stays in the format of `_vectors` (over Q an integer image,
    over every other base a list of raw values): each component of f that
    the steps read is lifted once before the loop (over Q canonically), the
    rows and -1 once per iteration, and eps and the stored corrections are
    made in that format (over Q canonical images, p and r as eps's negated),
    so no vector is lifted again.  Only a and b are wrapped as ring
    elements, and only when nonzero, each then appended to x or y as one new
    component: the coefficient tuples of the earlier components are shared
    and not checked again, while the small degree -> component dict is
    copied on each step.

    The right-inverse identity is certified once, after the last step, in
    one more product: -L(a_{n+1}, b_{n+1}) = eps of step n, for every step,
    with L(a, b) = q_X*a + q_Y*b (`_certify_right_inverse` with sign -1).  L
    is graded, so the least degree where it fails is n + 2 for the first
    step n whose correction is wrong.
    """
    _check_args(q, f=f)
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
    sums, lift, wrap, nonzero = _vectors(ring)
    xs, ys = Series2.x(ring), Series2.y(ring)
    out = [(xs, ys)]
    scalars = lift([(s,) for row in _correction_rows(q, -q.discriminant.inv()) for s in row])
    rows = [scalars[k : k + 2] for k in range(0, len(scalars), 2)]
    (minus_one,) = lift([(-ring.one,)])
    read = [n for n in f.parts if 2 < n <= n_steps + 1]  # f_{n+2} for the steps n < n_steps
    # one call each, so that each image is canonical: a step's right side is
    # then not scaled to the lcm of every denominator in f
    f_parts = {n: lift([f.parts[n]])[0] for n in read}
    # degree k -> (a_k, b_k, a_k + gamma*b_k, delta*b_k, p_k, r_k), for nonzero corrections
    comps = {}
    residuals = {}  # degree n + 2 -> eps of step n
    for n in range(1, n_steps):
        top = n + 2
        left, right = [], []
        for i in comps:  # in increasing degree
            j = top - i
            if j < i:
                break
            if j in comps:  # a_i, b_i against p_j, r_j, or against a_i + gamma*b_i, delta*b_i
                left += comps[i][:2]
                right += comps[j][4:] if i < j else comps[j][2:4]
        pairs = [(k, k) for k in range(len(left))]
        if top in f_parts:
            pairs.append((len(left), len(right)))
            left.append(minus_one)
            right.append(f_parts[top])
        (eps,) = sums(ring, left, right, [(top + 1, pairs)])
        residuals[top] = eps
        comp = [_apply_row(ring, row, eps) for row in rows]  # a, b, a + gamma*b, delta*b
        in_x, in_y = nonzero(comp[0]), nonzero(comp[1])
        if in_x or in_y:
            comps[n + 1] = (*comp, *_polar(ring, eps))
            if in_x:
                xs = Series2._of(ring, {**xs.parts, n + 1: wrap(comp[0])}, xs.precision)
            if in_y:
                ys = Series2._of(ring, {**ys.parts, n + 1: wrap(comp[1])}, ys.precision)
        out.append((xs, ys))
    _certify_right_inverse(q, ring, -1, residuals, {k + 1: comp[:2] for k, comp in comps.items()})
    return out


def square_zero_change(q, tau, f):
    """Coordinates X' = X + tau*mu, Y' = Y + tau*nu absorbing tau*f into q.

    tau must square to zero and f must have zero constant term; then
    q(X', Y') = q(X, Y) + tau*f holds exactly through the precision of f,
    because the cross terms carry tau^2 = 0.
    """
    _check_args(q, f=f)
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
    _check_args(q, u=u, v=v, defect=defect)
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
    _certify("repair", q.apply_series(u2, v2), q.apply_series(u, v, defect))
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
