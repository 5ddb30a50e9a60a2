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

The products behind these run in the kernels.  `QuadForm.apply_series`
multiplies out whole components of x and y on raw values, over Q and F_p in
`kernels._form_sums` (each component packed once, the polar vectors formed
on packed integers), over the composite rings in `_raw_form_sums` (the
polar vectors formed coefficientwise, the products in
`kernels._product_sums`).  So the residual check it serves stays independent
of the iteration: it forms its own polar vectors and does not share the
iteration's diagonal term or read-off polar vectors (`normal_form_iteration`).
Over every other base than Q the iteration and the solver hold a vector as
a list of raw values, multiplied by `kernels._product_sums`; over Q, where
each coefficient carries its own denominator, as an integer image
(ints, den, bits), the vector ints/den (`_graded`): integer numerators
whose denominator is fixed by their degree, with no content ever divided
out.  A component f_m of f is over F_m, the lcm of
its coefficients' denominators; a residual component eps_m over E_m, the
lcm of the denominators of the terms that enter degree m; a correction
(a_k, b_k) over D*E_{k+1}, D the lcm of the denominators of the rows'
scalars, and its polar vectors over E_{k+1}.  A term over less than E_m is
brought to it by one integer factor on a packed integer
(`kernels._graded_sum`), and a coefficient is normalised only when it is
wrapped as a ring element, which only the components a result keeps are.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .kernels import _elements, _form_sums, _graded_sum, _images, _product_sums
from .rings import DualNumbers, PrimeField, Rationals, RingElem
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
        or against x_k + gamma*y_k and delta*y_k on the diagonal, less minus_m;
        a component missing from xs or ys counts as zeros, and one that
        enters no product (degree n with n + least degree > precision) is
        dropped.  Over Q and F_p the kernel is `kernels._form_sums`: the low
        components (those on the left) and the rest are lifted apart, so
        that over Q the low ones do not take the height of the others, each
        component is packed once, the polar vectors are formed on the packed
        integers, and a degree is unpacked only when it is nonzero.  Over the
        composite rings it is `_raw_form_sums`, on raw values.  The check
        that reads this stays independent of the iteration: it multiplies
        out whole components of the returned x and y and forms its own
        polar vectors, and shares only the packing (`_pack`, `_digits`,
        `_slot_bytes`) with the iteration's `_graded_sum`.
        """
        ring = self.ring
        args = {"xs": xs, "ys": ys} | ({} if minus is None else {"minus": minus})
        _check_args(self, **args)
        prec = _min_prec(*(s.precision for s in args.values()))
        top = float("inf") if prec is None else prec
        zero = ring.zero
        degrees = sorted(n for n in {*xs.parts, *ys.parts} if n <= top)
        degrees = [n for n in degrees if n + degrees[0] <= top]  # those that enter a product
        # x_k and y_k, of the k-th degree, as raw values, a missing one as zeros
        vectors = [[c.val for c in s.parts.get(n) or (zero,) * (n + 1)] for n in degrees for s in (xs, ys)]
        n_low = sum(2 * n <= top for n in degrees)  # those on the left
        # right: (j, diagonal) -> its index; by_degree: degree -> pairs (i, index of the right vectors)
        right, by_degree = {}, defaultdict(list)
        for i in range(n_low):
            for j in range(i, len(degrees)):
                if degrees[i] + degrees[j] > top:
                    break
                by_degree[degrees[i] + degrees[j]].append((i, right.setdefault((j, i == j), len(right))))
        minuends = {} if minus is None else {m: [c.val for c in v] for m, v in minus.parts.items() if m <= top}
        out_degrees = sorted({*by_degree, *minuends})
        outputs = [(m + 1, by_degree.get(m, []), minuends.get(m)) for m in out_degrees]
        form_sums = _form_sums if isinstance(ring, (Rationals, PrimeField)) else _raw_form_sums
        sums = form_sums(ring, (self.gamma.val, self.delta.val), vectors, n_low, list(right), outputs)
        return Series2._of(ring, {m: v for m, v in zip(out_degrees, sums) if v}, prec)


def _raw_form_sums(ring, form, vectors, n_low, right, outputs):
    """`kernels._form_sums` on raw values, over the composite rings: each
    polar and diagonal vector is formed once, coefficientwise, and every sum
    is one output of one `kernels._product_sums` call, against the left side
    -1, x_0, y_0, .., x_{n_low-1}, y_{n_low-1}, minus against -1."""
    vadd, vmul = ring._vadd, ring._vmul
    (gamma, delta), one, two = form, ring.one.val, ring(2).val
    scalars = {False: ((two, gamma), (gamma, vmul(two, delta))), True: ((one, gamma), (ring.zero.val, delta))}
    left = [[ring._vneg(one)], *vectors[: 2 * n_low]]
    combos = [
        [vadd(vmul(c, a), vmul(d, b)) for a, b in zip(vectors[2 * j], vectors[2 * j + 1])]
        for j, diagonal in right
        for c, d in scalars[diagonal]
    ]
    sums = []
    for length, pairs, minus in outputs:
        products = [(2 * i + 1 + s, 2 * k + s) for i, k in pairs for s in (0, 1)]
        if minus is not None:
            products.append((0, len(combos)))
            combos.append(minus)
        sums.append((length, products))
    _, wrap, _ = _vectors(ring)
    return [wrap(v) if any(v) else None for v in _product_sums(ring, left, combos, sums)]


def _check_type(name, value, cls):
    """Refuse an argument `name` that is not a `cls` with a TypeError that names it."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, not {type(value).__name__}")


def _check_args(q, **series):
    """Refuse what a function of the form cannot take: a q that is not a
    QuadForm, or a named argument that is not a series, with a TypeError
    that names it; a series over another ring than q's with a ValueError."""
    _check_type("q", q, QuadForm)
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
    """The raw preimage of the linearized increment at c as the rows of mu
    and nu, (-2*delta*c, gamma*c) and (gamma*c, -2*c): a row (r, s) maps a
    component f_n to r*f_n[1:] + s*f_n[0], the f_n[0] term at X-exponent 0,
    of degree n - 1 (`_apply_row`), and q_X*mu + q_Y*nu = c*d*f,
    d = gamma^2 - 4*delta.  The solver reads them at c = 1/d, the iteration
    at c = -1/d, where its correction cancels the residual.

    The polar vectors p = 2*mu + gamma*nu and r = gamma*mu + 2*delta*nu need
    no rows: by those of mu and nu, p = c*d*f_n[1:] and r = c*d*f_n[0], so at
    c = -1/d, p = -f_n[1:] and r = -f_n[0], exactly over every base where d
    is a unit, characteristic 2 included (`_polar`).  Nor does q(mu, nu),
    which they give (`_diagonal`)."""
    gc, two_c = q.gamma * c, 2 * c
    return (-(q.delta * two_c), gc), (gc, -two_c)


def _diagonal(q, c):
    """The scalars (c*delta, -c*gamma, c) of the diagonal identity
    q(mu, nu) = c*(delta*p^2 - gamma*p*r + r^2), at c = -1/d, for (mu, nu)
    made by the rows of `_correction_rows` from a component and (p, r) its
    polar vectors (derived in `normal_form_iteration`)."""
    return c * q.delta, -(c * q.gamma), c


def _row_scalars(ring, rows):
    """Rows of scalars as `_apply_row` reads them, lifted in one call, as
    (r, s, D): over Q integers over D, the lcm of the scalars' denominators,
    each in lowest terms; over every other base raw values, with D None."""
    lift, _, _ = _vectors(ring)
    (flat,) = lift([[s for row in rows for s in row]])
    vals, den = flat[:2] if isinstance(ring, Rationals) else (flat, None)
    return [(vals[k], vals[k + 1], den) for k in range(0, len(vals), 2)]


def _apply_row(ring, row, v):
    """r*v[1:] + s*v[0], the v[0] term at X-exponent 0, for a row of scalars
    (`_row_scalars`) and a component v of degree n >= 1, in place: no kernel
    call.  Over Q v is an image (ints, den, bits) and the result the image
    over D*den, with no content divided out and its bits bounded by v's and
    those of |r| + |s|; over every other base both are lists of raw
    values."""
    r, s, den = row
    if not isinstance(ring, Rationals):
        vmul = ring._vmul
        out = [vmul(r, c) for c in v[1:]]
        out[0] = ring._vadd(out[0], vmul(s, v[0]))
        return out
    ints, vden, bits = v
    out = [r * x for x in ints[1:]]
    out[0] += s * ints[0]
    return out, den * vden, bits + (abs(r) + abs(s)).bit_length()


def _polar(ring, eps):
    """The polar vectors (p, r) of the correction made from the residual
    component eps, read off eps (see `_correction_rows`): p = -eps[1:] and
    r = -eps[0], at X-exponent 0, a vector of length 1 (a product takes it
    as a scalar).  Over Q they are eps's image negated, over every other
    base its raw values negated."""
    if not isinstance(ring, Rationals):
        vneg = ring._vneg
        return [vneg(c) for c in eps[1:]], [vneg(eps[0])]
    ints, den, bits = eps
    return ([-x for x in ints[1:]], den, bits), ([-ints[0]], den, bits)


def _certify_right_inverse(q, ring, sign, targets, preimages):
    """Raise AssertionError unless sign*L(mu, nu) = target, L(mu, nu) =
    q_X*mu + q_Y*nu, in every degree n of targets (a dict, in increasing
    degree), with (mu, nu) = preimages[n] of degree n - 1, a missing pair
    counting as zeros; all vectors held as `_graded` holds them.  Over Q the
    gradient is applied in place and integers are compared
    (`_gradient_sides`); over every other base L is one product against the
    gradient, one output per degree, compared with the target's raw values.
    L is graded, so the error names the least degree where the identity
    fails.  The solver certifies with sign +1 (L(mu, nu) = f), the iteration
    with sign -1 (its correction cancels the residual)."""
    lift, _, _ = _vectors(ring)
    # sign*q_X = sign*(gamma, 2) and sign*q_Y = sign*(2*delta, gamma), by X-exponent
    g, two = sign * q.gamma, ring(2 * sign)
    gradient = lift([(g, two), (two * q.delta, g)])
    if isinstance(ring, Rationals):
        sides = [
            _gradient_sides(gradient, *preimages[n], target) if n in preimages else ([0] * len(target[0]), target[0])
            for n, target in targets.items()
        ]
    else:
        right, outputs = [], []
        for n in targets:
            pairs = []
            if n in preimages:
                pairs = [(0, len(right)), (1, len(right) + 1)]
                right += preimages[n]
            outputs.append((n + 1, pairs))
        sides = zip(_product_sums(ring, gradient, right, outputs), targets.values())
    for n, (lhs, rhs) in zip(targets, sides):
        if lhs != rhs:
            raise AssertionError(f"right-inverse identity failed at degree {n} (internal error)")


def _gradient_sides(gradient, mu, nu, target):
    """L(mu, nu) and the target over Q as two lists of integers, equal
    exactly where the two vectors are.  With the gradient's images (x0, x1)
    and (y0, y1) over e, and mu, nu and the target the images (a, da),
    (b, da) and (t, dt),

        L(mu, nu)*e*da = (x0, x1)*a + (y0, y1)*b,

    set against t*e*da/dt, or both sides times dt where dt does not divide
    e*da.  The preimages the rows make are over D*dt, so only the scalars e
    and D multiply a coefficient: the gradient is applied in place, its two
    coefficients at X-exponents k and k + 1, with no kernel call and nothing
    divided.  mu and nu over different denominators, which no preimage the
    rows make has, are first brought to their product."""
    ((x0, x1), e, _), ((y0, y1), _, _) = gradient
    (a, da, _), (b, db, _), (t, dt, _) = mu, nu, target
    if da != db:
        a, b, da = [x * db for x in a], [y * da for y in b], da * db
    lhs = [x0 * x + y0 * y + x1 * u + y1 * v for x, y, u, v in zip([*a, 0], [*b, 0], [0, *a], [0, *b])]
    scale, rest = divmod(e * da, dt)
    if rest:
        lhs, scale = [x * dt for x in lhs], e * da
    return lhs, [scale * z for z in t]


def solve_linearized_increment(q, f):
    """Right inverse of the linearized increment L(mu, nu) = q_X*mu + q_Y*nu,
    for a series f with zero constant term: one homogeneous component or a
    whole series.

    Needs a unit discriminant d.  Each component of f is lifted once, in a
    call of its own (`_graded`: over Q an integer image over the lcm of its
    denominators, over every other base raw values), and the rows of mu and
    nu of `_correction_rows` at c = 1/d make mu and nu from it in place
    (`_apply_row`; over Q over D times that lcm, D the rows' denominator), so
    that L(mu, nu) = f.  That is re-checked on every call, which pins down
    the signs: by `_certify_right_inverse` with sign +1, degree by degree,
    naming the least degree where it fails.  mu and nu are wrapped once,
    after the check, each coefficient normalised then.
    """
    _check_args(q, f=f)
    d = q.discriminant
    if not d.is_unit:
        raise DegenerateFormError("right inverse needs a unit discriminant")
    if 0 in f.parts:
        raise ValueError("series must have zero constant term")
    ring = f.ring
    _, lift, wrap, nonzero = _graded(ring)
    rows = _row_scalars(ring, _correction_rows(q, d.inv()))
    degrees = sorted(f.parts)
    targets = dict(zip(degrees, lift([f.parts[n] for n in degrees])))
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
    """How the normal form lifts a vector of scalars, as (lift, wrap,
    nonzero): over Q to integer images (see `kernels`), over every other
    base to a list of raw values.  lift takes a list of vectors of RingElem
    to that format (over Q to images over one shared denominator, so a
    single vector's is canonical), wrap takes one back to a tuple of
    RingElem, each coefficient normalised, and nonzero tells whether it is.
    The rows' and the gradient's scalars are lifted by this lift."""
    if isinstance(ring, Rationals):
        return lambda vecs: _images(ring, vecs), lambda image: _elements(ring, image), _nonzero_image
    zero = ring.zero

    def wrap(vec):
        return tuple([RingElem(ring, x) if x else zero for x in vec])

    return lambda vecs: [[c.val for c in v] for v in vecs], wrap, any


def _nonzero_image(image):
    return any(image[0])


def _graded(ring):
    """How the iteration and the solver hold a vector, as (total, lift,
    wrap, nonzero): `_vectors`' wrap and nonzero, with total(length, terms,
    minus) the sum of s*u*v over (u, v, s) in terms less minus, s a scalar
    lifted as a length-1 vector (None for 1) and minus a vector (None for
    none).  Over Q total is `kernels._graded_sum`, whose image keeps the
    denominator the grading gives it, and lift takes each vector over the
    lcm of its own denominators (one `kernels._images` call each); over
    every other base total is `_raw_sum` and lift `_vectors`'."""
    lift, wrap, nonzero = _vectors(ring)
    if isinstance(ring, Rationals):
        return _graded_sum, lambda vecs: [_images(ring, [v])[0] for v in vecs], wrap, nonzero
    return lambda length, terms, minus: _raw_sum(ring, length, terms, minus), lift, wrap, nonzero


def _raw_sum(ring, length, terms, minus):
    """`kernels._graded_sum`'s sum on vectors of raw values, through
    `kernels._product_sums`: a scaled term's u is multiplied out first,
    coefficientwise, and minus enters against the length-1 vector (-1,)."""
    vmul = ring._vmul
    left = [u if s is None else [vmul(s[0], x) for x in u] for u, _, s in terms]
    right = [v for _, v, _ in terms]
    if minus is not None:
        left.append([ring._vneg(ring.one.val)])
        right.append(minus)
    (out,) = _product_sums(ring, left, right, [(length, [(k, k) for k in range(len(left))])])
    return out


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

        eps = sum_{i<j, i+j=n+2} (a_i*p_j + b_i*r_j) + [n even] q(a_k, b_k) - f_{n+2},

    k = (n+2)/2, with the polar vectors p_j = 2a_j + gamma*b_j and
    r_j = gamma*a_j + 2*delta*b_j: q(X, Y) lives in degree 2, and the linear
    term L(a_{n+1}, b_{n+1}) is still zero when step n reads it.  The
    diagonal term comes from the polar vectors too, over every base where d
    is a unit, characteristic 2 included (`_diagonal`).  The correction
    (a, b) made from eps_{k+1} at c = -1/d is a = c*(-2*delta*A + gamma*E)
    and b = c*(gamma*A - 2*E), with A = eps_{k+1}[1:] and E = eps_{k+1}[0]
    at X-exponent 0, and p = -A and r = -E, so that

        q(a, b) = c^2*((4*delta^2 - gamma^2*delta)*A^2 + (gamma^3 - 4*gamma*delta)*A*E + (4*delta - gamma^2)*E^2)
                = c^2*d*(-delta*A^2 + gamma*A*E - E^2)
                = c*(delta*p^2 - gamma*p*r + r^2),

    as c^2*d = -c.  Nothing is divided by 2.  Each correction is stored as
    (a, b, p, r), so step n costs one product per unordered pair of
    components, the low degree on the left, and three on the diagonal,
    instead of multiplying out whole series (van der Hoeven's relaxed, or
    on-line, scheme in its simplest form).

    A step is one kernel call, which forms eps, f_{n+2} entering as the
    output's minus.  eps goes straight to (a, b) through the rows of mu and
    nu of `_correction_rows` at c = -1/d, the raw preimage with the sign
    that makes L(a, b) = -eps, formed once per iteration and applied in
    place (`_apply_row`), with no kernel call.  p and r are read off eps:
    p = -eps[1:] and r = -eps[0] (`_polar`), which holds since
    2a + gamma*b and gamma*a + 2*delta*b are c*d times eps[1:] and eps[0].
    Every vector the steps read or make stays in the format of `_graded`:
    over every other base than Q a list of raw values; over Q integer
    numerators graded by degree, eps over E_{n+2}, a and b over D*E_{n+2},
    with D the rows' denominator, p and r over E_{n+2}, where E_{n+2} is the
    lcm of the denominators of the terms that enter degree n + 2:
    D*E_{i+1}*E_{j+1} for each pair i < j, D'*E_{k+1}^2 on the diagonal, with
    D' the lcm of the denominators of c*delta, -c*gamma and c, and F_{n+2},
    that of f_{n+2}'s coefficients.  A lcm per degree of a few such
    denominators, not one global denominator, keeps a tall denominator of f
    in its own degree's grading; and D is that of the rows' scalars, each in
    lowest terms, not the unreduced discriminant.  Inside the steps no gcd
    or lcm runs on a coefficient vector.  Each component of f that the steps
    read is lifted once before the loop, the rows and the diagonal's scalars
    once per iteration, so no vector is lifted again.  Only a and b are
    wrapped as ring elements, each coefficient normalised then, and only
    when nonzero, each then appended to x or y as one new component: the
    coefficient tuples of the earlier components are shared and not checked
    again, while the small degree -> component dict is copied on each step.

    The right-inverse identity is certified once, after the last step:
    -L(a_{n+1}, b_{n+1}) = eps of step n, for every step, with
    L(a, b) = q_X*a + q_Y*b (`_certify_right_inverse` with sign -1).  L is
    graded, so the least degree where it fails is n + 2 for the first step n
    whose correction is wrong.
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
    total, lift, wrap, nonzero = _graded(ring)
    xs, ys = Series2.x(ring), Series2.y(ring)
    out = [(xs, ys)]
    c = -q.discriminant.inv()
    rows = _row_scalars(ring, _correction_rows(q, c))
    diagonal = lift([(s,) for s in _diagonal(q, c)])
    read = [n for n in f.parts if 2 < n <= n_steps + 1]  # f_{n+2} for the steps n < n_steps
    f_parts = dict(zip(read, lift([f.parts[n] for n in read])))
    comps = {}  # degree k -> (a_k, b_k, p_k, r_k), for nonzero corrections
    residuals = {}  # degree n + 2 -> eps of step n
    for n in range(1, n_steps):
        top = n + 2
        terms = []
        for i, comp in comps.items():  # in increasing degree
            j = top - i
            if j < i:
                break
            if i < j and j in comps:  # a_i, b_i against p_j, r_j
                terms += [(comp[0], comps[j][2], None), (comp[1], comps[j][3], None)]
            elif i == j:  # q(a_i, b_i) = c*(delta*p_i^2 - gamma*r_i*p_i + r_i^2)
                p, r = comp[2:]
                terms += [(p, p, diagonal[0]), (r, p, diagonal[1]), (r, r, diagonal[2])]
        eps = total(top + 1, terms, f_parts.get(top))
        residuals[top] = eps
        a, b = (_apply_row(ring, row, eps) for row in rows)
        in_x, in_y = nonzero(a), nonzero(b)
        if in_x or in_y:
            comps[n + 1] = (a, b, *_polar(ring, eps))
            if in_x:
                xs = Series2._of(ring, {**xs.parts, n + 1: wrap(a)}, xs.precision)
            if in_y:
                ys = Series2._of(ring, {**ys.parts, n + 1: wrap(b)}, ys.precision)
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
