import random
from fractions import Fraction
from math import gcd

import pytest

from nodal_kit import dp_ring, normal_form
from nodal_kit.dp_ring import DegreeOverflowError, mul_columns
from nodal_kit.kernels import _sparse_add
from nodal_kit.linalg import _dense_rows, rank
from nodal_kit.rings import DualNumbers, LocalTruncation, PrimeField, Rationals, RingElem
from nodal_kit.series import Series2


@pytest.fixture
def rng():
    return random.Random(90125)


@pytest.fixture
def QQ():
    return Rationals()


@pytest.fixture
def F5():
    return PrimeField(5)


@pytest.fixture
def F7():
    return PrimeField(7)


@pytest.fixture
def DQ():
    return DualNumbers(Rationals())


@pytest.fixture
def LOC():
    return LocalTruncation(Rationals(), ("s", "t"), 3)


def random_unit_disc(ring, rng):
    """A (gamma, delta) pair whose discriminant is a unit."""
    while True:
        g = ring.random_element(rng)
        d = ring.random_element(rng)
        if (g * g - 4 * d).is_unit:
            return g, d


def dp_vector(elem, bound):
    """Dense coefficient vector of a canonical form in the degree-major layout
    of the certificate matrices: Y^k at 2k, X*Y^k at 2k + 1, k <= bound."""
    if elem.degree() is not None and elem.degree() > bound:
        raise DegreeOverflowError(f"element degree {elem.degree()} exceeds {bound}")
    ring = elem.dp.ring
    out = [ring.zero] * (2 * (bound + 1))
    for x, row in enumerate((elem.f, elem.g)):
        for j, c in row.items():
            out[2 * j + x] = RingElem(ring, c)
    return out


def dense_row(ring, row):
    """A row {Y-degree: raw value} of a DPElem as its list of ring elements,
    ascending Y-degree, through its degree."""
    return [RingElem(ring, row[j]) if j in row else ring.zero for j in range(max(row, default=-1) + 1)]


def dp_basis(dp, bound):
    """The canonical basis 1, X, Y, X*Y, ..., Y^bound, X*Y^bound, in the order of `dp_vector`."""
    out = []
    for k in range(bound + 1):
        power = (0,) * k + (1,)
        out += [dp.element(power, ()), dp.element((), power)]
    return out


def mul_kernel_dimension(elem, bound):
    """The kernel dimension of multiplication by `elem` on canonical degree
    <= bound, read off a rank of its matrix: the route by which the
    non-zero-divisor v - t was certified before its closed form, kept as the
    reference for it."""
    ring = elem.dp.ring
    out_bound = bound + (elem.degree() or 0) + 1
    cols = mul_columns(elem, bound, out_bound)
    return len(cols) - rank(ring, _dense_rows(ring, cols, 2 * (out_bound + 1)), len(cols))


def naive_apply_series(q, xs, ys, minus=None):
    """Reference for `QuadForm.apply_series`: q(xs, ys) - minus through the
    least precision, by the ordered double loop over components, x_i*x_j +
    gamma*x_i*y_j + delta*y_i*y_j for every ordered pair (i, j), coefficient
    by coefficient in ring elements."""
    ring = q.ring
    precisions = [s.precision for s in (xs, ys, minus) if s is not None and s.precision is not None]
    prec = min(precisions, default=None)
    degrees = sorted(set(xs.parts) | set(ys.parts))
    out = {}
    for i in degrees:
        for j in degrees:
            m = i + j
            if prec is not None and m > prec:
                continue
            vec = out.setdefault(m, [ring.zero] * (m + 1))
            zero_i, zero_j = (ring.zero,) * (i + 1), (ring.zero,) * (j + 1)
            xi, yi = xs.parts.get(i, zero_i), ys.parts.get(i, zero_i)
            xj, yj = xs.parts.get(j, zero_j), ys.parts.get(j, zero_j)
            for a in range(i + 1):
                for b in range(j + 1):
                    vec[a + b] += xi[a] * xj[b] + q.gamma * xi[a] * yj[b] + q.delta * yi[a] * yj[b]
    if minus is not None:
        for m, v in minus.parts.items():
            if prec is None or m <= prec:
                vec = out.setdefault(m, [ring.zero] * (m + 1))
                out[m] = [c - d for c, d in zip(vec, v)]
    return Series2(ring, out, prec)


def naive_linearized_increment(q, mu, nu):
    """Reference for the linearized increment q_X*mu + q_Y*nu, with q_X =
    2X + gamma*Y and q_Y = gamma*X + 2*delta*Y, through the lesser precision
    of mu and nu: each coefficient of mu and nu times each gradient term, in
    ring elements (index k of a component is the coefficient of X^k)."""
    ring = q.ring
    prec = min([s.precision for s in (mu, nu) if s.precision is not None], default=None)
    out = {}
    for s, (gx, gy) in ((mu, (ring(2), q.gamma)), (nu, (q.gamma, 2 * q.delta))):
        for n, vec in s.parts.items():
            total = out.setdefault(n + 1, [ring.zero] * (n + 2))
            for k, c in enumerate(vec):
                total[k + 1] += gx * c
                total[k] += gy * c
    return Series2(ring, out, prec)


def raw_increment_preimage(q, f, c=1):
    """(mu, nu) with q_X*mu + q_Y*nu = c*d*f, d the discriminant, for f with
    zero constant term: the rows of mu and nu of
    `normal_form._correction_rows(q, c)` applied to each component of f
    (`normal_form._apply_row`, on the scalars of `normal_form._row_scalars`),
    as the solver applies them at c = 1/d, degree n of f giving degree n - 1
    of mu and nu, as series of f's precision."""
    ring = f.ring
    _, lift, wrap, nonzero = normal_form._graded(ring)
    rows = normal_form._row_scalars(ring, normal_form._correction_rows(q, ring(c)))
    out = ({}, {})
    for n, v in f.parts.items():
        (image,) = lift([v])
        for parts, row in zip(out, rows):
            if nonzero(w := normal_form._apply_row(ring, row, image)):
                parts[n - 1] = wrap(w)
    return tuple(Series2(ring, parts, f.precision) for parts in out)


# --- a plain reference for the normal form: fractions.Fraction (or residues
# mod p) on dict polynomials {(i, j): coefficient of X^i*Y^j}, degree by
# degree, with no kernel and no normal_form internal


def _reference_field(p):
    """(embed, reduce, inverse) for Q as Fractions (p None) or F_p as
    residues."""
    if p is None:
        return Fraction, lambda x: x, lambda x: 1 / x

    def embed(x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, p) % p

    return embed, lambda x: x % p, lambda x: pow(x, -1, p)


def _by_degree(poly):
    out = {}
    for (i, j), c in poly.items():
        out.setdefault(i + j, []).append((i, j, c))
    return out


def _degree_part(u, v, m, scale, out):
    """out += scale * (the degree-m part of u*v), for u and v grouped by
    degree (`_by_degree`)."""
    for a, terms in u.items():
        for i1, j1, c1 in terms:
            for i2, j2, c2 in v.get(m - a, ()):
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + scale * c1 * c2


def _reference_preimage(g, h, c, reduce, part, m):
    """(mu, nu) = c*(-2*h*A + g*E, g*A - 2*E) for the degree-m part `part`:
    A = (part - e0*Y^m)/X and E = e0*Y^(m-1), e0 its coefficient of Y^m; so
    q_X*mu + q_Y*nu = c*(g^2 - 4*h)*part, q = X^2 + g*X*Y + h*Y^2."""
    e0 = part.get((0, m), 0)
    a_part = {(i - 1, j): v for (i, j), v in part.items() if i > 0}
    mu = {e: reduce(-2 * h * c * v) for e, v in a_part.items()}
    nu = {e: reduce(g * c * v) for e, v in a_part.items()}
    corner = (0, m - 1)
    mu[corner] = reduce(mu.get(corner, 0) + g * c * e0)
    nu[corner] = reduce(nu.get(corner, 0) - 2 * c * e0)
    return ({e: v for e, v in w.items() if v} for w in (mu, nu))


def reference_iteration(f, gamma, delta, n_steps, p=None):
    """Reference for `normal_form_iteration`: f a dict {(i, j): value}, gamma
    and delta values (ints, strings or Fractions); over Q (p None) in
    Fractions, over F_p in residues.  Step n multiplies out the degree-(n+2)
    part eps of q(x, y) - f afresh from x and y and adds the correction of
    `_reference_preimage` at c = -1/d, d = gamma^2 - 4*delta.  Returns the
    n_steps pairs (x, y) as dicts of nonzero coefficients."""
    embed, reduce, inverse = _reference_field(p)
    g, h = embed(gamma), embed(delta)
    c = reduce(-inverse(reduce(g * g - 4 * h)))
    f = {e: embed(v) for e, v in f.items()}
    x, y = {(1, 0): embed(1)}, {(0, 1): embed(1)}
    out = [(dict(x), dict(y))]
    for n in range(1, n_steps):
        m = n + 2
        xd, yd = _by_degree(x), _by_degree(y)
        eps = {e: -v for e, v in f.items() if sum(e) == m}
        _degree_part(xd, xd, m, 1, eps)
        _degree_part(xd, yd, m, g, eps)
        _degree_part(yd, yd, m, h, eps)
        eps = {e: reduce(v) for e, v in eps.items()}
        for s, w in zip((x, y), _reference_preimage(g, h, c, reduce, eps, m)):
            for e, v in w.items():
                s[e] = reduce(s.get(e, 0) + v)
                if not s[e]:
                    del s[e]
        out.append((dict(x), dict(y)))
    return out


def reference_right_inverse(f, gamma, delta, p=None):
    """Reference for `solve_linearized_increment`: (mu, nu) as dicts, from f a
    dict {(i, j): value} with no constant term, by `_reference_preimage` at
    c = 1/d on each homogeneous part."""
    embed, reduce, inverse = _reference_field(p)
    g, h = embed(gamma), embed(delta)
    c = reduce(inverse(reduce(g * g - 4 * h)))
    mu, nu = {}, {}
    for m in sorted({i + j for i, j in f}):
        part = {e: reduce(embed(v)) for e, v in f.items() if sum(e) == m}
        for s, w in zip((mu, nu), _reference_preimage(g, h, c, reduce, part, m)):
            s.update(w)
    return mu, nu


def perturbed_rows(monkeypatch, row, column):
    """Make the iteration's rows of mu and nu (`_correction_rows` at
    c = -1/d) hold one scalar plus one; the solver's, at c = 1/d, are left
    as they are."""
    real = normal_form._correction_rows

    def perturbed(q, c):
        rows = [list(r) for r in real(q, c)]
        if c == -q.discriminant.inv():
            rows[row][column] = rows[row][column] + 1
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(normal_form, "_correction_rows", perturbed)


def perturbed_diagonal(monkeypatch, k):
    """Make scalar k of the diagonal identity (`_diagonal`: c*delta,
    -c*gamma, c) one more."""
    real = normal_form._diagonal

    def perturbed(q, c):
        scalars = list(real(q, c))
        scalars[k] = scalars[k] + 1
        return tuple(scalars)

    monkeypatch.setattr(normal_form, "_diagonal", perturbed)


def perturbed_polar(monkeypatch, which, column, first_step=1):
    """Make the polar vector p (which = 0) or r (which = 1) that `_polar`
    reads off eps hold eps[1:] (column 0) or eps[0] (column 1) more: the
    scalars (-1, 0) of p's row and (0, -1) of r's on (eps[1:], eps[0]), each
    plus one, from the first run's step `first_step` on (`_polar` is called
    once per step that makes a nonzero correction).  r, of length 1, grows
    to the length of what it gains."""
    real, calls = normal_form._polar, []

    def perturbed(ring, eps):
        polar = list(real(ring, eps))
        calls.append(None)
        if len(calls) < first_step:
            return tuple(polar)
        _, lift, wrap, _ = normal_form._graded(ring)
        e = wrap(eps)
        gained = e[1:] if column == 0 else e[:1]
        vec = list(wrap(polar[which]))
        vec += [ring.zero] * (len(gained) - len(vec))
        for k, c in enumerate(gained):
            vec[k] += c
        polar[which] = lift([vec])[0]
        return tuple(polar)

    monkeypatch.setattr(normal_form, "_polar", perturbed)


# The faults that only feed later residuals, each as (where, k, first step,
# residual order) for f = q + X^3 + Y^3: a scalar k of the diagonal identity
# (`_diagonal`), or p or r read off eps with the scalar of column k of its
# row, (-1, 0) or (0, -1) on (eps[1:], eps[0]), one more, from step 1 or
# step 2 on.  Step 1's correction first enters degree 4, through the
# diagonal term, which reads its p and r; step 2's p and r first enter
# degree 5, against a_2 and b_2.
LATER_FAULTS = [("diagonal", k, 1, 4) for k in range(3)] + [
    (vector, column, first, 3 + first) for first in (1, 2) for vector in ("p", "r") for column in (0, 1)
]


def plant_later_fault(monkeypatch, where, k, first_step):
    """Plant one fault of `LATER_FAULTS`."""
    if where == "diagonal":
        perturbed_diagonal(monkeypatch, k)
    else:
        perturbed_polar(monkeypatch, "pr".index(where), k, first_step)


def perturbed_step(monkeypatch, step, which):
    """Make step `step` of the first iteration run add one to coefficient 0
    of its output `which` of (a, b): the call of `_apply_row` that applies
    row `which` (each step applies the two rows in order).  Over Q, where
    the output is an image (ints, den, bits), by adding den to ints[0]."""
    real, calls = normal_form._apply_row, []

    def perturbed(ring, row, v):
        out = real(ring, row, v)
        calls.append(None)
        if len(calls) == 2 * (step - 1) + which + 1:
            out = _plus_one(ring, out)
        return out

    monkeypatch.setattr(normal_form, "_apply_row", perturbed)


def _canonical(ints, den):
    """The canonical image (ints, den, bits) of the vector ints/den over Q
    (den > 0): its content divided out, bits that of the largest |x|."""
    g = gcd(den, *ints)
    if g != 1:
        ints, den = [x // g for x in ints], den // g
    return ints, den, max(map(abs, ints)).bit_length() if ints else 0


def _plus_one(ring, vec):
    """The vector `vec`, held as `normal_form._graded` holds it, with one
    added to coefficient 0."""
    if isinstance(ring, Rationals):
        ints, den, _ = vec
        return _canonical([ints[0] + den, *ints[1:]], den)
    return [ring._vadd(vec[0], ring.one.val), *vec[1:]]


def perturbed_preimage(monkeypatch, degree):
    """Make the solver's preimage wrong in the component of mu made from f's
    degree-`degree` component, when f has one: one is added to its
    coefficient 0, in place, before the solver's certificate
    (`_certify_right_inverse` with sign +1) reads it, so q_X*mu + q_Y*nu
    misses f first in that degree.  The iteration's certificate, with sign
    -1, is left as it is."""
    real = normal_form._certify_right_inverse

    def perturbed(q, ring, sign, targets, preimages):
        if sign == 1 and degree in preimages:
            preimages[degree][0] = _plus_one(ring, preimages[degree][0])
        return real(q, ring, sign, targets, preimages)

    monkeypatch.setattr(normal_form, "_certify_right_inverse", perturbed)


def _row_plus(ring, row, c):
    """The X-row `row` ({Y-degree: raw value}) with c added at Y^0."""
    return _sparse_add(ring, row, {0: ring(c).val})


def corrupt_power_rows(monkeypatch, which, k):
    """Make `dp_ring._power_rows` return g_n + 1 for every n >= k (which =
    "g"), or h_k + 1 and every later h built from it by h_(n+1) = g_(n+1) +
    X h_n (which = "h"); the rest of the recursion is left as it was."""
    real = dp_ring._power_rows

    def corrupted(ring, f2, g1, n_max):
        f, g, h = real(ring, f2, g1, n_max)
        if which == "g":
            g[k:] = [_row_plus(ring, row, 1) for row in g[k:]]
        else:
            h[k] = [_row_plus(ring, h[k][0], 1)] + h[k][1:]
            for n in range(k + 1, len(h)):
                h[n] = [g[n]] + h[n - 1]
        return f, g, h

    monkeypatch.setattr(dp_ring, "_power_rows", corrupted)


def corrupt_division(monkeypatch, part, c):
    """Make `dp_ring._divide_rows` leave c added at X^0*Y^0 of its quotient
    (part = "quotient") or of its remainder, row 0 of the rows it divides in
    place (part = "remainder")."""
    real = dp_ring._divide_rows

    def corrupted(ring, rows, relation_rows):
        quot = real(ring, rows, relation_rows)
        if part == "quotient":
            return [_row_plus(ring, quot[0] if quot else {}, c)] + quot[1:]
        rows[0] = _row_plus(ring, rows[0], c)
        return quot

    monkeypatch.setattr(dp_ring, "_divide_rows", corrupted)


def pair_loop_sums(ring, left, right, outputs):
    """Reference for the composite branch of `kernels._product_sums`: the
    pair loop it replaced, on vectors of raw values, each coefficient
    product a `_vmul` and each accumulation a `_vadd`, so every partial sum
    is normalised; one list of raw values per output."""
    vadd, vmul = ring._vadd, ring._vmul
    sums = []
    for length, pairs in outputs:
        out = [()] * length
        for i, j in pairs:
            nb = [(k, y) for k, y in enumerate(right[j]) if y]
            for k1, x in enumerate(left[i]):
                if x:
                    for k2, y in nb:
                        out[k1 + k2] = vadd(out[k1 + k2], vmul(x, y))
        sums.append(out)
    return sums
