"""Blow-up charts replacing a pointed node by a projective line.

The two affine charts are presented by a single relation each, obtained by
eliminating one generator from the pair of bilinear forms that present the
blow-up.  The module re-derives the chart relations by elimination and
checks them coefficient-for-coefficient against their closed forms, computes
normal forms in chart 0 and certifies its monomial flatness basis in closed
form, certifies the chart covering and gluing, decomposes the central fiber,
and verifies the 4x4 determinant identity behind the ideal change of basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

from .mpoly import MPoly
from .normal_form import _check_args, _check_type
from .rings import PrimeField, Rationals


class ChartMismatchError(AssertionError):
    """An eliminated relation drifted from its closed form."""


class UnsupportedConfigurationError(ValueError):
    """The requested computation is outside the supported configurations."""


@dataclass(frozen=True)
class ChartPresentation:
    """One affine chart: two variables subject to a single relation."""

    chart_id: str
    var_names: tuple
    relation: MPoly
    eliminated_expr: MPoly  # the solved expression for the eliminated generator

    def format_relation(self):
        return self.relation.format(self.var_names)


def _presenting_forms(ring, q, s, t):
    """The two presenting pairs, as trivariate polynomials.

    Chart 0 lives in (u, v, y), chart 1 in (u, v, x):
        f0 = (gamma*u + delta*v + delta*t) - (u - s) y
        g0 = (u + s + gamma*t) + (v - t) y
        f1 = (gamma*u + delta*v + delta*t) x - (u - s)
        g1 = (u + s + gamma*t) x + (v - t)
    """
    g, d = q.gamma, q.delta
    one = ring.one

    def P(terms):
        return MPoly(ring, 3, terms)

    f0 = P({(1, 0, 0): g, (0, 1, 0): d, (0, 0, 0): d * t, (1, 0, 1): -one, (0, 0, 1): s})
    g0 = P({(1, 0, 0): one, (0, 0, 0): s + g * t, (0, 1, 1): one, (0, 0, 1): -t})
    f1 = P({(1, 0, 1): g, (0, 1, 1): d, (0, 0, 1): d * t, (1, 0, 0): -one, (0, 0, 0): s})
    g1 = P({(1, 0, 1): one, (0, 0, 1): s + g * t, (0, 1, 0): one, (0, 0, 0): -t})
    return f0, g0, f1, g1


def _drop_var(poly, i):
    """Project a trivariate polynomial not involving variable i to 2 variables."""
    terms = {}
    for e, c in poly.terms.items():
        if e[i] != 0:
            raise ValueError("polynomial still involves the eliminated variable")
        e2 = tuple(k for j, k in enumerate(e) if j != i)
        terms[e2] = c
    return MPoly._of(poly.ring, 2, terms)


def _chart0_closed_form(ring, q, s, t):
    """v(y^2 - gamma*y + delta) + s(2y - gamma) + t(-y^2 + 2*gamma*y - gamma^2 + delta)."""
    g, d = q.gamma, q.delta
    v = MPoly.var(ring, 2, 0)
    y = MPoly.var(ring, 2, 1)
    return (
        v * (y * y - y * g + d)
        + (y * 2 - g) * s
        + (-(y * y) + y * (2 * g) + (d - g * g)) * t
    )


def _chart1_closed_form(ring, q, s, t):
    """(delta*x^2 - gamma*x + 1, s(delta*x^2 - 1) + t*delta*(gamma*x^2 - 2x)): the
    chart-1 relation is u times the first plus the second."""
    g, d = q.gamma, q.delta
    x = MPoly.var(ring, 2, 1)
    return x * x * d - x * g + 1, (x * x * d - 1) * s + (x * x * g - x * 2) * (d * t)


def build_charts(ring, q, s, t):
    """Derive both chart presentations by elimination and check the closed forms.

    Chart 0 eliminates u via g0 (whose u-coefficient is 1); chart 1
    eliminates v via g1 (v-coefficient 1); the chart-1 result is normalized
    by a sign so the coefficient of the bare u term is +1.  Any coefficient
    drift from the closed forms aborts with a diff.  The presenting identity

        (v - t) f0 + (u - s) g0 = q(u, v) - q(s, t)

    is verified in the trivariate ring on every call.
    """
    _check_args(q)
    if not q.discriminant.is_unit:
        raise UnsupportedConfigurationError("charts need a unit discriminant")
    s, t = ring(s), ring(t)
    f0, g0, f1, g1 = _presenting_forms(ring, q, s, t)
    g_, d_ = q.gamma, q.delta

    u3 = MPoly.var(ring, 3, 0)
    v3 = MPoly.var(ring, 3, 1)
    w3 = MPoly.var(ring, 3, 2)

    ident = (v3 - t) * f0 + (u3 - s) * g0
    qq = u3 * u3 + u3 * v3 * g_ + v3 * v3 * d_ - q.value_at(s, t)
    if ident != qq:
        raise ChartMismatchError("presenting identity (v-t)f0 + (u-s)g0 = q(u,v)-q(s,t) failed")

    # chart 0: g0 solves u = -(s + gamma*t) - (v - t) y
    u_expr3 = -(w3 * (v3 - t)) - MPoly.const(ring, 3, s + g_ * t)
    rel0 = _drop_var(f0.subs_var(0, u_expr3), 0)
    closed0 = _chart0_closed_form(ring, q, s, t)
    if rel0 != closed0:
        raise ChartMismatchError(
            "chart 0 relation drifted:\n  derived: "
            f"{rel0.format(('v', 'y'))}\n  closed:  {closed0.format(('v', 'y'))}"
        )

    # chart 1: g1 solves v = t - (u + s + gamma*t) x; sign-normalize so the
    # coefficient of the bare u term is +1
    v_expr3 = MPoly.const(ring, 3, t) - w3 * (u3 + MPoly.const(ring, 3, s + g_ * t))
    rel1 = -_drop_var(f1.subs_var(1, v_expr3), 1)
    u_coeff, u_free = _chart1_closed_form(ring, q, s, t)
    closed1 = MPoly.var(ring, 2, 0) * u_coeff + u_free
    if rel1 != closed1:
        raise ChartMismatchError(
            "chart 1 relation drifted:\n  derived: "
            f"{rel1.format(('u', 'x'))}\n  closed:  {closed1.format(('u', 'x'))}"
        )

    chart0 = ChartPresentation("R0", ("v", "y"), rel0, _drop_var(u_expr3, 0))
    chart1 = ChartPresentation("R1", ("u", "x"), rel1, _drop_var(v_expr3, 1))
    return chart0, chart1


def reduce_chart0(chart, poly, rng=None):
    """Normal form in chart 0, with no monomial v^n y^m, n >= 1, m >= 2: the remainder
    of division by the relation, whose v*y^2 coefficient is 1.  With an rng the
    monomial to cancel is drawn at random, which exercises confluence.
    """
    _check_type("chart", chart, ChartPresentation)
    _check_type("poly", poly, MPoly)
    if chart.chart_id != "R0":
        raise ValueError("normal forms are computed in chart 0")
    return poly.divide(chart.relation, (1, 2), rng)[0]


def chart0_basis_monomials(bound):
    """Normal-form monomials of total degree <= bound: y^m and v^n, v^n y."""
    out = [(0, m) for m in range(bound + 1)]
    out += [(n, 0) for n in range(1, bound + 1)]
    out += [(n, 1) for n in range(1, bound)]
    return sorted(out)


def flatness_basis_certificate(chart, bound):
    """Certify the normal-form monomials as a coefficient-module basis.

    Checks that v*y^2, with coefficient 1, is the relation's only term of
    degree >= 3, and that ``chart0_basis_monomials(bound)`` is exactly the
    monomials of degree <= bound that v*y^2 does not divide.  Then, in a
    graded order, the multiples m*rel with deg m <= bound - 3 lead with
    coefficient 1 at exactly the monomials v*y^2 divides, and with the basis
    monomials they form a unit-triangular matrix: the chart is free over the
    base on the basis through degree bound, as one polynomial with a unit
    leading coefficient is a Gröbner basis over any coefficient ring (Cox,
    Little and O'Shea, *Ideals, Varieties, and Algorithms*, 2.5-2.7).
    Nothing is sampled; a failure names the offending relation term or the
    first monomial where the basis differs.
    """
    _check_type("chart", chart, ChartPresentation)
    rel, one = chart.relation, chart.relation.ring.one

    def show(e, c=one):
        return "nothing" if e is None else MPoly.monomial(rel.ring, e, c).format(chart.var_names)

    failures = [] if (1, 2) in rel.terms else ["the relation has no v*y^2 term"]
    failures += [
        f"the relation has the term {show(e, c)}; its only term of degree >= 3 must be v*y^2"
        for e, c in rel.terms_sorted()
        if sum(e) >= 3 and (e, c) != ((1, 2), one)
    ]
    basis = chart0_basis_monomials(bound)
    normal = [(n, m) for n in range(bound + 1) for m in range(bound + 1 - n) if n == 0 or m < 2]
    for k, (got, want) in enumerate(zip_longest(basis, normal)):
        if got != want:
            failures.append(f"basis monomial {k} is {show(got)}, where the normal forms have {show(want)}")
            break
    return {"ok": not failures, "failures": failures, "basis_size": len(basis)}


def covering_certificate(ring, q, s, t, charts):
    """Covering and gluing of the two charts.

    (i) delta*x^2 - gamma*x + 1 has constant term 1, so x = 0 is not in its
    zero locus; (ii) the chart-1 relation is linear in u with that
    polynomial as coefficient, so inverting it solves u and exhibits the
    localized chart as a localized polynomial ring in x; (iii) under
    y*x = 1 the presenting pairs glue: x*f0|_{y=1/x} = f1 and likewise for g.
    A failure names its value: the constant term, or the difference from the
    expected relation or gluing.  ``charts`` is the pair
    ``build_charts(ring, q, s, t)`` returns.
    """
    _check_args(q)
    s, t = ring(s), ring(t)
    _, chart1 = charts
    failures = []

    c_poly, d_poly = _chart1_closed_form(ring, q, s, t)
    if (constant := c_poly.coefficient((0, 0))) != ring.one:
        failures.append(f"constant term of delta*x^2-gamma*x+1 is {ring.format_elem(constant)}, not 1")
    if not (off := chart1.relation - MPoly.var(ring, 2, 0) * c_poly - d_poly).is_zero:
        failures.append(
            f"chart 1 relation is not linear in u with the expected coefficient, off by {off.format(('u', 'x'))}"
        )

    f0, g0, f1, g1 = _presenting_forms(ring, q, s, t)
    for name, low, high in (("f", f0, f1), ("g", g0, g1)):
        if (glued := _glue_via_reciprocal(low)) != high:
            off = (glued - high).format(("u", "v", "x"))
            failures.append(f"gluing x*{name}0|_(y=1/x) = {name}1 fails, off by {off}")

    return {
        "ok": not failures,
        "failures": failures,
        "u_numerator": (-d_poly).format(("u", "x")),
        "u_denominator": c_poly.format(("u", "x")),
    }


def _glue_via_reciprocal(poly3):
    """x * poly(u, v, 1/x) for a trivariate polynomial of third-variable degree <= 1."""
    terms = {}
    for (a, b, k), c in poly3.terms.items():
        if k > 1:
            raise ValueError("gluing transform expects degree <= 1 in the chart variable")
        terms[(a, b, 1 - k)] = c
    return MPoly._of(poly3.ring, 3, terms)


@dataclass(frozen=True)
class FiberReport:
    """Decomposition of the central fiber of chart 0 plus smoothness data."""

    roots: tuple
    components: tuple  # formatted generators
    intersection_points: tuple
    transversal_determinants: tuple
    lines_disjoint: bool
    section_jacobian: str
    ok: bool
    failures: tuple = ()  # each identity that failed, with its value


def split_tangent_roots(ring, q):
    """Distinct roots of y^2 - gamma*y + delta over the base field, if any."""
    g_, d_ = q.gamma, q.delta
    if isinstance(ring, PrimeField):
        p, g, d = ring.p, g_.val, d_.val
        if p == 2:
            vals = [a for a in (0, 1) if (a * a - g * a + d) % 2 == 0]
        else:
            disc = (g * g - 4 * d) % p
            if disc == 0 or pow(disc, (p - 1) // 2, p) != 1:
                return None  # repeated root, or a non-residue (Euler's criterion)
            r = _sqrt_mod(disc, p)
            half = (p + 1) // 2
            vals = sorted(((g + r) * half % p, (g - r) * half % p))
        return [ring.from_int(a) for a in vals] if len(vals) == 2 else None
    if isinstance(ring, Rationals):
        (num,), den = ring._ints((g_ * g_ - d_ * 4).val)  # in lowest terms
        if num <= 0:
            return None  # repeated root, or no rational square root
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        r = ring.from_int(rn) / rd
        half = ring.from_int(2).inv()
        return [(g_ + r) * half, (g_ - r) * half]
    raise UnsupportedConfigurationError(
        f"root finding is supported over prime fields and rationals, not {ring.descriptor()}"
    )


def _sqrt_mod(a, p):
    """A square root of the nonzero quadratic residue a modulo an odd prime p (Tonelli-Shanks)."""
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def fiber_at_origin(ring, q, charts):
    """Components and intersection geometry of the central fiber (s = t = 0).

    The chart-0 fiber ring is k[v, y]/(v(y^2 - gamma*y + delta)); when the
    quadratic splits with distinct roots a, b the components are cut out by
    v, y - a, y - b: a line (the affine part of the projective line) meeting
    two disjoint affine lines.  Transversality is certified by the unit
    Jacobian determinant of each meeting pair at its intersection point, and
    smoothness along the lifted section by the u-derivative of the chart-1
    relation being a unit at x = 0; each of these that fails is named in
    ``failures`` with its value.  ``charts`` is the pair
    ``build_charts(ring, q, 0, 0)`` returns; charts built at any other
    (s, t) raise ValueError.
    """
    _check_args(q)
    if not ring.is_field:
        raise UnsupportedConfigurationError("fiber decomposition needs field coefficients")
    if not q.discriminant.is_unit:
        raise UnsupportedConfigurationError("fiber decomposition needs a unit discriminant")
    roots = split_tangent_roots(ring, q)
    if roots is None:
        raise UnsupportedConfigurationError(
            "y^2 - gamma*y + delta does not split with distinct roots over the base field"
        )
    a, b = roots
    zero = ring.zero
    chart0, chart1 = charts

    v = MPoly.var(ring, 2, 0)
    y = MPoly.var(ring, 2, 1)
    # chart 0 solves u = -(y(v - t)) - (s + gamma*t), which is -vy iff s = t = 0
    if chart0.eliminated_expr != -(v * y):
        raise ValueError("fiber_at_origin needs the charts built at s = t = 0")
    comp_v = v
    comp_a = y - MPoly.const(ring, 2, a)
    comp_b = y - MPoly.const(ring, 2, b)

    # the product of all component generators is the fiber relation: at s = t = 0
    # it is v(y^2 - gamma*y + delta), and a + b = gamma, ab = delta
    show = ring.format_elem
    off = comp_v * comp_a * comp_b - chart0.relation
    failures = [] if off.is_zero else [f"v*(y-a)*(y-b) = chart-0 relation fails, off by {off.format(('v', 'y'))}"]

    points = ((zero, a), (zero, b))
    dets = []
    for comp, pt in ((comp_a, points[0]), (comp_b, points[1])):
        jac = (
            comp_v.derivative(0).eval_all(pt) * comp.derivative(1).eval_all(pt)
            - comp_v.derivative(1).eval_all(pt) * comp.derivative(0).eval_all(pt)
        )
        dets.append(jac)
        if not jac.is_unit:
            failures.append(f"the Jacobian at (0, {show(pt[1])}) is {show(jac)}, not a unit")

    lines_disjoint = (a - b).is_unit
    if not lines_disjoint:
        failures.append(f"a - b = {show(a - b)} is not a unit")

    section_val = chart1.relation.derivative(0).eval_all((zero, zero))
    if not section_val.is_unit:
        failures.append(f"the u-derivative of the chart-1 relation at x = 0 is {show(section_val)}, not a unit")

    return FiberReport(
        roots=(show(a), show(b)),
        components=(
            comp_v.format(("v", "y")),
            comp_a.format(("v", "y")),
            comp_b.format(("v", "y")),
        ),
        intersection_points=tuple((show(p), show(r)) for p, r in points),
        transversal_determinants=tuple(show(dd) for dd in dets),
        lines_disjoint=lines_disjoint,
        section_jacobian=show(section_val),
        ok=not failures,
        failures=tuple(failures),
    )


def _det(ring, m):
    n = len(m)
    if n == 1:
        return m[0][0]
    out = ring.zero
    sign = ring.one
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        out = out + sign * m[0][j] * _det(ring, minor)
        sign = -sign
    return out


def determinant_and_ideal_basis(ring, q, s=None, t=None):
    """The 4x4 change-of-basis determinant and the two-generator-set identity.

    The matrix expresses (u-s, v-t, u+s+gamma*t, gamma*u+delta*v+delta*t) in
    the basis (u, v, s, t); its determinant is 4*delta - gamma^2.  When that
    value is a unit the inverse matrix (computed by adjugate, valid over any
    ring) certifies that the two quadruples generate the same ideal, each
    being a unimodular combination of the other.  Each identity that fails
    is named in ``failures`` with its value.
    """
    _check_args(q)
    g_, d_ = q.gamma, q.delta
    one, zero = ring.one, ring.zero
    m = [
        [one, zero, one, g_],
        [zero, one, zero, d_],
        [-one, zero, one, zero],
        [zero, -one, g_, d_],
    ]
    det = _det(ring, m)
    expected = d_ * 4 - g_ * g_
    show = ring.format_elem
    failures = [] if det == expected else [f"det = {show(det)}, but 4*delta - gamma^2 = {show(expected)}"]
    record = {"determinant": show(det), "matches": not failures, "ok": not failures, "failures": failures}
    if s is None or t is None or not expected.is_unit:
        record["basis_certificate"] = "skipped (needs s, t and a unit determinant)"
        return record
    s, t = ring(s), ring(t)
    det_inv = det.inv()
    adj = [
        [
            (-one if (i + j) % 2 else one)
            * _det(ring, [row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != j])
            for j in range(4)
        ]
        for i in range(4)
    ]
    inv = [[adj[i][j] * det_inv for j in range(4)] for i in range(4)]
    iden = [[one if i == j else zero for j in range(4)] for i in range(4)]
    prod = [
        [sum((m[i][k] * inv[k][j] for k in range(4)), zero) for j in range(4)]
        for i in range(4)
    ]
    if prod != iden:
        i, j = next((i, j) for i in range(4) for j in range(4) if prod[i][j] != iden[i][j])
        failures.append(f"(m*inv)[{i}][{j}] = {show(prod[i][j])}, not {show(iden[i][j])}")
        record["ok"] = False
        record["basis_certificate"] = "inverse verification failed"
        return record

    u = MPoly.var(ring, 2, 0)
    v = MPoly.var(ring, 2, 1)
    basis = [u, v, MPoly.const(ring, 2, s), MPoly.const(ring, 2, t)]
    gens = [
        u - s,
        v - t,
        u + (s + g_ * t),
        u * g_ + v * d_ + d_ * t,
    ]
    # gens = basis*m and m*inv = I give basis = gens*inv
    wrong = []
    for j, gen in enumerate(gens):
        off = sum((basis[i] * m[i][j] for i in range(4)), MPoly.zero(ring, 2)) - gen
        if not off.is_zero:
            wrong.append(f"generator {j} rebuilt from the basis is off by {off.format(('u', 'v'))}")
    failures += wrong
    record["ok"] = record["ok"] and not wrong
    record["basis_certificate"] = "failed" if wrong else "unimodular change of generators verified"
    return record
