import random
from fractions import Fraction
from operator import add, ge, sub

import pytest
from hypothesis import given, settings, strategies as st

from nodal_kit.dp_ring import DegreeOverflowError, DPRing
from nodal_kit.kernels import _sparse_add, _sparse_mul
from nodal_kit.mpoly import MPoly
from nodal_kit.normal_form import QuadForm
from nodal_kit.rings import RingElem, make_ring
from nodal_kit.stabilize import UnsupportedConfigurationError, build_charts, reduce_chart0

# --- differential tests against the two division loops MPoly.divide replaced ---
#
# The references below are the loops dp_ring.py and stabilize.py ran before
# they shared MPoly.divide: each step builds `factor * relation` and a new
# remainder as whole polynomials.


def _ref_reduce_with_multiplier(dp, poly):
    rem = poly
    h = MPoly.zero(dp.ring, 2)
    while True:
        top = None
        for (i, j) in rem.terms:
            if i >= 2 and (top is None or (i, j) > top):
                top = (i, j)
        if top is None:
            break
        i, j = top
        factor = MPoly(dp.ring, 2, {(i - 2, j): rem.coefficient(top)})
        rem = rem - factor * dp.relation
        h = h + factor
    fc = [dp.ring.zero] * (dp.degree_bound + 1)
    gc = [dp.ring.zero] * (dp.degree_bound + 1)
    for (i, j), c in rem.terms_sorted():
        if j > dp.degree_bound:
            raise DegreeOverflowError(f"canonical Y-degree {j} exceeds bound {dp.degree_bound}")
        (fc if i == 0 else gc)[j] = c
    return dp.element(fc, gc), h


def _ref_reduce_chart0(chart, poly, rng=None):
    rel = chart.relation
    if rel.coefficient((1, 2)) != poly.ring.one:
        raise UnsupportedConfigurationError("chart relation is not monic in v*y^2")
    out = poly
    while True:
        reducible = [e for e in out.terms if e[0] >= 1 and e[1] >= 2]
        if not reducible:
            return out
        if rng is None:
            e = max(reducible)
        else:
            e = sorted(reducible)[rng.randrange(len(reducible))]
        factor = MPoly(poly.ring, 2, {(e[0] - 1, e[1] - 2): out.coefficient(e)})
        out = out - factor * rel


DIFF_RINGS = {
    name: make_ring(name) for name in ("q", "fp:7", "loc:q:s,t:3", "dual:q", "loc:fp:7:s,t:3", "dual:loc:q:s,t:2")
}


def coeffs(ring):
    """Small ring elements; over the composite rings with an atom term."""
    denominators = st.integers(1, 4).filter(lambda d: ring.from_int(d))  # units, also over fp:3
    small = st.builds(Fraction, st.integers(-6, 6), denominators).map(ring.from_fraction)
    atoms = sorted(ring.atoms().items())
    if not atoms:
        return small
    return st.builds(lambda a, b, g: a + b * g, small, small, st.sampled_from([g for _, g in atoms]))


def polys(ring, max_deg=4):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(exps, coeffs(ring), max_size=8).map(lambda terms: MPoly(ring, 2, terms))


@pytest.mark.parametrize("name", list(DIFF_RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reduce_with_multiplier_matches_the_reference_loop(name, data):
    ring = DIFF_RINGS[name]
    gamma, delta, s, t = (data.draw(coeffs(ring)) for _ in range(4))
    dp = DPRing(ring, QuadForm.make(ring, gamma, delta), s, t, degree_bound=16)
    poly = data.draw(polys(ring))
    elem, h = dp.reduce_with_multiplier(poly)
    ref_elem, ref_h = _ref_reduce_with_multiplier(dp, poly)
    assert (elem.f, elem.g) == (ref_elem.f, ref_elem.g)
    assert h.terms == ref_h.terms


# --- the raw sparse kernels against the RingElem route they replaced ---------


def _ref_sparse_add(x, y):
    out = dict(x)
    for e, c in y.items():
        c = c if e not in out else out[e] + c
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def _ref_sparse_mul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            c = c1 * c2 if e not in out else out[e] + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _vals(terms):
    return {e: c.val for e, c in terms.items()}


@pytest.mark.parametrize("name", list(DIFF_RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_raw_sparse_kernels_match_the_ring_element_route(name, data):
    ring = DIFF_RINGS[name]
    p, q = data.draw(polys(ring)), data.draw(polys(ring))
    c = data.draw(coeffs(ring))
    x, y = dict(p.terms_sorted()), dict(q.terms_sorted())
    assert _sparse_add(ring, p.terms, q.terms) == _vals(_ref_sparse_add(x, y))
    assert _sparse_mul(ring, p.terms, q.terms) == _vals(_ref_sparse_mul(x, y))
    # MPoly keeps the raw results; its scalar product and negation agree too
    assert (p + q).terms == _vals(_ref_sparse_add(x, y))
    assert (p * q).terms == _vals(_ref_sparse_mul(x, y))
    assert (p * c).terms == {e: (a * c).val for e, a in x.items() if a * c}
    assert (-p).terms == {e: (-a).val for e, a in x.items()}


# nilpotents a, b with a * b = 0: eps * eps in the dual numbers, and
# s*t * s in the local ring truncated at m^3
NILPOTENT_PAIRS = {"dual:q": ("eps", "eps"), "loc:q:s,t:3": ("s*t", "s")}


@pytest.mark.parametrize("name", list(NILPOTENT_PAIRS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_raw_sparse_kernels_cancel_to_the_empty_dict(name, data):
    ring = DIFF_RINGS[name]
    a, b = (ring(g) for g in NILPOTENT_PAIRS[name])
    p, q = data.draw(polys(ring)), data.draw(polys(ring))
    neg = {e: (-c).val for e, c in p.terms_sorted()}
    assert _sparse_add(ring, p.terms, neg) == {}
    assert (p + (-p)).terms == {} and (p - p).terms == {}
    assert _sparse_mul(ring, (p * a).terms, (q * b).terms) == {}
    assert (p * a * (q * b)).terms == {}
    # (c*X + c*Y) * (X - Y): the two X*Y products cancel inside one product
    c = data.draw(coeffs(ring))
    x, y = MPoly.var(ring, 2, 0), MPoly.var(ring, 2, 1)
    square_diff = {e: v for e, v in (((2, 0), c.val), ((0, 2), (-c).val)) if v}
    assert _sparse_mul(ring, (x * c + y * c).terms, (x - y).terms) == square_diff


# (gamma, delta) pairs with a unit discriminant over each of the rings above
UNIT_DISC_FORMS = [(3, 2), (0, -1), (1, 0), (-1, -2)]


@pytest.mark.parametrize("name", list(DIFF_RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_reduce_chart0_matches_the_reference_loop(name, data, seed):
    ring = DIFF_RINGS[name]
    gamma, delta = data.draw(st.sampled_from(UNIT_DISC_FORMS))
    s, t = data.draw(coeffs(ring)), data.draw(coeffs(ring))
    chart0, _ = build_charts(ring, QuadForm.make(ring, gamma, delta), s, t)
    poly = data.draw(polys(ring))
    if data.draw(st.booleans()):  # a member of the ideal, which must reduce to zero
        poly = poly * chart0.relation
    assert reduce_chart0(chart0, poly).terms == _ref_reduce_chart0(chart0, poly).terms
    rng, ref_rng = random.Random(seed), random.Random(seed)
    out = reduce_chart0(chart0, poly, rng)
    assert out.terms == _ref_reduce_chart0(chart0, poly, ref_rng).terms
    assert rng.getstate() == ref_rng.getstate()  # the same draws, in the same order


@pytest.mark.parametrize("name", list(DIFF_RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_division_without_rescans_matches_the_reference_loop_on_long_remainders(name, data):
    # a multiple of the relation plus high X-degree terms: each step adds
    # monomials that are divisible again, some of which cancel and come back,
    # so the sorted list of divisible monomials loses and regains entries
    ring = DIFF_RINGS[name]
    gamma, delta, s, t = (data.draw(coeffs(ring)) for _ in range(4))
    dp = DPRing(ring, QuadForm.make(ring, gamma, delta), s, t, degree_bound=40)
    poly = data.draw(polys(ring, max_deg=7)) * dp.relation + data.draw(polys(ring, max_deg=9))
    rem, quot = poly.divide(dp.relation, (2, 0))
    ref_elem, ref_h = _ref_reduce_with_multiplier(dp, poly)
    assert quot.terms == ref_h.terms
    assert rem.terms == ref_elem.expand().terms
    assert poly == rem + quot * dp.relation


def _ref_divide(poly, relation, lead, rng=None):
    """The division loop `MPoly.divide` ran before its list of divisible
    monomials was exact: each step lists the remainder's divisible monomials
    again and cancels the largest, or with an rng a draw from them in sorted
    order."""
    ring = poly.ring
    vadd, vmul = ring._vadd, ring._vmul
    tail = [(e, ring._vneg(c)) for e, c in relation.terms.items() if e != lead]
    rem, quot = dict(poly.terms), {}
    while True:
        divisible = [e for e in rem if all(map(ge, e, lead))]
        if not divisible:
            return rem, {e: v for e, v in quot.items() if v}
        e = max(divisible) if rng is None else sorted(divisible)[rng.randrange(len(divisible))]
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
            else:
                rem.pop(m, None)


@pytest.mark.parametrize("name", list(DIFF_RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_division_by_the_exact_queue_matches_the_rescan_loop(name, data, seed):
    # the double-point relation (lead X^2) or the chart-0 relation (lead
    # v*y^2) dividing a multiple of it plus other terms, whose steps cancel
    # divisible monomials and bring them back: the same remainder, quotient
    # and, with an rng, the same draws
    ring = DIFF_RINGS[name]
    gamma, delta = data.draw(st.sampled_from(UNIT_DISC_FORMS))
    s, t = data.draw(coeffs(ring)), data.draw(coeffs(ring))
    q = QuadForm.make(ring, gamma, delta)
    if data.draw(st.booleans(), label="chart 0"):
        relation, lead = build_charts(ring, q, s, t)[0].relation, (1, 2)
    else:
        relation, lead = DPRing(ring, q, s, t, degree_bound=40).relation, (2, 0)
    poly = data.draw(polys(ring, max_deg=5)) * relation + data.draw(polys(ring, max_deg=8))
    rng, ref_rng = (None, None) if seed is None else (random.Random(seed), random.Random(seed))
    rem, quot = poly.divide(relation, lead, rng)
    assert (rem.terms, quot.terms) == _ref_divide(poly, relation, lead, ref_rng)
    if seed is not None:
        assert rng.getstate() == ref_rng.getstate()  # the same draws, in the same order


def test_divide_returns_the_division_identity():
    ring = DIFF_RINGS["q"]
    x, y = MPoly.var(ring, 2, 0), MPoly.var(ring, 2, 1)
    relation = x * x + x * y * 3 - 1
    poly = x**4 * y + x**3 - y * 2
    rem, quot = poly.divide(relation, (2, 0))
    assert poly == rem + quot * relation
    assert all(e[0] < 2 for e in rem.terms)


class _FirstDraw:
    """An rng whose every draw picks the first divisible monomial."""

    def randrange(self, n):
        return 0


@pytest.mark.parametrize("name", ["q", "loc:fp:7:s,t:3"])
def test_a_seeded_division_drops_quotient_terms_that_cancel(name):
    # x*y - x^2 = -x * (x - y): cancelling x*y first, then x^2, brings x*y
    # back with the opposite sign, so the quotient's y term sums to zero
    ring = DIFF_RINGS[name]
    x, y = MPoly.var(ring, 2, 0), MPoly.var(ring, 2, 1)
    poly, relation = x * y - x * x, x - y
    rem, quot = poly.divide(relation, (1, 0), _FirstDraw())
    assert rem.terms == {}
    assert quot.terms == {(1, 0): (-ring.one).val}
    assert poly == rem + quot * relation


def test_divide_refuses_a_relation_whose_lead_coefficient_is_not_one():
    ring = DIFF_RINGS["q"]
    x, y = MPoly.var(ring, 2, 0), MPoly.var(ring, 2, 1)
    with pytest.raises(ValueError, match="lex-leading term"):
        (x**3).divide(x * x * 2 + y, (2, 0))


def test_divide_refuses_a_lead_that_is_not_lex_leading():
    # dividing by x + x^2 with lead x would trade x for x^2 forever
    ring = DIFF_RINGS["q"]
    x, y = MPoly.var(ring, 2, 0), MPoly.var(ring, 2, 1)
    with pytest.raises(ValueError, match="lex-leading term"):
        (x * y).divide(x + x * x, (1, 0))


def test_the_public_constructor_checks_terms_and_arithmetic_keeps_them_clean():
    ring = DIFF_RINGS["dual:q"]
    for bad in ((1,), (1, 0, 0), (-1, 2)):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MPoly(ring, 2, {bad: ring.one})
    assert MPoly(ring, 2, {(1, 0): ring.zero}).terms == {}
    x = MPoly.var(ring, 2, 0)
    # sums, products and scalar products drop the coefficients that vanish
    assert ((x * ring.eps) * ring.eps).terms == {}
    assert (x * ring.eps * x - x * x * ring.eps).terms == {}
    assert (x + 1 - x).terms == {(0, 0): ring.one.val}
    # a product keeps no term that vanishes: eps*eps, or two X*Y that cancel
    y = MPoly.var(ring, 2, 1)
    assert ((x * ring.eps) * (y * ring.eps)).terms == {}
    assert ((x + y) * (x - y)).terms == {(2, 0): ring.one.val, (0, 2): (-ring.one).val}


@pytest.mark.parametrize("name", ["fp:11", "q"])
def test_the_public_constructor_refuses_a_coefficient_from_another_ring(name):
    ring, other = make_ring(name), make_ring("fp:7")
    with pytest.raises(ValueError, match=f"element of fp:7 is not in {name}"):
        MPoly(ring, 1, {(1,): other(3)}) + MPoly(ring, 1, {(1,): ring(3)})


@pytest.mark.parametrize("i", [2, 5, -1])
def test_var_refuses_an_index_outside_the_variables(i):
    with pytest.raises(ValueError, match=f"variable index {i} is out of range for 2 variables"):
        MPoly.var(DIFF_RINGS["q"], 2, i)


# --- the methods that hand ring elements out, against a RingElem reference ----

BOUNDARY_RINGS = {name: make_ring(name) for name in ("fp:3", "dual:q", "loc:q:s,t:3")}


def _is_elem(ring, c):
    return isinstance(c, RingElem) and c.ring == ring


def test_the_derivative_drops_a_coefficient_the_characteristic_kills():
    ring = BOUNDARY_RINGS["fp:3"]
    assert MPoly.var(ring, 1, 0, 3).derivative(0).terms == {}
    assert MPoly.var(ring, 1, 0, 4).derivative(0).terms == {(3,): ring.one.val}


@pytest.mark.parametrize("name", list(BOUNDARY_RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_the_boundary_methods_match_the_ring_element_route(name, data):
    ring = BOUNDARY_RINGS[name]
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    ref = {e: c for e, c in data.draw(st.dictionaries(exps, coeffs(ring), max_size=8)).items() if c}
    p, q = MPoly(ring, 2, ref), data.draw(polys(ring))
    # terms_sorted and coefficient hand out ring elements of the polynomial's ring
    pairs = p.terms_sorted()
    assert pairs == sorted(ref.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    assert all(_is_elem(ring, c) for _, c in pairs)
    for e in [(i, j) for i in range(5) for j in range(5)]:
        assert _is_elem(ring, p.coefficient(e)) and p.coefficient(e) == ref.get(e, ring.zero)
    # eval_all: the sum of c * x^i * y^j over the reference terms
    point = (data.draw(coeffs(ring)), data.draw(coeffs(ring)))
    value = p.eval_all(point)
    assert _is_elem(ring, value)
    assert value == sum((c * point[0] ** i * point[1] ** j for (i, j), c in ref.items()), ring.zero)
    x = dict(q.terms_sorted())
    for v in (0, 1):
        # derivative: k * c at the lowered exponent, dropped where it vanishes
        lower = {(i - (v == 0), j - (v == 1)): c * (i, j)[v] for (i, j), c in ref.items() if (i, j)[v]}
        assert p.derivative(v).terms == _vals({e: c for e, c in lower.items() if c})
        # subs_var: each term with variable v replaced by q, by repeated products
        out = {}
        for e, c in ref.items():
            power = {(0, 0): ring.one}
            for _ in range(e[v]):
                power = _ref_sparse_mul(power, x)
            out = _ref_sparse_add(out, _ref_sparse_mul({(e[0] * v, e[1] * (1 - v)): c}, power))
        assert p.subs_var(v, q).terms == _vals(out)
