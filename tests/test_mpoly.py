import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nodal_kit.dp_ring import DPElem, DegreeOverflowError, DPRing, _norm
from nodal_kit.mpoly import MPoly
from nodal_kit.normal_form import QuadForm
from nodal_kit.rings import make_ring
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
        c = rem.terms[top]
        factor = MPoly(dp.ring, 2, {(i - 2, j): c})
        rem = rem - factor * dp.relation
        h = h + factor
    fc = [dp.ring.zero] * (dp.degree_bound + 1)
    gc = [dp.ring.zero] * (dp.degree_bound + 1)
    for (i, j), c in rem.terms.items():
        if j > dp.degree_bound:
            raise DegreeOverflowError(f"canonical Y-degree {j} exceeds bound {dp.degree_bound}")
        (fc if i == 0 else gc)[j] = c
    return DPElem(dp, _norm(fc), _norm(gc)), h


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
        c = out.terms[e]
        factor = MPoly(poly.ring, 2, {(e[0] - 1, e[1] - 2): c})
        out = out - factor * rel


DIFF_RINGS = {name: make_ring(name) for name in ("q", "fp:7", "loc:q:s,t:3", "dual:q")}


def coeffs(ring):
    """Small ring elements; over the composite rings with an atom term."""
    small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(ring.from_fraction)
    atoms = sorted(ring.atoms().items())
    if not atoms:
        return small
    return st.builds(lambda a, b, g: a + b * g, small, small, st.sampled_from([g for _, g in atoms]))


def polys(ring, max_deg=4):
    exps = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg))
    return st.dictionaries(exps, coeffs(ring), max_size=8).map(lambda terms: MPoly(ring, 2, terms))


def _terms(poly):
    return {e: c.val for e, c in poly.terms.items()}


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
    assert (elem.fc, elem.gc) == (ref_elem.fc, ref_elem.gc)
    assert _terms(h) == _terms(ref_h)


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
    assert _terms(reduce_chart0(chart0, poly)) == _terms(_ref_reduce_chart0(chart0, poly))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    out = reduce_chart0(chart0, poly, rng)
    assert _terms(out) == _terms(_ref_reduce_chart0(chart0, poly, ref_rng))
    assert rng.getstate() == ref_rng.getstate()  # the same draws, in the same order


def test_divide_returns_the_division_identity():
    ring = DIFF_RINGS["q"]
    x, y = MPoly.var(ring, 2, 0), MPoly.var(ring, 2, 1)
    relation = x * x + x * y * 3 - 1
    poly = x**4 * y + x**3 - y * 2
    rem, quot = poly.divide(relation, (2, 0))
    assert poly == rem + quot * relation
    assert all(e[0] < 2 for e in rem.terms)


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
    assert (x + 1 - x).terms == {(0, 0): ring.one}
