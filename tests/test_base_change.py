"""Base change as a differential oracle.

Every construction here is made of ring operations, so it commutes with any
ring map A -> B that its inputs survive: reduce the inputs, run over B, and
the result must equal the reduction of the run over A.  The maps are a
tower's residue map onto its bottom field, and Q -> F_p where p divides no
denominator of the inputs and not the discriminant.  The two runs take
different paths: the towers multiply through their compiled kernels, or past
the size cutoff (loc:q:s,t:10) through the loops, and the fields through the
packed kernel, over Q on integer images and over F_p on residues.  The
double-point ring's canonical forms and products, on sparse X-rows, and the
chart relations, on sparse polynomials, run on each ring's own `_vmul` and
`_vadd`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_unit_disc
from nodal_kit.dp_ring import DPElem, DPRing
from nodal_kit.mpoly import MPoly, random_poly2
from nodal_kit.normal_form import QuadForm, normal_form_iteration
from nodal_kit.rings import CoeffParseError, RingElem, TruncatedRing, make_ring
from nodal_kit.series import Series2
from nodal_kit.stabilize import build_charts

PAIRS = [
    ("loc:q:s,t:3", "q"),
    ("dual:q", "q"),
    ("loc:fp:7:s,t:3", "fp:7"),
    ("dual:loc:q:s,t:2", "q"),
    ("loc:q:s,t:10", "q"),
    ("q", "fp:7"),
    ("q", "fp:101"),
]


def _reduction(big, small):
    """The ring map big -> small on raw values; CoeffParseError where Q -> F_p
    meets a denominator divisible by p."""
    if isinstance(big, TruncatedRing):
        assert big.field == small
        return big._residue_raw

    def mod_p(v):
        (n,), d = big._ints(v)
        return small.from_fraction(Fraction(n, d)).val

    return mod_p


def _series(ring, reduce, s):
    return Series2(ring, {n: [RingElem(ring, reduce(c.val)) for c in vec] for n, vec in s.parts.items()}, s.precision)


def _rows(reduce, row):
    return {j: w for j, v in row.items() if (w := reduce(v))}


def _terms(reduce, poly):
    return {e: w for e, v in poly.terms.items() if (w := reduce(v))}


@pytest.mark.parametrize("pair", PAIRS, ids=["->".join(pair) for pair in PAIRS])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), precision=st.integers(1, 10))
def test_normal_form_and_canonical_forms_commute_with_base_change(pair, seed, precision):
    big, small = map(make_ring, pair)
    reduce = _reduction(big, small)
    rnd = random.Random(seed)
    gamma, delta = random_unit_disc(big, rnd)
    degrees = range(3, precision + 3)
    terms = [(i, n - i, big.random_element(rnd)) for n in degrees for i in range(n + 1) if rnd.random() < 0.4]
    s, t = big.random_element(rnd), big.random_element(rnd)
    poly = random_poly2(big, rnd, max_deg=4)
    q = QuadForm(big, gamma, delta)
    f = q.series(precision + 2) + Series2.from_terms(big, terms, precision + 2)

    def down(x):
        return RingElem(small, reduce(x.val))

    try:
        q_small = QuadForm(small, down(gamma), down(delta))
        f_small = _series(small, reduce, f)
        s_small, t_small = down(s), down(t)
        poly_small = MPoly(small, 2, {e: RingElem(small, reduce(v)) for e, v in poly.terms.items()})
    except CoeffParseError:  # p divides a denominator
        assume(False)
    assume(q_small.discriminant.is_unit)

    steps, steps_small = normal_form_iteration(f, q, precision), normal_form_iteration(f_small, q_small, precision)
    for (xs, ys), (xs_small, ys_small) in zip(steps, steps_small, strict=True):
        assert _series(small, reduce, xs) == xs_small
        assert _series(small, reduce, ys) == ys_small

    dp, dp_small = DPRing(big, q, s, t), DPRing(small, q_small, s_small, t_small)
    canonical, canonical_small = dp.reduce(poly), dp_small.reduce(poly_small)
    assert (_rows(reduce, canonical.f), _rows(reduce, canonical.g)) == (canonical_small.f, canonical_small.g)

    # the product on X-rows, through the towers' kernels or the fields'
    a, b = dp.random_element(rnd), dp.random_element(rnd)
    a_small, b_small = (DPElem(dp_small, _rows(reduce, e.f), _rows(reduce, e.g)) for e in (a, b))
    product, product_small = a * b, a_small * b_small
    assert (_rows(reduce, product.f), _rows(reduce, product.g)) == (product_small.f, product_small.g)

    for chart, chart_small in zip(build_charts(big, q, s, t), build_charts(small, q_small, s_small, t_small)):
        assert _terms(reduce, chart.relation) == chart_small.relation.terms
