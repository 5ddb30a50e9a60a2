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

The right inverse is not unique: (mu + q_Y*w, nu - q_X*w) is a preimage of f
whenever (mu, nu) is.  Its certificate checks only q_X*mu + q_Y*nu = f, so a
shift planted in one path passes it; the differential names the first
coefficient where the paths then part.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import naive_linearized_increment, random_unit_disc
from nodal_kit import normal_form
from nodal_kit.dp_ring import DPElem, DPRing
from nodal_kit.mpoly import MPoly, random_poly2
from nodal_kit.normal_form import QuadForm, normal_form_iteration, solve_linearized_increment
from nodal_kit.rings import CoeffParseError, Rationals, RingElem, TruncatedRing, make_ring
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


def _assert_reduces_to(name, small, reduce, big_series, small_series):
    """Assert that big_series reduced to `small` is small_series, naming the
    first coefficient where they differ, by degree and then X-exponent."""
    down = _series(small, reduce, big_series)
    assert down.precision == small_series.precision, f"{name}: precision {down.precision} != {small_series.precision}"
    for n in sorted({*down.parts, *small_series.parts}):
        for k in range(n + 1):
            a, b = down.coefficient(k, n - k), small_series.coefficient(k, n - k)
            if a != b:
                raise AssertionError(f"{name}: coefficient of X^{k}*Y^{n - k} differs: reduced {a} != {b}")


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
    for k, ((xs, ys), (xs_small, ys_small)) in enumerate(zip(steps, steps_small, strict=True)):
        _assert_reduces_to(f"x of step {k}", small, reduce, xs, xs_small)
        _assert_reduces_to(f"y of step {k}", small, reduce, ys, ys_small)
    # the right inverse: over Q on integer images, elsewhere on raw values
    solved, solved_small = solve_linearized_increment(q, f), solve_linearized_increment(q_small, f_small)
    for name, got, want in zip(("mu", "nu"), solved, solved_small):
        _assert_reduces_to(name, small, reduce, got, want)

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


def _shift_raw_preimages(monkeypatch):
    """Plant the shift (mu + q_Y*w, nu - q_X*w), with w = f_n[2:] of degree
    n - 2 for each component f_n, in the solver's raw path (every base but
    Q) only, in place, before its certificate reads the preimage."""
    real = normal_form._certify_right_inverse

    def shifted(q, ring, sign, targets, preimages):
        if sign == 1 and not isinstance(ring, Rationals):
            zero, g, d2 = ring.zero, q.gamma, 2 * q.delta
            for n, pair in preimages.items():
                w = [RingElem(ring, v) for v in targets[n][2:]]
                xw, yw = [zero, *w], [*w, zero]  # X*w and Y*w, by X-exponent
                mu, nu = ([RingElem(ring, v) for v in vec] for vec in pair)
                pair[0] = [(m + g * a + d2 * b).val for m, a, b in zip(mu, xw, yw)]
                pair[1] = [(m - 2 * a - g * b).val for m, a, b in zip(nu, xw, yw)]
        return real(q, ring, sign, targets, preimages)

    monkeypatch.setattr(normal_form, "_certify_right_inverse", shifted)


def test_a_shift_planted_in_the_raw_path_passes_the_certificate_and_fails_the_differential(monkeypatch):
    # gamma = 3, delta = 2, d = 1: over Q mu_1 = -4*f_2[1:] + 3*f_2[0] =
    # (-6, -4), (1, 3) mod 7; w = f_2[2] = 1 shifts it by q_Y = (4, 3) over F_7
    big, small = make_ring("q"), make_ring("fp:7")
    reduce = _reduction(big, small)
    q, q_small = QuadForm.make(big, 3, 2), QuadForm.make(small, 3, 2)
    f = q.series() + Series2.from_terms(big, [(3, 0, big(1)), (1, 2, big(5))])
    f_small = _series(small, reduce, f)
    mu, nu = solve_linearized_increment(q, f)
    _shift_raw_preimages(monkeypatch)
    assert solve_linearized_increment(q, f) == (mu, nu)  # Q's path is not shifted
    mu_small, nu_small = solve_linearized_increment(q_small, f_small)  # its certificate passes
    assert naive_linearized_increment(q_small, mu_small, nu_small) == f_small
    with pytest.raises(AssertionError, match=r"^mu: coefficient of X\^0\*Y\^1 differs: reduced 1 != 5$"):
        _assert_reduces_to("mu", small, reduce, mu, mu_small)
    with pytest.raises(AssertionError, match=r"^nu: coefficient of X\^0\*Y\^1 differs: "):
        _assert_reduces_to("nu", small, reduce, nu, nu_small)
