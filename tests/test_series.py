import random

import pytest
from hypothesis import given, settings, strategies as st

from nodal_kit.rings import PrimeField, Rationals
from nodal_kit.series import PrecisionError, Series2, SubstitutionError

QQ = Rationals()
F7 = PrimeField(7)


def S(ring, terms, precision=None):
    return Series2.from_terms(ring, [(i, j, ring(c)) for i, j, c in terms], precision)


class TestHomogeneousPart:
    def test_reads_degree_terms(self):
        f = S(QQ, [(2, 0, 1), (1, 1, 3), (0, 3, 1)])
        assert f.homogeneous_part(2) == S(QQ, [(1, 1, 3), (2, 0, 1)])
        assert f.homogeneous_part(1).is_zero

    def test_component_is_exact(self):
        f = S(QQ, [(2, 0, 1), (0, 3, 1)], precision=3)
        assert f.homogeneous_part(2).precision is None
        assert f.homogeneous_part(3) == S(QQ, [(0, 3, 1)])
        assert f.homogeneous_part(1) == Series2.zero(QQ)

    def test_quadratic_form_part(self):
        # gamma = 1, delta = 0: q = X^2 + X*Y
        from nodal_kit.normal_form import QuadForm

        q = QuadForm.make(QQ, 1, 0)
        assert q.series().homogeneous_part(2) == S(QQ, [(2, 0, 1), (1, 1, 1)])

    def test_beyond_precision_raises(self):
        f = S(QQ, [(2, 0, 1)], precision=3)
        with pytest.raises(PrecisionError):
            f.homogeneous_part(4)


class TestOrder:
    def test_plain(self):
        assert S(QQ, [(3, 0, 1), (1, 3, -1)]).order() == 3

    def test_zero_at_precision(self):
        z = Series2.zero(QQ, precision=8)
        assert z.order() is None
        assert z.order_at_least(9)
        assert not z.order_at_least(10)

    def test_coordinate_shift_order_two(self):
        # q(X+Y, Y) - q(X, Y) for gamma=0, delta=-1 expands to 2XY + Y^2
        from nodal_kit.normal_form import QuadForm

        q = QuadForm.make(QQ, 0, -1)
        shifted = q.apply_series(Series2.x(QQ) + Series2.y(QQ), Series2.y(QQ))
        diff = shifted - q.series()
        assert diff == S(QQ, [(1, 1, 2), (0, 2, 1)])
        assert diff.order() == 2


class TestSubstitute:
    def test_binomial(self):
        f = S(QQ, [(2, 0, 1)])
        out = f.substitute(Series2.x(QQ) + Series2.y(QQ), Series2.y(QQ))
        assert out == S(QQ, [(2, 0, 1), (1, 1, 2), (0, 2, 1)])

    def test_half_square_shift(self):
        f = S(QQ, [(2, 0, 1), (0, 2, -1)])
        xs = Series2.x(QQ) + S(QQ, [(2, 0, "1/2")])
        out = f.substitute(xs, Series2.y(QQ)).truncated(4)
        assert out == S(QQ, [(2, 0, 1), (0, 2, -1), (3, 0, 1), (4, 0, "1/4")], precision=4)

    def test_identity(self):
        f = S(F7, [(2, 0, 3), (1, 2, 5), (0, 1, 1)])
        assert f.substitute(Series2.x(F7), Series2.y(F7)) == f

    def test_constant_term_rejected(self):
        f = S(QQ, [(1, 0, 1)])
        with pytest.raises(SubstitutionError):
            f.substitute(Series2.const(QQ, 1), Series2.y(QQ))

    def test_min_precision(self):
        f = S(QQ, [(1, 0, 1)], precision=9)
        xs = Series2.x(QQ).truncated(4)
        assert f.substitute(xs, Series2.y(QQ)).precision == 4


class TestPrecision:
    def test_add_mul_precision(self):
        f = S(QQ, [(1, 0, 1)], precision=3)
        g = S(QQ, [(0, 1, 1)], precision=5)
        assert (f + g).precision == 3
        assert (f * g).precision == 3
        assert (f * S(QQ, [(1, 0, 1)])).precision == 3

    def test_truncated_drops_parts(self):
        f = S(QQ, [(1, 0, 1), (3, 0, 1)])
        t = f.truncated(2)
        assert t.precision == 2 and 3 not in t.parts


def _random_series(ring, rnd, precision, zero_const=True):
    terms = []
    for n in range(0 if not zero_const else 1, precision + 1):
        for i in range(n + 1):
            if rnd.random() < 0.35:
                terms.append((i, n - i, ring.random_element(rnd)))
    return Series2.from_terms(ring, terms, precision)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_substitution_is_ring_homomorphism(seed):
    rnd = random.Random(seed)
    f = _random_series(F7, rnd, 5, zero_const=False)
    g = _random_series(F7, rnd, 5, zero_const=False)
    sx = Series2.x(F7, 5) + _random_series(F7, rnd, 5)
    sy = Series2.y(F7, 5) + _random_series(F7, rnd, 5)
    assert (f + g).substitute(sx, sy) == f.substitute(sx, sy) + g.substitute(sx, sy)
    lhs = (f * g).substitute(sx, sy)
    assert lhs == (f.substitute(sx, sy) * g.substitute(sx, sy)).truncated(lhs.precision)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_substitution_associativity(seed):
    rnd = random.Random(seed)
    f = _random_series(QQ, rnd, 4, zero_const=False)
    sx = Series2.x(QQ, 4) + _random_series(QQ, rnd, 4)
    sy = Series2.y(QQ, 4) + _random_series(QQ, rnd, 4)
    rx = Series2.x(QQ, 4) + _random_series(QQ, rnd, 4)
    ry = Series2.y(QQ, 4) + _random_series(QQ, rnd, 4)
    lhs = f.substitute(sx, sy).substitute(rx, ry)
    rhs = f.substitute(sx.substitute(rx, ry), sy.substitute(rx, ry))
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_order_additivity_over_domains(seed):
    rnd = random.Random(seed)
    for ring in (QQ, F7):
        f = _random_series(ring, rnd, 4, zero_const=False).truncated(None)
        g = _random_series(ring, rnd, 4, zero_const=False).truncated(None)
        f = Series2(ring, f.parts, None)  # exact polynomials
        g = Series2(ring, g.parts, None)
        if f.is_zero or g.is_zero:
            continue
        assert (f * g).order() == f.order() + g.order()


def test_from_triples_literal():
    f = Series2.from_triples(QQ, [[2, 0, "1"], [1, 1, "3"], [0, 3, "1"]])
    assert f == S(QQ, [(2, 0, 1), (1, 1, 3), (0, 3, 1)])


def test_str_merges_signs_and_keeps_the_precision_tail():
    f = S(QQ, [(0, 0, 1), (1, 0, -2), (1, 1, -1), (0, 2, "1/2"), (3, 0, "-3/2")], 4)
    assert str(f) == "1-2*X+1/2*Y^2-X*Y-3/2*X^3 + O(deg>4)"
    assert str(Series2.zero(QQ, 3)) == "0 + O(deg>3)"
    assert str(Series2(QQ, {2: [QQ(-1), QQ.zero, QQ.one]})) == "-Y^2+X^2"

