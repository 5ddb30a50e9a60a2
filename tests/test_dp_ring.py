import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dp_basis, dp_vector, mul_kernel_dimension, random_unit_disc
from nodal_kit import dp_ring as dp_ring_module
from nodal_kit.dp_ring import (
    DegreeOverflowError,
    DPRing,
    PowerIdentityError,
    x_power_decompositions,
)
from nodal_kit.mf import _nzd_failure, build_factorization, witness_identities
from nodal_kit.mpoly import MPoly
from nodal_kit.normal_form import QuadForm
from nodal_kit.rings import LocalTruncation, PrimeField, Rationals, make_ring

QQ = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)


def dp_ring(ring, g, d, s, t, bound=16):
    return DPRing(ring, QuadForm.make(ring, g, d), ring(s), ring(t), degree_bound=bound)


class TestReduce:
    def test_x_squared_origin(self):
        dp = dp_ring(QQ, 3, 2, 0, 0)
        X = MPoly.var(QQ, 2, 0)
        elem = dp.reduce(X * X)
        # X^2 = -3XY - 2Y^2 modulo X^2 + 3XY + 2Y^2
        assert elem == dp.element((0, 0, -2), (0, -3))

    def test_y_powers_already_canonical(self):
        dp = dp_ring(QQ, 3, 2, 1, 1)
        for k in range(5):
            yk = MPoly.monomial(QQ, (0, k))
            assert dp.reduce(yk) == dp_basis(dp, k)[2 * k]

    def test_x_squared_general_parameters(self):
        loc = make_ring("loc:q:s,t:4")
        s, t = loc.gens
        dp = DPRing(loc, QuadForm.make(loc, 3, 2), s, t)
        X = MPoly.var(loc, 2, 0)
        elem = dp.reduce(X * X)
        # f = q(s,t) - delta*Y^2, g = -gamma*Y
        q_st = dp.q.value_at(s, t)
        assert elem.fc == (q_st, loc.zero, loc(-2))
        assert elem.gc == (loc.zero, loc(-3))

    def test_division_certificate_on_random_inputs(self, rng):
        dp = dp_ring(F7, 2, 5, 1, 3)
        for _ in range(25):
            terms = {
                (rng.randrange(5), rng.randrange(5)): F7.random_element(rng)
                for _ in range(6)
            }
            p = MPoly(F7, 2, terms)
            elem, h = dp.reduce_with_multiplier(p)
            assert p == elem.expand() + h * dp.relation

    def test_roundtrip_is_identity(self, rng):
        dp = dp_ring(QQ, 1, 0, "1/2", 2)
        for _ in range(20):
            a = dp.random_element(rng, degree=4)
            assert dp.reduce(a.expand()) == a

    def test_degree_overflow(self):
        dp = dp_ring(QQ, 1, 0, 0, 0, bound=3)
        with pytest.raises(DegreeOverflowError):
            dp.reduce(MPoly.monomial(QQ, (0, 9)))


class TestPowerDecompositions:
    def test_base_cases(self):
        dp = dp_ring(QQ, 3, 2, 1, 0)
        f, g, h = x_power_decompositions(dp, 2)
        assert f[1] == () and g[0] == (QQ.one,)  # X = 0 + X*1
        assert f[2] == (dp.q_st, QQ.zero, QQ(-2))  # q(s,t) - delta*Y^2

    def test_explicit_cubic_case(self):
        # gamma=0, delta=-1, s=t=0: f3 = 0, g2 = Y^2, h1 = X,
        # and X^3 = X*Y^2 + X*(X^2 - Y^2)
        dp = dp_ring(QQ, 0, -1, 0, 0)
        f, g, h = x_power_decompositions(dp, 3)
        assert f[3] == ()
        assert g[2] == (QQ.zero, QQ.zero, QQ.one)
        assert h[1] == MPoly.var(QQ, 2, 0)

    def test_identity_verified_across_rings(self, rng):
        # the in-operation verification raises on any failure
        for ring in (QQ, F5, F7):
            for _ in range(3):
                g = ring.random_element(rng)
                d = ring.random_element(rng)
                s = ring.random_element(rng)
                t = ring.random_element(rng)
                dp = DPRing(ring, QuadForm.make(ring, g, d), s, t, degree_bound=20)
                x_power_decompositions(dp, 12)

    def test_agrees_with_division(self, rng):
        dp = dp_ring(F5, 1, 0, 2, 3, bound=20)
        f, g, h = x_power_decompositions(dp, 12)
        X = MPoly.var(F5, 2, 0)
        for n in range(2, 13):
            assert dp.reduce(X**n) == dp.element(f[n], g[n - 1])

    def test_matches_the_multiplied_out_identity(self, rng):
        # the per-n check before it was built incrementally: X^n and
        # h_{n-2} * relation multiplied out as whole polynomials
        loc = LocalTruncation(F7, ("s", "t"), 3)
        for ring in (QQ, F7, loc):
            g, d = ring.random_element(rng), ring.random_element(rng)
            s, t = loc.gens if ring == loc else (ring.random_element(rng), ring.random_element(rng))
            dp = DPRing(ring, QuadForm.make(ring, g, d), s, t, degree_bound=20)
            f, gs, h = x_power_decompositions(dp, 12)
            x = MPoly.var(ring, 2, 0)

            def y_poly(coeffs):
                return MPoly(ring, 2, {(0, j): c for j, c in enumerate(coeffs)})

            for n in range(2, 13):
                assert x**n == y_poly(f[n]) + x * y_poly(gs[n - 1]) + h[n - 2] * dp.relation

    def test_a_wrong_decomposition_raises_at_its_degree(self, monkeypatch):
        # the n-th _uadd call forms g_(n+1); corrupting g_5 and later makes
        # the identity first fail at n = 6, where X*g_5 enters
        real = dp_ring_module._uadd
        calls = []

        def off_by_one(ring, a, b):
            calls.append(None)
            out = real(ring, a, b)
            return (out[0] + 1,) + out[1:] if len(calls) >= 4 else out

        monkeypatch.setattr(dp_ring_module, "_uadd", off_by_one)
        dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
        with pytest.raises(PowerIdentityError, match="at n=6$"):
            x_power_decompositions(dp, 12)

    def test_a_wrong_h_raises_at_its_first_use(self, monkeypatch):
        # the n-th _times_x call forms h_(n+1); corrupting h_4 (and so every
        # later h) makes the identity first fail at n = 6, where h_4 enters
        real = dp_ring_module._times_x
        calls = []

        def off_by_one(poly):
            calls.append(None)
            out = real(poly)
            return out + 1 if len(calls) == 3 else out

        monkeypatch.setattr(dp_ring_module, "_times_x", off_by_one)
        dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
        with pytest.raises(PowerIdentityError, match="at n=6$"):
            x_power_decompositions(dp, 12)

    def test_rejects_tiny_n_max(self):
        dp = dp_ring(QQ, 1, 0, 0, 0)
        with pytest.raises(ValueError):
            x_power_decompositions(dp, 1)

    def test_weight_bound(self):
        # over A = k[s,t]/m^12 every monomial of f_n, g_n, h_n has
        # (variable degree + parameter degree) >= n, for n <= 10
        loc = LocalTruncation(PrimeField(7), ("s", "t"), 12)
        s, t = loc.gens
        dp = DPRing(loc, QuadForm.make(loc, 3, 2), s, t, degree_bound=24)
        f, g, h = x_power_decompositions(dp, 10)

        def min_weight_upoly(coeffs):
            w = None
            for j, c in enumerate(coeffs):
                for e, _ in loc.terms(c):
                    w = min(w, j + sum(e)) if w is not None else j + sum(e)
            return w

        def min_weight_mpoly(p):
            w = None
            for (i, j), c in p.terms.items():
                for e, _ in loc.terms(c):
                    cand = i + j + sum(e)
                    w = min(w, cand) if w is not None else cand
            return w

        for n in range(11):
            for seq, expand in ((f, min_weight_upoly), (g, min_weight_upoly)):
                w = expand(seq[n])
                if w is not None:
                    assert w >= n, f"weight {w} < {n}"
            w = min_weight_mpoly(h[n])
            if w is not None:
                assert w >= n


class TestMul:
    def test_cross_term(self):
        dp = dp_ring(QQ, 3, 2, 1, 0)
        assert dp.v * dp.u == dp.element((), (0, 1))  # X*Y is canonical

    def test_u_squared(self):
        dp = dp_ring(QQ, 3, 2, 1, 0)
        out = dp.u * dp.u
        assert out == dp.element((dp.q_st, QQ.zero, QQ(-2)), (QQ.zero, QQ(-3)))

    def test_one_is_identity(self, rng):
        dp = dp_ring(F7, 1, 0, 2, 0)
        for _ in range(10):
            a = dp.random_element(rng)
            assert dp.one * a == a

    def test_matches_generic_division(self, rng):
        dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
        for _ in range(20):
            a = dp.random_element(rng, degree=3)
            b = dp.random_element(rng, degree=3)
            assert a * b == dp.reduce(a.expand() * b.expand())

    def test_power_up_to_the_degree_bound(self):
        # binary powering never forms a power above the exponent
        dp = dp_ring(F7, 3, 2, 1, 4, bound=13)
        assert dp.v**dp.degree_bound == dp_basis(dp, dp.degree_bound)[-2]
        with pytest.raises(DegreeOverflowError):
            dp.v ** (dp.degree_bound + 1)

    def test_scalar_action_componentwise(self, rng):
        dp = dp_ring(QQ, 1, 0, 2, 3)
        for _ in range(10):
            a = dp.random_element(rng)
            c = QQ.random_element(rng)
            out = a * c
            assert out.fc == tuple(c * x for x in a.fc)
            assert out.gc == tuple(c * x for x in a.gc)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_mul_associative_commutative(seed):
    rnd = random.Random(seed)
    g, d = random_unit_disc(F5, rnd)
    dp = DPRing(F5, QuadForm.make(F5, g, d), F5.random_element(rnd), F5.random_element(rnd), degree_bound=24)
    a = dp.random_element(rnd, degree=2)
    b = dp.random_element(rnd, degree=2)
    c = dp.random_element(rnd, degree=2)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


class TestNonZeroDivisor:
    """v - t = Y - t is monic of Y-degree 1 with no X part, so the closed form
    certifies it; the rank of its multiplication matrix is the reference."""

    def test_rational_case(self):
        dp = dp_ring(QQ, 3, 2, 1, 0)
        vt = dp.v - dp.const(dp.t)
        assert _nzd_failure(vt) is None
        assert mul_kernel_dimension(vt, 6) == 0

    def test_prime_field_case(self):
        dp = dp_ring(F5, 1, 0, 0, 0)
        vt = dp.v - dp.const(dp.t)
        assert _nzd_failure(vt) is None
        assert mul_kernel_dimension(vt, 8) == 0

    def test_constants(self):
        dp = dp_ring(QQ, 1, 0, 0, 0)
        assert mul_kernel_dimension(dp.v, 0) == 0
        # a constant is monic of Y-degree 0, not 1: the closed form does not take it
        assert _nzd_failure(dp.one) == "v-t = 1 is not monic of Y-degree 1 with no X part"

    def test_over_a_truncated_base_no_field_is_needed(self):
        loc = make_ring("loc:q:s,t:3")
        dp = DPRing(loc, QuadForm.make(loc, 3, 2), loc.gens[0], loc.gens[1])
        assert _nzd_failure(dp.v - dp.const(dp.t)) is None
        # no dimension is reported over a base that is not a field
        assert witness_identities(build_factorization(dp)) == {"ok": True, "failures": []}


def test_vectorize_roundtrip(rng):
    dp = dp_ring(F7, 1, 0, 2, 0)
    for _ in range(10):
        a = dp.random_element(rng, degree=4)
        vec = dp_vector(a, 6)
        assert len(vec) == 14
        assert dp.element(vec[0::2], vec[1::2]) == a


def _key_example_tour():
    path = Path(__file__).resolve().parents[1] / "scripts" / "key_example_tour.py"
    spec = importlib.util.spec_from_file_location("key_example_tour", path)
    tour = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tour)
    return tour


def test_the_tour_compares_the_division_and_recursion_routes(monkeypatch, capsys):
    tour = _key_example_tour()
    monkeypatch.setattr(sys, "argv", ["key_example_tour.py"])
    tour.main()
    assert "X^6 = " in capsys.readouterr().out

    real = tour.x_power_decompositions

    def wrong_f4(dp, n_max):
        f, g, h = real(dp, n_max)
        f[4] = (f[4][0] + 1,) + f[4][1:]
        return f, g, h

    monkeypatch.setattr(tour, "x_power_decompositions", wrong_f4)
    with pytest.raises(SystemExit, match=r"^X\^4: the recursion route gives "):
        tour.main()
    assert "X^3 = " in capsys.readouterr().out
