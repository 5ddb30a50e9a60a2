import pytest

from conftest import random_unit_disc
from nodal_kit.dp_ring import DPRing
from nodal_kit.mf import (
    EPair,
    build_factorization,
    dual_action,
    dual_generator_images,
    dual_quotient_iso,
    hom_pair_space,
    ideal_j_generators,
    mat_eq,
    mat_map,
    mat_mul,
    two_periodic_exactness,
    witness_identities,
)
from nodal_kit.mpoly import MPoly
from nodal_kit.normal_form import DegenerateFormError, QuadForm
from nodal_kit.rings import LocalTruncation, PrimeField, Rationals, make_ring

QQ = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)


def dp_ring(ring, g, d, s, t, bound=16):
    return DPRing(ring, QuadForm.make(ring, g, d), ring(s), ring(t), degree_bound=bound)


class TestBuild:
    def test_plus_minus_one_case(self):
        # gamma=0, delta=-1, s=t=0: phi = [[-Y, X], [-X, Y]], psi = [[Y, -X], [X, -Y]]
        dp = dp_ring(QQ, 0, -1, 0, 0)
        m = build_factorization(dp)
        X = MPoly.var(QQ, 2, 0)
        Y = MPoly.var(QQ, 2, 1)
        assert mat_eq(m.phi, ((-Y, X), (-X, Y)))
        assert mat_eq(m.psi, ((Y, -X), (X, -Y)))
        prod = mat_mul(m.phi, m.psi)
        assert prod[0][0] == dp.relation and prod[0][1].is_zero

    def test_pairing_squares_to_minus_identity(self):
        dp = dp_ring(F5, 1, 0, 0, 0)
        m = build_factorization(dp)
        sq = mat_mul(m.pairing, m.pairing)
        minus_one = MPoly.const(F5, 2, -1)
        assert sq[0][0] == minus_one and sq[1][1] == minus_one
        assert sq[0][1].is_zero and sq[1][0].is_zero

    def test_degenerate_rejected(self):
        dp = dp_ring(QQ, 2, 1, 0, 0)  # discriminant 0
        with pytest.raises(DegenerateFormError):
            build_factorization(dp)

    def test_randomized_identities(self, rng):
        # construction re-verifies phi*psi = psi*phi = x*I and the pairing
        # conjugations; a successful build is the assertion
        for ring in (F5, F7, PrimeField(101)):
            for _ in range(6):
                g, d = random_unit_disc(ring, rng)
                dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rng), ring.random_element(rng))
                build_factorization(dp)
        for _ in range(4):
            g, d = random_unit_disc(QQ, rng)
            dp = DPRing(QQ, QuadForm.make(QQ, g, d), QQ.random_element(rng), QQ.random_element(rng))
            build_factorization(dp)

    def test_over_truncated_base(self):
        loc = LocalTruncation(F7, ("s", "t"), 3)
        s, t = loc.gens
        dp = DPRing(loc, QuadForm.make(loc, 3, 2), s, t)
        m = build_factorization(dp)
        assert witness_identities(m)["ok"]


class TestWitnesses:
    def test_rational_parameters(self):
        dp = dp_ring(QQ, 3, 2, 1, 0)
        rec = witness_identities(build_factorization(dp))
        assert rec["ok"] and rec["nzd_kernel_dimension"] == 0

    def test_collapsed_products(self):
        # j_witness * alpha = [[u-s, -(v-t)], [0, 0]] at s=t=0
        dp = dp_ring(QQ, 0, -1, 0, 0)
        m = build_factorization(dp)
        ka = mat_map(mat_mul(m.j_witness, m.phi), dp.reduce)
        assert ka[0][0] == dp.u and ka[0][1] == -dp.v
        assert ka[1][0].is_zero and ka[1][1].is_zero

    def test_witness_determinants(self):
        dp = dp_ring(F7, 2, 5, 1, 3)
        m = build_factorization(dp)
        det_l = dp.reduce(
            m.k_witness[0][0] * m.k_witness[1][1] - m.k_witness[0][1] * m.k_witness[1][0]
        )
        assert det_l == dp.v - dp.const(dp.t)


class TestDualAction:
    def test_action_on_second_generator(self):
        # eps*(v - t) = u + s + gamma*t
        dp = dp_ring(QQ, 3, 2, 1, 0)
        out = dual_action(dp, dp.zero, dp.one)
        assert out == dp.u + dp.const(QQ.one)  # s + gamma*t = 1

    def test_action_on_first_generator(self):
        # gamma=3, delta=2, s=1, t=0: eps*(u-s) = -(2v + 3u)
        dp = dp_ring(QQ, 3, 2, 1, 0)
        out = dual_action(dp, dp.one, dp.zero)
        assert out == -(dp.v * QQ(2) + dp.u * QQ(3))

    def test_zero(self):
        dp = dp_ring(F5, 1, 0, 0, 0)
        assert dual_action(dp, dp.zero, dp.zero).is_zero

    def test_presentation_independence(self, rng):
        # (u-s)(v-t) has two presentations; the action must agree on them
        for ring in (F5, F7, QQ):
            for _ in range(5):
                g, d = random_unit_disc(ring, rng)
                dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rng), ring.random_element(rng))
                j1, j2 = ideal_j_generators(dp)
                assert dual_action(dp, j2, dp.zero) == dual_action(dp, dp.zero, j1)

    def test_rewrites_inside_ideal(self):
        # the action maps both generators into the quotient ring: check the
        # defining division identities (v-t)*eps(u-s) = (u-s)*eps(v-t) and
        # eps(v-t)*(u-s) = "(u+s+gamma*t)(u-s)" directly
        dp = dp_ring(F7, 1, 0, 2, 3)
        j1, j2 = ideal_j_generators(dp)
        e1, e2 = dual_generator_images(dp)
        assert j2 * e1 == j1 * e2

    def test_fractional_dual_type(self, rng):
        # the two rewriting identities are consistent, the action does not
        # depend on the presentation, and it sends the generators of J to
        # their images under the fractional generator
        for ring in (QQ, F5):
            g, d = random_unit_disc(ring, rng)
            dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rng), ring.random_element(rng))
            e1, e2 = dual_generator_images(dp)
            j1, j2 = ideal_j_generators(dp)
            assert (e2 * j1 + (-e1) * j2).is_zero
            assert dual_action(dp, j2, dp.zero) == dual_action(dp, dp.zero, j1)
            assert dual_action(dp, dp.one, dp.zero) == e1
            assert dual_action(dp, dp.zero, dp.one) == e2


class TestHomSpace:
    def test_dimensions_f5(self):
        dp = dp_ring(F5, 1, 0, 0, 0, bound=14)
        rec = hom_pair_space(dp, 6)
        assert rec["ok"]
        assert rec["hom_dimension"] == rec["span_dimension"]

    def test_dimensions_rational(self):
        dp = dp_ring(QQ, 3, 2, 1, 0, bound=14)
        rec = hom_pair_space(dp, 5)
        assert rec["ok"]

    def test_small_bound(self):
        dp = dp_ring(F5, 1, 0, 0, 0, bound=10)
        rec = hom_pair_space(dp, 1)
        assert rec["ok"]
        # degree <= 1 homs: multiplications by constants plus the fractional
        # generator action
        assert rec["hom_dimension"] == 3

    def test_needs_field(self):
        loc = make_ring("loc:q:s,t:3")
        dp = DPRing(loc, QuadForm.make(loc, 3, 2), loc.gens[0], loc.gens[1])
        with pytest.raises(ValueError):
            hom_pair_space(dp, 4)


class TestQuotientIso:
    def test_rational_case(self):
        dp = dp_ring(QQ, 0, -1, 0, 0, bound=14)
        rec = dual_quotient_iso(dp, 6)
        assert rec["ok"]
        assert rec["injective_kernel_dimension"] == 0
        assert rec["covered_homs"] == rec["total_homs"]

    def test_prime_field_case(self):
        dp = dp_ring(F7, 1, 0, 0, 0, bound=16)
        rec = dual_quotient_iso(dp, 8)
        assert rec["ok"]

    def test_nonzero_parameters(self):
        dp = dp_ring(F7, 3, 2, 1, 1, bound=14)
        rec = dual_quotient_iso(dp, 5)
        assert rec["ok"]


class TestExactness:
    def test_origin_f5(self):
        dp = dp_ring(F5, 1, 0, 0, 0, bound=14)
        rec = two_periodic_exactness(build_factorization(dp), 6, 2)
        assert rec["ok"] and rec["compositions_ok"]
        for pos in rec["positions"].values():
            assert pos["kernel_dimension"] == pos["covered"] > 0

    def test_deformed_f7(self):
        dp = dp_ring(F7, 3, 2, 1, 1, bound=14)
        rec = two_periodic_exactness(build_factorization(dp), 5, 2)
        assert rec["ok"]

    def test_transposed_rows(self, rng):
        for _ in range(3):
            g, d = random_unit_disc(F5, rng)
            dp = DPRing(F5, QuadForm.make(F5, g, d), F5.random_element(rng), F5.random_element(rng), degree_bound=14)
            m = build_factorization(dp)
            assert two_periodic_exactness(m, 4, 2, transposed=True)["ok"]

    def test_composition_vanishes_in_quotient(self):
        dp = dp_ring(F5, 1, 0, 2, 3)
        assert dp.reduce(dp.relation).is_zero


def test_epair_arithmetic_through_matrices():
    dp = dp_ring(F5, 1, 0, 0, 0)
    m = build_factorization(dp)
    from nodal_kit.mf import _apply_mat

    pair = EPair(dp.one, dp.u)
    image = _apply_mat(m.alpha, pair)
    back = _apply_mat(m.beta, image)
    # beta(alpha(e)) = x * e = 0 in the quotient
    assert back.first.is_zero and back.second.is_zero
