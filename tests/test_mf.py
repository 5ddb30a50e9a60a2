import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import dp_basis, dp_vector, mul_kernel_dimension, random_unit_disc
from nodal_kit import cli
from nodal_kit import dp_ring as dp_ring_module
from nodal_kit import linalg
from nodal_kit import mf as mf_module
from nodal_kit.dp_ring import (
    DegreeOverflowError,
    DPRing,
    mul_columns,
)
from nodal_kit.linalg import kernel_basis, rank
from nodal_kit.mf import (
    build_factorization,
    dual_action,
    dual_generator_images,
    dual_quotient_iso,
    hom_pair_space,
    ideal_j_generators,
    mat_map,
    mat_mul,
    mat_transpose,
    two_periodic_exactness,
    witness_identities,
)
from nodal_kit.mpoly import MPoly
from nodal_kit.normal_form import DegenerateFormError, QuadForm
from nodal_kit.rings import LocalTruncation, PrimeField, Rationals, RingElem, make_ring

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
        assert m.phi == ((-Y, X), (-X, Y))
        assert m.psi == ((Y, -X), (X, -Y))
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
        rec = dual_quotient_iso(dp, hom_pair_space(dp, 6))
        assert rec["ok"]
        assert rec["injective_kernel_dimension"] == 0
        assert rec["covered_homs"] == rec["total_homs"]

    def test_prime_field_case(self):
        dp = dp_ring(F7, 1, 0, 0, 0, bound=16)
        rec = dual_quotient_iso(dp, hom_pair_space(dp, 8))
        assert rec["ok"]

    def test_nonzero_parameters(self):
        dp = dp_ring(F7, 3, 2, 1, 1, bound=14)
        rec = dual_quotient_iso(dp, hom_pair_space(dp, 5))
        assert rec["ok"]


class TestExactness:
    def test_origin_f5(self):
        dp = dp_ring(F5, 1, 0, 0, 0, bound=14)
        rec = two_periodic_exactness(build_factorization(dp), 6)
        assert rec["ok"] and rec["compositions_ok"]
        for pos in rec["positions"].values():
            assert pos["kernel_dimension"] == pos["covered"] > 0

    def test_deformed_f7(self):
        dp = dp_ring(F7, 3, 2, 1, 1, bound=14)
        rec = two_periodic_exactness(build_factorization(dp), 5)
        assert rec["ok"]

    def test_transposed_rows(self, rng):
        for _ in range(3):
            g, d = random_unit_disc(F5, rng)
            dp = DPRing(F5, QuadForm.make(F5, g, d), F5.random_element(rng), F5.random_element(rng), degree_bound=14)
            m = build_factorization(dp)
            assert two_periodic_exactness(m, 4, transposed=True)["ok"]

    def test_a_positional_third_argument_raises(self):
        m = build_factorization(dp_ring(F5, 1, 0, 0, 0, bound=14))
        # a stale positional cushion must not be read as `transposed`
        with pytest.raises(TypeError):
            two_periodic_exactness(m, 4, 2)

    def test_composition_vanishes_in_quotient(self):
        dp = dp_ring(F5, 1, 0, 2, 3)
        assert dp.reduce(dp.relation).is_zero


def test_epair_arithmetic_through_matrices():
    dp = dp_ring(F5, 1, 0, 0, 0)
    m = build_factorization(dp)
    image = _apply_mat(m.alpha, (dp.one, dp.u))
    back = _apply_mat(m.beta, image)
    # beta(alpha(e)) = x * e = 0 in the quotient
    assert back[0].is_zero and back[1].is_zero


def _uncovered_once(monkeypatch):
    """Make every rank fall short by one, so that the syzygy map counts one
    hom more than the span and the quotient isomorphism takes the per-vector
    route; make every kernel basis end with that extra "hom", the unit vector
    h(u-s) = 1, h(v-t) = 0, which has no preimage p*(u-s, v-t) + r*eps*(u-s,
    v-t); and record the kernels that route computes."""
    kernels = []

    def short_rank(ring, rows, ncols):
        # ncols - rank(syzygy map) gains one; the span is counted by column degrees
        return rank(ring, rows, ncols) - 1

    def padded_kernel(ring, rows, ncols):
        kernels.append(kernel_basis(ring, rows, ncols) + [[ring.one] + [ring.zero] * (ncols - 1)])
        return kernels[-1]

    monkeypatch.setattr(mf_module, "rank", short_rank)
    monkeypatch.setattr(mf_module, "kernel_basis", padded_kernel)
    return kernels


def _named(ring, kv):
    return f"[{', '.join(ring.format_elem(c) for c in kv)}]"


def _perturbed(m, name, i, j, delta):
    """`m` with `delta` added to entry (i, j) of its matrix `name`."""
    mat = [list(row) for row in getattr(m, name)]
    mat[i][j] = mat[i][j] + delta
    return dataclasses.replace(m, **{name: tuple(map(tuple, mat))})


def test_a_perturbed_phi_entry_fails_exactness_and_names_phi_psi():
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    m = _perturbed(build_factorization(dp), "phi", 0, 0, MPoly.const(F7, 2, 1))
    for transposed in (False, True):
        rec = two_periodic_exactness(m, 5, transposed=transposed)
        assert not rec["ok"] and rec["compositions_ok"]
        # phi*psi gains psi's first row in its first row; psi*phi gains psi's first column
        assert rec["positions"]["at_alpha"]["failures"] == [
            "phi*psi = x*I fails at entry (0, 0), off by 3+Y",
            "phi*psi = x*I fails at entry (0, 1), off by 1+6*X",
            "psi*phi = x*I fails at entry (0, 0), off by 3+Y",
            "psi*phi = x*I fails at entry (1, 0), off by 6+X",
        ]
        # no count is proved, so none is reported, and none is covered
        for pos in rec["positions"].values():
            assert pos["kernel_dimension"] is None and pos["covered"] == 0
        # the fault is real: the per-vector route finds kernel elements with no preimage
        reference = _per_vector_exactness(m, 5, 1, transposed)
        assert reference["at_beta"]["covered"] < reference["at_beta"]["kernel_dimension"]


def test_a_perturbed_phi_entry_is_the_exactness_counterexample_in_the_cli_report(monkeypatch):
    real = build_factorization

    def perturbed(dp):
        # phi*psi gains X*(X - s) at entry (1, 0)
        return _perturbed(real(dp), "phi", 1, 1, MPoly.var(dp.ring, 2, 0))

    monkeypatch.setattr(cli.mf, "build_factorization", perturbed)
    report = cli.run(cli.RunConfig(subcommand="exactness", ring="fp:7", gamma="3", delta="2", s="1", t="4"))
    for r in report.records:
        assert not r.passed
        assert r.counterexample == "phi*psi = x*I fails at entry (1, 0), off by 6*X+X^2"
        assert r.details["at_alpha_covered"] == r.details["at_beta_covered"] == 0
    assert "off by 6*X+X^2" in report.to_json()


def test_a_relation_with_x_squared_coefficient_2_fails_exactness_and_names_the_lead_term(monkeypatch):
    real = build_factorization

    def doubled_lead(dp):
        m = real(dp)
        dp.relation = dp.relation + MPoly.var(dp.ring, 2, 0, 2)
        return m

    monkeypatch.setattr(cli.mf, "build_factorization", doubled_lead)
    report = cli.run(cli.RunConfig(subcommand="exactness", ring="fp:7", gamma="3", delta="2", s="1", t="4"))
    records = {r.name: r for r in report.records}
    for name in ("exactness.periodic", "exactness.transposed"):
        assert not records[name].passed
        assert records[name].counterexample == "ValueError: the relation's lex-leading term is not 1 * x^(2, 0)"


def test_an_entry_of_degree_2_fails_exactness_and_names_the_degree():
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    m = _perturbed(build_factorization(dp), "psi", 1, 0, MPoly.var(F7, 2, 1, 2))
    rec = two_periodic_exactness(m, 4)
    assert not rec["ok"] and rec["compositions_ok"]
    for pos in rec["positions"].values():
        assert pos["failures"][0] == "psi entry (1, 0) has total degree 2 > 1"
        assert any(f.startswith("phi*psi = x*I fails at entry (1, 0)") for f in pos["failures"])
        assert pos["kernel_dimension"] is None and pos["covered"] == 0


def test_dependent_leading_vectors_fail_exactness_and_name_both():
    # with delta = 0, beta's first column (Y-t, X-s) and a planted second
    # column (2Y, gamma*X) both lead with Y in the first component
    dp = dp_ring(F7, 3, 0, 1, 4, bound=20)
    m = build_factorization(dp)
    m = _perturbed(m, "psi", 0, 1, MPoly.var(F7, 2, 1) * F7(2) - m.psi[0][1])
    rec = two_periodic_exactness(m, 5)
    assert not rec["ok"] and rec["compositions_ok"]
    at_alpha, at_beta = rec["positions"]["at_alpha"], rec["positions"]["at_beta"]
    named = "the leading vectors [1, 0, 0, 0] and [2, 0, 0, 0] of beta's columns are dependent"
    assert at_alpha["failures"][-1] == named
    # the planted column breaks psi*phi = x*I too, and that failure is named at both positions
    assert at_alpha["failures"][:-1] == at_beta["failures"]
    assert at_beta["failures"] and all("= x*I fails at entry" in f for f in at_beta["failures"])
    for pos in (at_alpha, at_beta):
        assert pos["kernel_dimension"] is None and pos["covered"] == 0


def test_quotient_iso_counterexample_names_the_uncovered_hom(monkeypatch):
    kernels = _uncovered_once(monkeypatch)
    report = cli.run(cli.RunConfig(subcommand="dual", ring="fp:5", gamma="1", delta="0", degree_bound=6))
    records = {r.name: r for r in report.records}
    hom = records["dual.hom-space"]
    assert not hom.passed
    assert hom.counterexample == (
        f"hom_dimension {hom.details['hom_dimension']} != span_dimension {hom.details['span_dimension']}"
    )
    assert hom.details["hom_dimension"] == hom.details["span_dimension"] + 1
    (homs,) = kernels
    rec = records["dual.quotient-iso"]
    assert not rec.passed
    assert rec.details["total_homs"] == len(homs) and rec.details["covered_homs"] == len(homs) - 1
    assert rec.counterexample == f"1 homs not covered, the first {_named(PrimeField(5), homs[-1])}"
    assert rec.counterexample.startswith("1 homs not covered, the first [1 mod 5, 0 mod 5, ")


def test_a_failed_overlap_identity_takes_the_per_vector_route(monkeypatch):
    real = dual_generator_images

    def shifted(dp):
        e1, e2 = real(dp)
        return e1 + dp.one, e2

    monkeypatch.setattr(mf_module, "dual_generator_images", shifted)
    calls = _recording(monkeypatch)
    report = cli.run(cli.RunConfig(subcommand="dual", ring="fp:7", gamma="3", delta="2", s="1", t="4"))
    records = {r.name: r for r in report.records}
    hom = records["dual.hom-space"]
    # no span count is proved without the overlap identity
    assert not hom.passed and hom.details["span_dimension"] is None
    # the overlap identity is off by (v-t)*1, and the report says so
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    assert hom.counterexample == f"(v-t)*eps(u-s) = (u-s)*eps(v-t) fails, off by {dp.v - dp.const(dp.t)}"
    assert hom.counterexample.endswith("off by 3+Y")
    iso = records["dual.quotient-iso"]
    assert not iso.passed and iso.details["covered_homs"] < iso.details["total_homs"]
    assert iso.details["injective_kernel_dimension"] == 0
    # one rank for the hom space, then the kernel basis of the per-vector route;
    # the preimages and injectivity eliminate nothing
    assert [c[0] for c in calls] == ["rank", "kernel_basis"]
    rec = hom_pair_space(dp, 6)
    assert not rec["span_inside_homs"] and rec["failures"] == [hom.counterexample]


def test_generators_planted_as_their_own_images_fail_the_hom_space_and_name_both_leads(monkeypatch):
    # (e1, e2) = (u-s, v-t): the overlap identity holds, but both columns lead
    # with Y in the second component, and v - t has no X part
    monkeypatch.setattr(mf_module, "dual_generator_images", ideal_j_generators)
    report = cli.run(cli.RunConfig(subcommand="dual", ring="fp:7", gamma="3", delta="2", s="1", t="4"))
    records = {r.name: r for r in report.records}
    hom = records["dual.hom-space"]
    named = "the leading vectors [0, 0, 1, 0] and [0, 0, 1, 0] of (u-s, v-t) and eps*(u-s, v-t) are dependent"
    assert not hom.passed and hom.counterexample == named
    assert hom.details["span_dimension"] is None
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    rec = hom_pair_space(dp, 6)
    assert rec["span_inside_homs"] and rec["span_dimension"] is None
    assert rec["failures"] == [named, "u+s+gamma*t = 3+Y does not have X part 1"]
    iso = records["dual.quotient-iso"]
    assert not iso.passed and iso.counterexample == "u+s+gamma*t = 3+Y does not have X part 1"
    assert iso.details["injective_kernel_dimension"] is None
    assert iso.details["covered_homs"] < iso.details["total_homs"]



def test_an_x_part_other_than_1_is_named_by_both_dual_records(monkeypatch):
    # eps*(v-t) planted as 2u + s + gamma*t: the overlap identity fails too, off by (u-s)*u
    real = dual_generator_images
    monkeypatch.setattr(mf_module, "dual_generator_images", lambda dp: (real(dp)[0], real(dp)[1] + dp.u))
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    named = "u+s+gamma*t = 6+2*X does not have X part 1"
    hom = hom_pair_space(dp, 5)
    assert hom["failures"][1:] == [named] and hom["span_dimension"] is None
    iso = dual_quotient_iso(dp, hom)
    assert iso["failures"][0] == named and iso["injective_kernel_dimension"] is None
    # the homs with h(v-t) free of X keep their preimages; the others lose them
    assert 0 < iso["covered_homs"] < iso["total_homs"] == hom["hom_dimension"]

def test_alpha_and_beta_are_reduced_once_per_factorization(monkeypatch):
    calls = []
    real = DPRing.reduce
    monkeypatch.setattr(DPRing, "reduce", lambda self, poly: calls.append(poly) or real(self, poly))
    report = cli.run(cli.RunConfig(subcommand="exactness", ring="fp:101", degree_bound=22))
    assert all(r.passed for r in report.records)
    # the eight entries of phi and psi once each, and x once in each of the two checks
    assert len(calls) == 10


# --- the DPElem route the certificate matrices were built by before they were
# written in closed form, kept as a differential reference --------------------
#
# An element of E = R (+) R is a pair (first, second) of DPElem; its vector
# interleaves the two degree-major vectors of `dp_vector`, entry i of
# component r at 2i + r, and its basis runs (b, 0), (0, b) over `dp_basis`.


def _pair_vec(pair, bound):
    return [x for entries in zip(dp_vector(pair[0], bound), dp_vector(pair[1], bound)) for x in entries]


def _pair_basis(dp, bound):
    return [pair for b in dp_basis(dp, bound) for pair in ((b, dp.zero), (dp.zero, b))]


def _apply_mat(mat, pair):
    return (
        mat[0][0] * pair[0] + mat[0][1] * pair[1],
        mat[1][0] * pair[0] + mat[1][1] * pair[1],
    )


def _columns_to_rows(cols):
    return [list(row) for row in zip(*cols)] if cols else []


def _ref_dual_span_map(dp, bound):
    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)
    cols = [_pair_vec((m * j1, m * j2), bound + 2) for m in dp_basis(dp, bound)]
    return cols + [_pair_vec((e1, e2), bound + 2)]


def _ref_syzygy_map(dp, bound):
    us, vt = ideal_j_generators(dp)
    return [dp_vector(vt * b[0] - us * b[1], bound + 3) for b in _pair_basis(dp, bound)]


def _ref_hom_calls(dp, bound):
    """The one elimination of the hom space: the rank of the syzygy map."""
    syz_cols = _ref_syzygy_map(dp, bound)
    return [("rank", _columns_to_rows(syz_cols), len(syz_cols))]


def _ref_span_dimension(dp, bound):
    """The span's part of degree <= bound by ranks, rank(span) - rank(span
    rows of degree > bound): the route `hom_pair_space` took before its
    column-degree count, kept as the reference for it."""
    ring = dp.ring
    span_cols = _ref_dual_span_map(dp, bound)
    span_rows = _columns_to_rows(span_cols)
    # the rows of canonical degree > bound: row 2*(2k + x) + r holds degree k
    high = [row for i, row in enumerate(span_rows) if i // 4 > bound]
    return rank(ring, span_rows, len(span_cols)) - rank(ring, high, len(span_cols))


def _solvable(ring, rows, rhs_list):
    """For each right-hand side, whether rows * x = rhs has a solution: the
    matrix keeps its rank when rhs is appended as a column."""
    n = len(rows[0])
    r = rank(ring, rows, n)
    return [rank(ring, [row + [b] for row, b in zip(rows, rhs)], n + 1) == r for rhs in rhs_list]


def _recording(monkeypatch):
    """Record every matrix and right-hand side the certificates hand to linalg:
    each linalg entry point that `mf` or `dp_ring` binds is wrapped."""
    calls = []

    def wrap(name, fn):
        def recorded(ring, rows, ncols, *rhs):
            calls.append((name, rows, ncols, *rhs))
            return fn(ring, rows, ncols, *rhs)

        return recorded

    for module in (mf_module, dp_ring_module):
        for name in ("rref", "rank", "kernel_basis"):
            if vars(module).get(name) is getattr(linalg, name):
                monkeypatch.setattr(module, name, wrap(name, getattr(linalg, name)))
    return calls


def _assert_same_calls(ring, got, expected):
    assert [c[0] for c in got] == [c[0] for c in expected]
    for g, e in zip(got, expected):
        assert g[2] == e[2]  # the column count
        for rows in (g[1], *g[3:]):  # the matrix, then each right-hand side
            for row in rows:
                assert all(isinstance(x, RingElem) and x.ring == ring for x in row)
        assert g[1] == e[1]
        assert g[3:] == e[3:]


COEFFICIENT_SETS = {
    "0,-1": dict(g=0, d=-1, s=0, t=0),
    "1,0,1/2,4": dict(g=1, d=0, s=Fraction(1, 2), t=4),
    "3,2,1/2,4": dict(g=3, d=2, s=Fraction(1, 2), t=4),
}


@pytest.mark.parametrize("coeffs", sorted(COEFFICIENT_SETS))
@pytest.mark.parametrize("descriptor", ["fp:7", "fp:101", "q"])
def test_closed_form_matrices_match_the_dpelem_route(monkeypatch, descriptor, coeffs):
    ring = make_ring(descriptor)
    c = COEFFICIENT_SETS[coeffs]
    dp = dp_ring(ring, c["g"], c["d"], ring.from_fraction(c["s"]), ring.from_fraction(c["t"]), bound=20)
    calls = _recording(monkeypatch)
    for bound in range(1, 9):
        calls.clear()
        assert hom_pair_space(dp, bound)["ok"]
        _assert_same_calls(ring, calls, _ref_hom_calls(dp, bound))


@pytest.mark.parametrize("descriptor", ["fp:2", "fp:3", "fp:7", "fp:101", "q"])
def test_exactness_witnesses_and_injectivity_eliminate_nothing(monkeypatch, rng, descriptor):
    ring = make_ring(descriptor)
    calls = _recording(monkeypatch)
    for g, d in ((ring.one, ring.zero), random_unit_disc(ring, rng)):
        s, t = ring.random_element(rng), ring.random_element(rng)
        dp = DPRing(ring, QuadForm.make(ring, g, d), s, t, degree_bound=20)
        m = build_factorization(dp)
        for bound in (0, 1, 6):
            hom = hom_pair_space(dp, bound)
            assert hom["ok"]
            calls.clear()
            for transposed in (False, True):
                rec = two_periodic_exactness(m, bound, transposed=transposed)
                assert rec["ok"]
                assert [p["kernel_dimension"] for p in rec["positions"].values()] == [2 * bound + d.is_zero] * 2
            wit = witness_identities(m)
            assert wit["ok"] and wit["nzd_kernel_dimension"] == 0
            iso = dual_quotient_iso(dp, hom)
            assert iso["ok"] and iso["injective_kernel_dimension"] == 0
            assert calls == []


def _rank_injective_kernel_dimension(dp, bound):
    """The kernel dimension of (r, h) |-> r*(u+s+gamma*t) - (v-t)*h, for a
    scalar r and h of canonical degree <= bound + 2, read off a rank: the
    route `dual_quotient_iso` took before its closed form, kept as the
    reference for it."""
    ring = dp.ring
    _, e2 = mf_module.dual_generator_images(dp)
    _, j2 = mf_module.ideal_j_generators(dp)
    # degree bound + 3 holds (v-t)*h; one more holds a planted generator with an X part
    big = bound + 4
    cols = mul_columns(e2, 0, big)[:1] + mul_columns(-j2, bound + 2, big)
    return len(cols) - rank(ring, mf_module._dense_rows(ring, cols, 2 * (big + 1)), len(cols))


@pytest.mark.parametrize("coeffs", sorted(COEFFICIENT_SETS))
@pytest.mark.parametrize("descriptor", ["fp:7", "fp:101", "q"])
def test_the_non_zero_divisor_facts_match_the_rank_reference(descriptor, coeffs):
    ring = make_ring(descriptor)
    c = COEFFICIENT_SETS[coeffs]
    dp = dp_ring(ring, c["g"], c["d"], ring.from_fraction(c["s"]), ring.from_fraction(c["t"]), bound=20)
    m = build_factorization(dp)
    vt = dp.v - dp.const(dp.t)
    for bound in range(9):
        assert witness_identities(m)["nzd_kernel_dimension"] == mul_kernel_dimension(vt, bound) == 0
        iso = dual_quotient_iso(dp, hom_pair_space(dp, bound))
        assert iso["injective_kernel_dimension"] == _rank_injective_kernel_dimension(dp, bound) == 0


def test_a_planted_zero_divisor_fails_the_closed_form_and_the_rank_reference_finds_its_kernel(monkeypatch):
    # over F_7 with gamma = 3, delta = 2 and s = t = 0, x = X^2 + 3XY + 2Y^2 = (X+Y)(X+2Y)
    dp = dp_ring(F7, 3, 2, 0, 0, bound=20)
    m = build_factorization(dp)
    hom = hom_pair_space(dp, 4)
    zd = dp.u + dp.v
    assert (zd * (dp.u + dp.v * F7(2))).is_zero
    real = ideal_j_generators
    monkeypatch.setattr(mf_module, "ideal_j_generators", lambda dp: (real(dp)[0], zd))
    named = "v-t = Y+X is not monic of Y-degree 1 with no X part"
    wit = witness_identities(m)
    assert not wit["ok"] and wit["failures"][-1] == named and wit["nzd_kernel_dimension"] is None
    iso = dual_quotient_iso(dp, hom)
    assert not iso["ok"] and iso["failures"] == [named] and iso["injective_kernel_dimension"] is None
    for bound in range(9):
        # the kernel is (X+2Y)*A[Y], of canonical degree >= 1
        assert mul_kernel_dimension(zd, bound) == bound
        assert _rank_injective_kernel_dimension(dp, bound) > 0


@pytest.mark.parametrize("descriptor", ["fp:7", "q"])
def test_mul_columns_match_vectorized_products(rng, descriptor):
    ring = make_ring(descriptor)
    g, d = random_unit_disc(ring, rng)
    dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rng), ring.random_element(rng), degree_bound=20)
    for _ in range(10):
        elem = dp.random_element(rng, degree=rng.randrange(4))
        bound = rng.randrange(6)
        out_bound = bound + 5
        expected = [
            {i: c.val for i, c in enumerate(dp_vector(elem * b, out_bound)) if not c.is_zero}
            for b in dp_basis(dp, bound)
        ]
        assert mul_columns(elem, bound, out_bound) == expected


def test_mul_columns_past_the_output_bound_raise():
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    vt = dp.v - dp.const(dp.t)
    # v - t times Y^3 has degree 4, as does (v - t) * X * Y^3
    with pytest.raises(DegreeOverflowError):
        dp_vector(vt * dp_basis(dp, 3)[6], 3)
    with pytest.raises(DegreeOverflowError):
        mul_columns(vt, 3, 3)
    assert len(mul_columns(vt, 3, 4)) == 8
    # u times X * Y^3 is x2f * Y^3 + ..., of degree 5 when delta is nonzero
    with pytest.raises(DegreeOverflowError):
        mul_columns(dp.u, 3, 4)


@settings(max_examples=40, deadline=None)
@given(
    descriptor=st.sampled_from(["fp:7", "q"]),
    seed=st.integers(0, 10**6),
    shape=st.tuples(st.integers(1, 2), st.integers(1, 2)),
    small=st.integers(0, 4),
    step=st.integers(1, 4),
)
def test_block_columns_at_a_smaller_bound_are_the_leading_columns(descriptor, seed, shape, small, step):
    ring = make_ring(descriptor)
    rnd = random.Random(seed)
    g, d = random_unit_disc(ring, rnd)
    dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rnd), ring.random_element(rnd), degree_bound=20)
    n, m = shape
    # entries a + b*Y + c*X, of the degrees of alpha and beta: both they and
    # their products with u stay within degree 2
    mat = tuple(
        tuple(dp.element([ring.random_element(rnd) for _ in range(2)], [ring.random_element(rnd)]) for _ in range(m))
        for _ in range(n)
    )
    cols = mf_module._block_columns(mat, small, small + 2)
    assert len(cols) == 2 * m * (small + 1)
    assert cols == mf_module._block_columns(mat, small + step, small + step + 2)[: len(cols)]
    assert all(i < 2 * n * (small + 3) for col in cols for i in col)


LIFT_CASES = {
    "fp:7": ((3, 2, 1, 4), 6),
    "q": ((Fraction(3, 7), Fraction(5, 11), Fraction(1, 2), 4), 8),
    "fp:101": ((37, 5, 17, 88), 10),
}


@pytest.mark.parametrize("descriptor", sorted(LIFT_CASES))
def test_the_lift_formula_gives_preimages_of_the_reference_kernels(descriptor):
    """Eisenbud's lift on each vector v of a kernel basis of alpha: phi*lift(v)
    is x*w exactly, for w its X^2 coefficient, of Y-degree <= deg v, and
    beta(w) = v in R; likewise at beta, and for the transposes."""
    ring = make_ring(descriptor)
    coeffs, bound = LIFT_CASES[descriptor]
    g, d, s, t = (ring.from_fraction(Fraction(c)) for c in coeffs)
    dp = dp_ring(ring, g, d, s, t, bound=bound + 4)
    m = build_factorization(dp)
    basis = _pair_basis(dp, bound)
    checked = 0
    for transposed in (False, True):
        phi, psi = (mat_transpose(a) if transposed else a for a in (m.phi, m.psi))
        for kmat, other in ((phi, psi), (psi, phi)):
            cols = [_pair_vec(_apply_mat(mat_map(kmat, dp.reduce), b), bound + 2) for b in basis]
            for kv in kernel_basis(ring, _columns_to_rows(cols), len(cols)):
                v = tuple(sum((c * b[r] for c, b in zip(kv, basis)), dp.zero) for r in (0, 1))
                image = _apply_mat(kmat, tuple(e.expand() for e in v))
                w = tuple(MPoly(ring, 2, {(0, j): c for (i, j), c in p.terms_sorted() if i == 2}) for p in image)
                assert image == tuple(dp.relation * part for part in w)
                assert max(j for part in w for _, j in part.terms) <= max(e.degree() for e in v if not e.is_zero)
                assert tuple(map(dp.reduce, _apply_mat(other, w))) == v
                checked += 1
    # 2*bound kernel vectors at each position, in each orientation
    assert checked == 8 * bound


def test_exactness_builds_no_map(monkeypatch):
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    m = build_factorization(dp)
    calls = []
    for name in ("_block_columns", "mul_columns", "_dense_rows"):
        real = getattr(mf_module, name)
        monkeypatch.setattr(mf_module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    for transposed in (False, True):
        assert two_periodic_exactness(m, 5, transposed=transposed)["ok"]
    assert calls == []


def _per_vector_exactness(m, bound, cushion, transposed):
    """The positions record of the exactness check by a kernel basis and one
    coverage test per kernel vector: each kernel element of degree <= bound
    needs a preimage of degree <= bound + cushion.  The kernel maps are the
    leading blocks of the maps at bound + cushion."""
    ring = m.dp.ring
    alpha, beta = m.alpha, m.beta
    if transposed:
        alpha, beta = mat_transpose(alpha), mat_transpose(beta)
    src_bound = bound + cushion
    alpha_rows, beta_rows = (
        mf_module._dense_rows(ring, mf_module._block_columns(mat, src_bound, src_bound + 2), 4 * (src_bound + 3))
        for mat in (alpha, beta)
    )
    ncols = 4 * (bound + 1)
    positions = {}
    for name, k_rows, img_rows in (("at_alpha", alpha_rows, beta_rows), ("at_beta", beta_rows, alpha_rows)):
        ker = kernel_basis(ring, [row[:ncols] for row in k_rows[: 4 * (bound + 3)]], ncols)
        rhs_list = [kv + [ring.zero] * (len(img_rows) - ncols) for kv in ker]
        covered = sum(_solvable(ring, img_rows, rhs_list))
        positions[name] = {"kernel_dimension": len(ker), "covered": covered, "failures": []}
    return positions


def _unit_disc_form(ring, rnd, form):
    """A (gamma, delta) pair with a unit discriminant, drawn at random, or
    with delta = 0 or gamma = 0 as `form` says."""
    while True:
        g, d = random_unit_disc(ring, rnd)
        g, d = (ring.zero if form == "gamma=0" else g), (ring.zero if form == "delta=0" else d)
        if (g * g - 4 * d).is_unit:
            return g, d


@settings(max_examples=40, deadline=None)
@given(
    descriptor=st.sampled_from(["fp:2", "fp:3", "fp:7", "q"]),
    form=st.sampled_from(["random", "delta=0", "gamma=0"]),
    seed=st.integers(0, 10**6),
    bound=st.integers(0, 8),
    cushion=st.integers(1, 3),
    transposed=st.booleans(),
)
def test_degree_count_matches_the_per_vector_route(descriptor, form, seed, bound, cushion, transposed):
    # over F_2 the discriminant of gamma = 0 is -4*delta = 0
    assume(not (descriptor == "fp:2" and form == "gamma=0"))
    ring = make_ring(descriptor)
    rnd = random.Random(seed)
    g, d = _unit_disc_form(ring, rnd, form)
    dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rnd), ring.random_element(rnd), degree_bound=20)
    m = build_factorization(dp)
    expected = _per_vector_exactness(m, bound, cushion, transposed)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording(mp)
        rec = two_periodic_exactness(m, bound, transposed=transposed)
    assert calls == []
    assert rec["ok"] and rec["positions"] == expected
    assert expected["at_alpha"]["kernel_dimension"] == 2 * bound + d.is_zero


def test_failed_compositions_count_no_kernel_and_cover_none(monkeypatch):
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    m = build_factorization(dp)
    m.alpha, m.beta  # reduced while the relation still reduces to zero
    real = DPRing.reduce
    perturbed = dp.relation + MPoly.const(F7, 2, 1)
    monkeypatch.setattr(DPRing, "reduce", lambda self, poly: real(self, perturbed if poly == self.relation else poly))
    calls = _recording(monkeypatch)
    rec = two_periodic_exactness(m, 5)
    assert not rec["compositions_ok"] and not rec["ok"]
    assert calls == []
    for pos in rec["positions"].values():
        assert pos == {"kernel_dimension": None, "covered": 0, "failures": ["x reduces to 1, not 0"]}


def _per_vector_dual(dp, bound):
    """The dimensions, containment and coverage of the dual checks by the
    route they took before the rank count: a kernel basis of the syzygy map
    (the homs), the span vectors of degree <= bound from a kernel basis of
    the span map's high rows, each tested against the syzygy, and one
    coverage test per hom; on the matrices of the DPElem route."""
    ring = dp.ring
    syz_rows = _columns_to_rows(_ref_syzygy_map(dp, bound))
    ncols = 4 * (bound + 1)
    homs = kernel_basis(ring, syz_rows, ncols)
    span_cols = _ref_dual_span_map(dp, bound)
    span_rows = _columns_to_rows(span_cols)
    high = [row for i, row in enumerate(span_rows) if i // 4 > bound]
    span_vecs = [
        [sum((c * x for c, x in zip(n, row)), ring.zero) for row in span_rows[:ncols]]
        for n in kernel_basis(ring, high, len(span_cols))
    ]
    contained = all(
        all(sum((c * x for c, x in zip(v, row)), ring.zero).is_zero for row in syz_rows) for v in span_vecs
    )
    rhs_list = [h + [ring.zero] * (len(span_rows) - ncols) for h in homs]
    covered = sum(_solvable(ring, span_rows, rhs_list))
    return len(homs), rank(ring, span_vecs, ncols), contained, covered


@settings(max_examples=30, deadline=None)
@given(descriptor=st.sampled_from(["fp:7", "q"]), seed=st.integers(0, 10**6), bound=st.integers(1, 8))
def test_dual_rank_count_matches_the_per_vector_route(descriptor, seed, bound):
    ring = make_ring(descriptor)
    rnd = random.Random(seed)
    g, d = random_unit_disc(ring, rnd)
    dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rnd), ring.random_element(rnd), degree_bound=20)
    hom_dim, span_dim, contained, covered = _per_vector_dual(dp, bound)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording(mp)
        hom = hom_pair_space(dp, bound)
        iso = dual_quotient_iso(dp, hom)
    # the one rank of the hom space; the span and injectivity eliminate nothing
    assert [c[0] for c in calls] == ["rank"]
    assert (hom["hom_dimension"], hom["span_dimension"], hom["span_inside_homs"]) == (hom_dim, span_dim, contained)
    assert hom["ok"] and iso["ok"]
    assert iso["covered_homs"] == iso["total_homs"] == covered == hom_dim


@settings(max_examples=40, deadline=None)
@given(
    descriptor=st.sampled_from(["fp:2", "fp:3", "fp:7", "fp:101", "q"]),
    form=st.sampled_from(["random", "delta=0", "gamma=0"]),
    seed=st.integers(0, 10**6),
    bound=st.integers(0, 8),
)
def test_span_count_by_column_degrees_matches_the_rank_reference(descriptor, form, seed, bound):
    # over F_2 the discriminant of gamma = 0 is -4*delta = 0
    assume(not (descriptor == "fp:2" and form == "gamma=0"))
    ring = make_ring(descriptor)
    rnd = random.Random(seed)
    g, d = _unit_disc_form(ring, rnd, form)
    dp = DPRing(ring, QuadForm.make(ring, g, d), ring.random_element(rnd), ring.random_element(rnd), degree_bound=20)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording(mp)
        maps = []
        real = mf_module._block_columns
        mp.setattr(mf_module, "_block_columns", lambda mat, *args: maps.append(mat) or real(mat, *args))
        hom = hom_pair_space(dp, bound)
        iso = dual_quotient_iso(dp, hom)
    # one rank, on the syzygy map, the one map built
    _assert_same_calls(ring, calls, _ref_hom_calls(dp, bound))
    j1, j2 = ideal_j_generators(dp)
    assert maps == [((j2, -j1),)]
    assert hom["ok"] and iso["ok"]
    assert hom["span_dimension"] == hom["hom_dimension"] == _ref_span_dimension(dp, bound) == 2 * bound + d.is_zero
    # the preimage test of the per-vector route against the rank-based
    # consistency check, on every basis hom and on a random vector
    ncols = 4 * (bound + 1)
    span_rows = _columns_to_rows(_ref_dual_span_map(dp, bound))
    vectors = kernel_basis(ring, hom["syz_rows"], ncols) + [[ring.random_element(rnd) for _ in range(ncols)]]
    padded = [v + [ring.zero] * (len(span_rows) - ncols) for v in vectors]
    assert [mf_module._has_preimage(dp, v) for v in vectors] == _solvable(ring, span_rows, padded)
