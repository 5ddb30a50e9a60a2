from fractions import Fraction

import pytest

from conftest import random_unit_disc
from nodal_kit import cli
from nodal_kit import dp_ring as dp_ring_module
from nodal_kit import mf as mf_module
from nodal_kit.dp_ring import (
    DegreeOverflowError,
    DPRing,
    mul_columns,
    v_shift_nonzerodivisor,
    vectorize,
)
from nodal_kit.linalg import consistent_many, kernel_basis, rank
from nodal_kit.mf import (
    build_factorization,
    dual_action,
    dual_generator_images,
    dual_quotient_iso,
    hom_pair_space,
    ideal_j_generators,
    mat_eq,
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
    image = _apply_mat(m.alpha, (dp.one, dp.u))
    back = _apply_mat(m.beta, image)
    # beta(alpha(e)) = x * e = 0 in the quotient
    assert back[0].is_zero and back[1].is_zero


def _uncovered_once(monkeypatch):
    """Make the first right-hand side of every coverage check uncovered, and
    record the kernels the exactness check computes."""
    kernels = []

    def recording_kernel(ring, rows, ncols):
        kernels.append(kernel_basis(ring, rows, ncols))
        return kernels[-1]

    def one_uncovered(ring, rows, ncols, rhs_list):
        return [False] + consistent_many(ring, rows, ncols, rhs_list)[1:]

    monkeypatch.setattr(mf_module, "kernel_basis", recording_kernel)
    monkeypatch.setattr(mf_module, "consistent_many", one_uncovered)
    return kernels


def _named(ring, kv):
    return f"[{', '.join(ring.format_elem(c) for c in kv)}]"


def test_exactness_failure_names_the_uncovered_kernel_element(monkeypatch):
    dp = dp_ring(F5, 1, 0, 0, 0, bound=14)
    m = build_factorization(dp)
    kernels = _uncovered_once(monkeypatch)
    rec = two_periodic_exactness(m, 3, 2)
    assert not rec["ok"] and rec["compositions_ok"]
    for (name, pos), ker in zip(rec["positions"].items(), kernels):
        assert pos["covered"] == pos["kernel_dimension"] - 1, name
        (failure,) = pos["failures"]
        assert _named(F5, ker[0]) in failure
        assert "a larger cushion may be needed" in failure


def test_exactness_counterexample_in_the_cli_report(monkeypatch):
    kernels = _uncovered_once(monkeypatch)
    report = cli.run(cli.RunConfig(subcommand="exactness", ring="fp:5", gamma="1", delta="0"))
    records = {r.name: r for r in report.records}
    ring = PrimeField(5)
    # each check runs both positions; the report keeps the at_beta failure
    for name, ker in (("exactness.periodic", kernels[1]), ("exactness.transposed", kernels[3])):
        assert not records[name].passed
        assert _named(ring, ker[0]) in records[name].counterexample
    assert _named(ring, kernels[1][0]) in report.to_json()


def test_quotient_iso_counterexample_names_the_uncovered_hom(monkeypatch):
    real = mf_module.dual_quotient_iso
    seen = []

    def first_hom_uncovered(dp, bound):
        rec = real(dp, bound)
        kernel = hom_pair_space(dp, bound)["kernel"]
        seen.append([dp.ring.format_elem(c) for c in kernel[0]])
        return {**rec, "ok": False, "covered_homs": rec["total_homs"] - 1, "failures": [seen[-1]]}

    monkeypatch.setattr(mf_module, "dual_quotient_iso", first_hom_uncovered)
    report = cli.run(cli.RunConfig(subcommand="dual", ring="fp:5", gamma="1", delta="0", degree_bound=6))
    rec = {r.name: r for r in report.records}["dual.quotient-iso"]
    assert not rec.passed
    assert rec.counterexample == f"1 homs not covered, the first [{', '.join(seen[0])}]"
    assert "mod 5" in rec.counterexample


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
# An element of E = R (+) R is a pair (first, second) of DPElem.


def _pair_vec(pair, bound):
    return vectorize(pair[0], bound) + vectorize(pair[1], bound)


def _unvec(dp, vec, bound):
    return dp.element(vec[: bound + 1], vec[bound + 1 :])


def _pair_unvec(dp, vec, bound):
    half = len(vec) // 2
    return (_unvec(dp, vec[:half], bound), _unvec(dp, vec[half:], bound))


def _pair_basis(dp, bound):
    return [(b, dp.zero) for b in dp.basis(bound)] + [(dp.zero, b) for b in dp.basis(bound)]


def _apply_mat(mat, pair):
    return (
        mat[0][0] * pair[0] + mat[0][1] * pair[1],
        mat[1][0] * pair[0] + mat[1][1] * pair[1],
    )


def _columns_to_rows(cols):
    return [list(row) for row in zip(*cols)] if cols else []


def _ref_exactness_calls(m, bound, cushion, transposed):
    dp = m.dp
    ring = dp.ring
    alpha, beta = m.alpha, m.beta
    if transposed:
        alpha, beta = mat_transpose(alpha), mat_transpose(beta)
    calls = []
    for kmat, imat in ((alpha, beta), (beta, alpha)):
        cols = [_pair_vec(_apply_mat(kmat, b), bound + 2) for b in _pair_basis(dp, bound)]
        calls.append(("kernel_basis", _columns_to_rows(cols), len(cols)))
        ker = kernel_basis(ring, calls[-1][1], len(cols))
        src_bound = bound + cushion
        img_cols = [_pair_vec(_apply_mat(imat, b), src_bound + 2) for b in _pair_basis(dp, src_bound)]
        rhs_list = [_pair_vec(_pair_unvec(dp, kv, bound), src_bound + 2) for kv in ker]
        calls.append(("consistent_many", _columns_to_rows(img_cols), len(img_cols), rhs_list))
    return calls


def _ref_dual_span_map(dp, rho_bound):
    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)
    big = rho_bound + 2
    cols = [_pair_vec((m * j1, m * j2), big) for m in dp.basis(rho_bound)]
    cols.append(_pair_vec((e1, e2), big))
    return cols, big


def _ref_hom_calls(dp, bound):
    """The linalg calls of the hom-space check, its kernel and its containment flag."""
    ring = dp.ring
    us, vt = ideal_j_generators(dp)
    big = bound + 2
    cols = [vectorize(vt * b[0] - us * b[1], big + 1) for b in _pair_basis(dp, bound)]
    calls = [("kernel_basis", _columns_to_rows(cols), len(cols))]
    hom_kernel = kernel_basis(ring, calls[0][1], len(cols))
    span_cols, span_big = _ref_dual_span_map(dp, bound)
    high_rows = [
        [col[part * (span_big + 1) + j] for col in span_cols]
        for part in range(4)
        for j in range(bound + 1, span_big + 1)
    ]
    calls.append(("kernel_basis", high_rows, len(span_cols)))
    span_vecs = []
    for coeffs in kernel_basis(ring, high_rows, len(span_cols)):
        vec = [ring.zero] * (4 * (span_big + 1))
        for c, col in zip(coeffs, span_cols):
            vec = [a + c * b for a, b in zip(vec, col)]
        span_vecs.append(
            [x for part in range(4) for x in vec[part * (span_big + 1) : part * (span_big + 1) + bound + 1]]
        )
    contained = all(
        (vt * p[0] - us * p[1]).is_zero for p in (_pair_unvec(dp, v, bound) for v in span_vecs)
    )
    calls.append(("rank", span_vecs, 4 * (bound + 1)))
    return calls, hom_kernel, contained


def _ref_quotient_iso_calls(dp, bound):
    ring = dp.ring
    _, e2 = dual_generator_images(dp)
    _, j2 = ideal_j_generators(dp)
    big = bound + 3
    cols = [vectorize(e2, big)] + [[-c for c in vectorize(j2 * h, big)] for h in dp.basis(bound + 2)]
    calls = [("kernel_basis", _columns_to_rows(cols), len(cols))]
    hom_calls, hom_kernel, _ = _ref_hom_calls(dp, bound)
    span_cols, span_big = _ref_dual_span_map(dp, bound)
    rhs_list = [_pair_vec(_pair_unvec(dp, kv, bound), span_big) for kv in hom_kernel]
    calls += hom_calls + [("consistent_many", _columns_to_rows(span_cols), len(span_cols), rhs_list)]
    return calls


def _ref_nzd_calls(dp, bound):
    vt = dp.v - dp.const(dp.t)
    cols = [vectorize(vt * b, bound + 1) for b in dp.basis(bound)]
    return [("kernel_basis", _columns_to_rows(cols), len(cols))]


def _recording(monkeypatch):
    """Record every matrix and right-hand side the certificates hand to linalg."""
    calls = []

    def wrap(name, fn):
        def recorded(ring, rows, ncols, *rhs):
            calls.append((name, rows, ncols, *rhs))
            return fn(ring, rows, ncols, *rhs)

        return recorded

    for module, name, fn in (
        (mf_module, "kernel_basis", kernel_basis),
        (mf_module, "consistent_many", consistent_many),
        (mf_module, "rank", rank),
        (dp_ring_module, "kernel_basis", kernel_basis),
    ):
        monkeypatch.setattr(module, name, wrap(name, fn))
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
    "3,2,1/2,4": dict(g=3, d=2, s=Fraction(1, 2), t=4),
}


@pytest.mark.parametrize("coeffs", sorted(COEFFICIENT_SETS))
@pytest.mark.parametrize("descriptor", ["fp:7", "fp:101", "q"])
def test_closed_form_matrices_match_the_dpelem_route(monkeypatch, descriptor, coeffs):
    ring = make_ring(descriptor)
    c = COEFFICIENT_SETS[coeffs]
    dp = dp_ring(ring, c["g"], c["d"], ring.from_fraction(c["s"]), ring.from_fraction(c["t"]), bound=20)
    m = build_factorization(dp)
    calls = _recording(monkeypatch)
    for bound in range(1, 9):
        cushion = 1 + bound % 3
        for transposed in (False, True):
            calls.clear()
            rec = two_periodic_exactness(m, bound, cushion, transposed=transposed)
            assert rec["ok"]
            _assert_same_calls(ring, calls, _ref_exactness_calls(m, bound, cushion, transposed))
        calls.clear()
        rec = hom_pair_space(dp, bound)
        expected, hom_kernel, contained = _ref_hom_calls(dp, bound)
        _assert_same_calls(ring, calls, expected)
        assert rec["kernel"] == hom_kernel and rec["span_inside_homs"] == contained
        calls.clear()
        assert dual_quotient_iso(dp, bound)["ok"]
        _assert_same_calls(ring, calls, _ref_quotient_iso_calls(dp, bound))
        calls.clear()
        assert v_shift_nonzerodivisor(dp, bound)["ok"]
        _assert_same_calls(ring, calls, _ref_nzd_calls(dp, bound))


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
            {i: c.val for i, c in enumerate(vectorize(elem * b, out_bound)) if not c.is_zero}
            for b in dp.basis(bound)
        ]
        assert mul_columns(elem, bound, out_bound) == expected


def test_mul_columns_past_the_output_bound_raise():
    dp = dp_ring(F7, 3, 2, 1, 4, bound=20)
    vt = dp.v - dp.const(dp.t)
    # v - t times Y^3 has degree 4, as does (v - t) * X * Y^3
    with pytest.raises(DegreeOverflowError):
        vectorize(vt * dp.y_power(3), 3)
    with pytest.raises(DegreeOverflowError):
        mul_columns(vt, 3, 3)
    assert len(mul_columns(vt, 3, 4)) == 8
    # u times X * Y^3 is x2f * Y^3 + ..., of degree 5 when delta is nonzero
    with pytest.raises(DegreeOverflowError):
        mul_columns(dp.u, 3, 4)
