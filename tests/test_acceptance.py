"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (zero tolerance); run with ``pytest -s`` to see the
per-criterion lines.
"""

import io
import json
import random
from contextlib import contextmanager, redirect_stdout

from conftest import naive_linearized_increment, random_unit_disc, raw_increment_preimage
from nodal_kit import cli
from nodal_kit.dp_ring import DPElem, DPRing, x_power_decompositions
from nodal_kit.mf import (
    build_factorization,
    dual_action,
    dual_quotient_iso,
    hom_pair_space,
    ideal_j_generators,
    two_periodic_exactness,
    witness_identities,
)
from nodal_kit.mpoly import MPoly
from nodal_kit.normal_form import (
    QuadForm,
    normal_form_iteration,
    repair_small_lift,
    solve_linearized_increment,
    square_zero_change,
)
from nodal_kit.reporting import CheckRecord, Report
from nodal_kit.rings import DualNumbers, LocalTruncation, PrimeField, Rationals
from nodal_kit.series import Series2
from nodal_kit.stabilize import (
    build_charts,
    covering_certificate,
    determinant_and_ideal_basis,
    fiber_at_origin,
    flatness_basis_certificate,
    reduce_chart0,
)

QQ = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion-{n}: {label}")
        raise
    print(f"PASS criterion-{n}: {label}")


def _params(ring, rng):
    g, d = random_unit_disc(ring, rng)
    return g, d, ring.random_element(rng), ring.random_element(rng)


def test_criterion_1_matrix_factorization_suite():
    with criterion(1, "matrix factorization identities, exact, 50 prime-field + 10 rational sets"):
        rng = random.Random(101)
        fields = [F5, F7, F101]
        for k in range(50):
            ring = fields[k % 3]
            g, d, s, t = _params(ring, rng)
            dp = DPRing(ring, QuadForm.make(ring, g, d), s, t)
            mfobj = build_factorization(dp)  # verifies the five matrix identities
            assert witness_identities(mfobj)["ok"]
        for _ in range(10):
            g, d, s, t = _params(QQ, rng)
            dp = DPRing(QQ, QuadForm.make(QQ, g, d), s, t)
            mfobj = build_factorization(dp)
            assert witness_identities(mfobj)["ok"]


def test_criterion_2_division_suite():
    with criterion(2, "power-split identities n<=30, 200 canonical round-trips, two routes agree"):
        rng = random.Random(202)
        rings = [F5, F7, QQ, LocalTruncation(F7, ("s", "t"), 4)]
        X_cache = {}
        for k in range(20):
            ring = rings[k % len(rings)]
            g = ring.random_element(rng)
            d = ring.random_element(rng)
            if hasattr(ring, "gens") and not ring.is_field:
                s, t = ring.gens
            else:
                s, t = ring.random_element(rng), ring.random_element(rng)
            dp = DPRing(ring, QuadForm.make(ring, g, d), s, t, degree_bound=34)
            f, gseq, h = x_power_decompositions(dp, 30)  # identity verified per n
            if ring not in X_cache:
                X_cache[ring] = MPoly.var(ring, 2, 0)
            X = X_cache[ring]
            for n in range(2, 31, 7):
                assert dp.reduce(X**n) == DPElem(dp, f[n], gseq[n - 1])
        dp = DPRing(F7, QuadForm.make(F7, 3, 2), F7(1), F7(4), degree_bound=24)
        for _ in range(200):
            a = dp.random_element(rng, degree=5)
            assert dp.reduce(a.expand()) == a
            p = a.expand() + dp.relation * MPoly.monomial(F7, (rng.randrange(3), rng.randrange(3)), F7.random_element(rng))
            elem, mult = dp.reduce_with_multiplier(p)
            assert p == elem.expand() + mult * dp.relation


def test_criterion_3_normal_form_suite():
    with criterion(3, "residual order >= N+2, Cauchy steps, increment right inverse"):
        rng = random.Random(303)
        for idx in range(20):
            ring = QQ if idx % 2 == 0 else F7
            g, d = random_unit_disc(ring, rng)
            q = QuadForm.make(ring, g, d)
            n_steps = 3 + idx % 10  # ranges over 3..12
            terms = []
            for n in range(3, n_steps + 3):
                for i in range(n + 1):
                    if rng.random() < 0.3:
                        terms.append((i, n - i, ring.random_element(rng)))
            f = q.series() + Series2.from_terms(ring, terms)
            steps = normal_form_iteration(f, q, n_steps)
            xs, ys = steps[-1]
            residual = q.apply_series(xs, ys) - f
            assert residual.order_at_least(n_steps + 2)
            for n in range(len(steps) - 1):
                assert (steps[n + 1][0] - steps[n][0]).order_at_least(n + 2)
                assert (steps[n + 1][1] - steps[n][1]).order_at_least(n + 2)
        for ring in (QQ, F7):
            for n in range(9):
                g, d = random_unit_disc(ring, rng)
                q = QuadForm.make(ring, g, d)
                h = Series2(ring, {n + 1: [ring.random_element(rng) for _ in range(n + 2)]})
                mu, nu = solve_linearized_increment(q, h)
                assert naive_linearized_increment(q, mu, nu) == h
                raw = raw_increment_preimage(q, h)
                assert naive_linearized_increment(q, *raw) == h.scale(q.discriminant)


def test_criterion_4_square_zero_suite():
    with criterion(4, "square-zero coordinate identity at precision 10 and exact lift repair"):
        rng = random.Random(404)
        for base in (QQ, F5):
            ring = DualNumbers(base)
            for _ in range(10):
                g, d = random_unit_disc(ring, rng)
                q = QuadForm.make(ring, g, d)
                terms = []
                for n in range(1, 11):
                    for i in range(n + 1):
                        if rng.random() < 0.25:
                            terms.append((i, n - i, ring.random_element(rng)))
                f = Series2.from_terms(ring, terms, precision=10)
                change = square_zero_change(q, ring.eps, f)
                lhs = q.apply_series(change.xs, change.ys).truncated(10)
                rhs = (q.series() + f.scale(ring.eps)).truncated(10)
                assert lhs == rhs
            for _ in range(5):
                g, d = random_unit_disc(ring, rng)
                q = QuadForm.make(ring, g, d)
                terms = [
                    (i, n - i, ring.random_element(rng))
                    for n in range(1, 7)
                    for i in range(n + 1)
                    if rng.random() < 0.3
                ]
                defect = Series2.from_terms(ring, terms, 6).scale(ring.eps)
                u, v = Series2.x(ring), Series2.y(ring)
                s = ring.eps * ring.embed(base.random_element(rng))
                t = ring.eps * ring.embed(base.random_element(rng))
                out = repair_small_lift(q, ring.eps, u, v, s, t, defect)
                # the corrected generators satisfy the presented relation exactly
                q_st = q.value_at(s, t)
                presented = q.series() - Series2.const(ring, q_st) - defect
                new_relation = q.apply_series(out.u, out.v) - Series2.const(ring, q_st)
                assert new_relation == presented


def test_criterion_5_duality_suite():
    with criterion(5, "dual hom space = span{1, fractional generator} at bound 6, quotient iso"):
        rng = random.Random(505)
        for k in range(10):
            ring = F5 if k % 2 == 0 else F7
            g, d, s, t = _params(ring, rng)
            dp = DPRing(ring, QuadForm.make(ring, g, d), s, t, degree_bound=16)
            hom = hom_pair_space(dp, 6)
            assert hom["ok"]
            assert hom["hom_dimension"] == hom["span_dimension"]
            assert hom["span_inside_homs"]
            iso = dual_quotient_iso(dp, hom)
            assert iso["ok"]
            assert iso["injective_kernel_dimension"] == 0
            assert iso["covered_homs"] == iso["total_homs"]
            j1, j2 = ideal_j_generators(dp)
            assert dual_action(dp, j2, dp.zero) == dual_action(dp, dp.zero, j1)


def test_criterion_6_exactness_suite():
    with criterion(6, "two-periodic exactness at bound 6 by the lift, compositions exact"):
        rng = random.Random(606)
        cases = []
        for k in range(10):
            ring = F5 if k % 2 == 0 else F7
            g, d = random_unit_disc(ring, rng)
            if k < 2:
                s, t = ring.zero, ring.zero  # the pointed-node fiber itself
            else:
                s, t = ring.random_element(rng), ring.random_element(rng)
            cases.append((ring, g, d, s, t))
        assert any(s.is_zero and t.is_zero for _, _, _, s, t in cases)
        assert any(not (s.is_zero and t.is_zero) for _, _, _, s, t in cases)
        for ring, g, d, s, t in cases:
            dp = DPRing(ring, QuadForm.make(ring, g, d), s, t, degree_bound=16)
            rec = two_periodic_exactness(build_factorization(dp), 6)
            assert rec["compositions_ok"]
            assert rec["ok"]
            for pos in rec["positions"].values():
                assert pos["kernel_dimension"] == pos["covered"]


def test_criterion_7_chart_suite():
    with criterion(7, "chart eliminations, confluence, flatness basis, covering, determinant"):
        rng = random.Random(707)
        # symbolic parameters in a truncated local ring of order 4
        for base in (QQ, F7):
            loc = LocalTruncation(base, ("s", "t"), 4)
            s, t = loc.gens
            g, d = random_unit_disc(base, rng)
            q = QuadForm.make(loc, loc.embed(g), loc.embed(d))
            charts = build_charts(loc, q, s, t)  # raises on any coefficient drift
            assert covering_certificate(loc, q, s, t, charts)["ok"]
        # ten numeric parameter sets
        for k in range(10):
            ring = (QQ, F5, F7)[k % 3]
            g, d, s, t = _params(ring, rng)
            q = QuadForm.make(ring, g, d)
            charts = build_charts(ring, q, s, t)
            assert covering_certificate(ring, q, s, t, charts)["ok"]
        # confluence on 100 random inputs
        chart0, _ = build_charts(F7, QuadForm.make(F7, 1, 0), F7(2), F7(3))
        for _ in range(100):
            terms = {
                (rng.randrange(4), rng.randrange(4)): F7.random_element(rng)
                for _ in range(5)
            }
            p = MPoly(F7, 2, terms)
            base_nf = reduce_chart0(chart0, p)
            assert reduce_chart0(chart0, p, rng) == base_nf
        # flatness basis through bound 8
        chart0q, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ.zero, QQ.zero)
        assert flatness_basis_certificate(chart0q, 8)["ok"]
        # determinant identity, symbolically and with the basis certificate
        sym = LocalTruncation(QQ, ("gamma", "delta"), 4)
        qsym = QuadForm.make(sym, sym.gen("gamma"), sym.gen("delta"))
        rec = determinant_and_ideal_basis(sym, qsym)
        assert rec["ok"] and rec["determinant"] == "4*delta-gamma^2"
        rec = determinant_and_ideal_basis(QQ, QuadForm.make(QQ, 1, 0), QQ(2), QQ(3))
        assert rec["ok"]
        assert rec["basis_certificate"] == "unimodular change of generators verified"


def test_criterion_8_fiber_suite():
    with criterion(8, "central fiber: three components, transversal points, smooth section"):
        cases = [
            (QQ, 3, 2),
            (F5, 1, 0),
            (QQ, 0, -1),
        ]
        for ring, g, d in cases:
            q = QuadForm.make(ring, g, d)
            rep = fiber_at_origin(ring, q, build_charts(ring, q, ring.zero, ring.zero))
            assert rep.ok
            assert len(rep.components) == 3
            assert len(rep.intersection_points) == 2
            assert all(ring.parse_elem(dd).is_unit for dd in rep.transversal_determinants)
            assert rep.lines_disjoint
            assert ring.parse_elem(rep.section_jacobian).is_unit


def test_criterion_9_cli_determinism(monkeypatch):
    with criterion(9, "byte-identical structured reports and the exit-code contract"):
        argv = [
            "check-all", "--ring", "fp:5", "--gamma", "1", "--delta", "0",
            "--format", "structured",
        ]
        outs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(list(argv))
            assert code == 0
            outs.append(buf.getvalue().encode())
        assert outs[0] == outs[1]
        doc = json.loads(outs[0])
        assert doc["overall"] == "pass" and doc["schema_version"] == 1

        # exit 2 on invalid config
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["factorize", "--ring", "fp:6"]) == 2

        # a failing record maps to exit 1
        failing = Report(
            subcommand="factorize",
            config={},
            records=[CheckRecord(name="x", params={}, passed=False)],
        )
        monkeypatch.setattr(cli, "run", lambda cfg: failing)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(["factorize"]) == 1
