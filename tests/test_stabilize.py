import random
from fractions import Fraction
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_unit_disc
from nodal_kit import stabilize
from nodal_kit.mpoly import MPoly, random_poly2
from nodal_kit.normal_form import QuadForm
from nodal_kit.rings import LocalTruncation, PrimeField, Rationals, make_ring
from nodal_kit.stabilize import (
    UnsupportedConfigurationError,
    build_charts,
    chart0_basis_monomials,
    covering_certificate,
    determinant_and_ideal_basis,
    fiber_at_origin,
    flatness_basis_certificate,
    reduce_chart0,
    split_tangent_roots,
)

QQ = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)


class TestBuildCharts:
    def test_numeric_example(self):
        # gamma=3, delta=2, s=t=0: chart 0 relation v(y^2 - 3y + 2)
        chart0, chart1 = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ.zero, QQ.zero)
        v = MPoly.var(QQ, 2, 0)
        y = MPoly.var(QQ, 2, 1)
        assert chart0.relation == v * (y * y - y * QQ(3) + QQ(2))
        u = MPoly.var(QQ, 2, 0)
        x = MPoly.var(QQ, 2, 1)
        assert chart1.relation == u * (x * x * QQ(2) - x * QQ(3) + QQ(1))

    def test_minus_one_delta(self):
        chart0, chart1 = build_charts(QQ, QuadForm.make(QQ, 0, -1), QQ.zero, QQ.zero)
        v = MPoly.var(QQ, 2, 0)
        y = MPoly.var(QQ, 2, 1)
        assert chart0.relation == v * (y * y - QQ.one)
        u = MPoly.var(QQ, 2, 0)
        x = MPoly.var(QQ, 2, 1)
        assert chart1.relation == u * (QQ.one - x * x)

    def test_symbolic_parameters(self):
        # full closed form with symbolic s, t:
        # v(y^2-3y+2) + s(2y-3) + t(-y^2+6y-7)
        loc = make_ring("loc:q:s,t:4")
        s, t = loc.gens
        chart0, chart1 = build_charts(loc, QuadForm.make(loc, 3, 2), s, t)
        v = MPoly.var(loc, 2, 0)
        y = MPoly.var(loc, 2, 1)
        expected = (
            v * (y * y - y * loc(3) + loc(2))
            + (y * loc(2) - loc(3)) * s
            + (-(y * y) + y * loc(6) - loc(7)) * t
        )
        assert chart0.relation == expected

    def test_randomized_elimination_matches(self, rng):
        # build_charts raises on any coefficient drift, so success is the check
        for ring in (F5, F7):
            for _ in range(6):
                g, d = random_unit_disc(ring, rng)
                build_charts(ring, QuadForm.make(ring, g, d), ring.random_element(rng), ring.random_element(rng))

    def test_symbolic_over_prime_field(self):
        loc = LocalTruncation(F7, ("s", "t"), 4)
        s, t = loc.gens
        build_charts(loc, QuadForm.make(loc, 1, 0), s, t)

    def test_degenerate_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            build_charts(QQ, QuadForm.make(QQ, 2, 1), QQ.zero, QQ.zero)


@pytest.mark.parametrize("p", [None, 7, 101], ids=["q", "fp7", "fp101"])
def test_chart_relations_are_the_resultants_of_the_presenting_pairs(p):
    """Each chart relation against sympy's resultant of its presenting pair,
    over QQ and GF(p) at random (gamma, delta, s, t) with a unit
    discriminant.  g0 is monic of degree 1 in u and g1 in v, so the resultant
    eliminating that generator is the other form at its root, up to sign:
    the relation `build_charts` derives (chart 1 after its sign
    normalisation)."""
    sympy = pytest.importorskip("sympy")
    u, v, x, y = sympy.symbols("u v x y")
    ring = QQ if p is None else PrimeField(p)
    domain = sympy.QQ if p is None else sympy.GF(p)
    rnd = random.Random(17 if p is None else p)

    def value():
        return sympy.Rational(rnd.randint(-9, 9), rnd.randint(1, 4) if p is None else 1)

    def lift(c):
        return ring.from_fraction(Fraction(int(c.p), int(c.q)))

    trials = 0
    while trials < 8:
        gamma, delta, s, t = (value() for _ in range(4))
        if domain.convert(4 * delta - gamma**2) == domain.zero:
            continue
        trials += 1
        # the presenting pairs, chart 0 in (u, v, y) and chart 1 in (u, v, x)
        f0 = gamma * u + delta * v + delta * t - (u - s) * y
        g0 = u + s + gamma * t + (v - t) * y
        f1 = (gamma * u + delta * v + delta * t) * x - (u - s)
        g1 = (u + s + gamma * t) * x + (v - t)
        charts = build_charts(ring, QuadForm.make(ring, lift(gamma), lift(delta)), lift(s), lift(t))
        pairs = [(f0, g0, u, (v, y)), (f1, g1, v, (u, x))]
        for chart, (f, g, gen, names) in zip(charts, pairs):
            resultant = sympy.Poly(sympy.resultant(f, g, gen, *names, domain=domain), *names, domain=domain)
            terms = {e: sympy.Rational(str(c)) for e, c in chart.relation.terms_sorted()}
            relation = sympy.Poly.from_dict(terms, *names, domain=domain)
            assert resultant in (relation, -relation), (chart.chart_id, gamma, delta, s, t)


class TestReduceChart0:
    def test_vy2_at_origin(self):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ.zero, QQ.zero)
        out = reduce_chart0(chart0, MPoly.monomial(QQ, (1, 2)))
        v = MPoly.var(QQ, 2, 0)
        y = MPoly.var(QQ, 2, 1)
        assert out == v * y * QQ(3) - v * QQ(2)

    def test_pure_y_fixed(self):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ.zero, QQ.zero)
        y3 = MPoly.monomial(QQ, (0, 3))
        assert reduce_chart0(chart0, y3) == y3

    def test_vy2_general_parameters(self):
        # 3vy - 2v - s(2y-3) - t(-y^2+6y-7)
        loc = make_ring("loc:q:s,t:4")
        s, t = loc.gens
        chart0, _ = build_charts(loc, QuadForm.make(loc, 3, 2), s, t)
        out = reduce_chart0(chart0, MPoly.monomial(loc, (1, 2)))
        v = MPoly.var(loc, 2, 0)
        y = MPoly.var(loc, 2, 1)
        expected = (
            v * y * loc(3)
            - v * loc(2)
            - ((y * loc(2) - loc(3)) * s)
            - ((-(y * y) + y * loc(6) - loc(7)) * t)
        )
        assert out == expected

    def test_normal_forms_have_no_reducible_monomials(self, rng):
        chart0, _ = build_charts(F7, QuadForm.make(F7, 1, 0), F7(2), F7(3))
        for _ in range(20):
            p = _random_poly(F7, rng)
            out = reduce_chart0(chart0, p)
            assert not any(e[0] >= 1 and e[1] >= 2 for e in out.terms)

    def test_confluence_under_random_orders(self, rng):
        chart0, _ = build_charts(F5, QuadForm.make(F5, 1, 0), F5(1), F5(2))
        for _ in range(25):
            p = _random_poly(F5, rng)
            base = reduce_chart0(chart0, p)
            for _ in range(4):
                assert reduce_chart0(chart0, p, rng) == base

    def test_reduction_subtracts_ideal_members(self, rng):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ.one, QQ.zero)
        for _ in range(10):
            h = _random_poly(QQ, rng)
            assert reduce_chart0(chart0, h * chart0.relation).is_zero


def _random_poly(ring, rnd, max_deg=4):
    terms = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1):
            if rnd.random() < 0.3:
                c = ring.random_element(rnd)
                if not c.is_zero:
                    terms[(i, j)] = c
    return MPoly(ring, 2, terms)


class TestFlatnessBasis:
    def test_rational_bound8(self):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ.zero, QQ.zero)
        rec = flatness_basis_certificate(chart0, 8)
        assert rec == {"ok": True, "failures": [], "basis_size": 24}

    def test_symbolic_truncated(self):
        loc = LocalTruncation(F5, ("s", "t"), 3)
        s, t = loc.gens
        chart0, _ = build_charts(loc, QuadForm.make(loc, 1, 0), s, t)
        rec = flatness_basis_certificate(chart0, 6)
        assert rec["ok"]

    def test_degree_one_monomials(self):
        assert chart0_basis_monomials(1) == [(0, 0), (0, 1), (1, 0)]

    def test_nothing_is_divided(self, monkeypatch):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ(1), QQ(4))

        def refuse(*args):
            raise AssertionError("the certificate divides")

        monkeypatch.setattr(stabilize, "reduce_chart0", refuse)
        monkeypatch.setattr(MPoly, "divide", refuse)
        assert flatness_basis_certificate(chart0, 96)["ok"]

    @pytest.mark.parametrize(
        "extra, named",
        [
            ((1, 2), "the relation has the term 2*v*y^2"),
            ((0, 3), "the relation has the term y^3"),
            ((2, 2), "the relation has the term v^2*y^2"),
        ],
        ids=["vy2-coefficient-2", "extra-y3", "extra-degree-4"],
    )
    def test_a_planted_relation_term_is_named(self, extra, named):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ(1), QQ(4))
        bad = replace(chart0, relation=chart0.relation + MPoly.monomial(QQ, extra))
        rec = flatness_basis_certificate(bad, 8)
        assert not rec["ok"]
        assert rec["failures"] == [f"{named}; its only term of degree >= 3 must be v*y^2"]

    def test_a_missing_vy2_term_is_named(self):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ(1), QQ(4))
        bad = replace(chart0, relation=chart0.relation - MPoly.monomial(QQ, (1, 2)))
        assert flatness_basis_certificate(bad, 8)["failures"] == ["the relation has no v*y^2 term"]

    @pytest.mark.parametrize(
        "plant, failure",
        [
            (lambda b, real: sorted(real + [(1, 2)]), "basis monomial 11 is v*y^2, where the normal forms have v^2"),
            (lambda b, real: [e for e in real if e != (0, b)], "basis monomial 8 is v, where the normal forms have y^8"),
            (lambda b, real: real[:-1], "basis monomial 23 is nothing, where the normal forms have v^8"),
            (lambda b, real: real + [real[-1]], "basis monomial 24 is v^8, where the normal forms have nothing"),
        ],
        ids=["adds-vy2", "drops-y^bound", "drops-the-last", "repeats-the-last"],
    )
    def test_a_planted_basis_fault_names_the_first_differing_monomial(self, monkeypatch, plant, failure):
        chart0, _ = build_charts(QQ, QuadForm.make(QQ, 3, 2), QQ(1), QQ(4))
        real = stabilize.chart0_basis_monomials
        monkeypatch.setattr(stabilize, "chart0_basis_monomials", lambda b: plant(b, real(b)))
        rec = flatness_basis_certificate(chart0, 8)
        assert not rec["ok"]
        assert rec["failures"] == [failure]


def _flat_by_division(chart, bound, rng, trials):
    """The sampled route the certificate replaced, kept as its reference:
    random multiples of the relation reduce to zero, and random combinations
    of basis monomials are fixed points, each under a random division order.
    Division refuses a relation whose lex-leading term is not 1 * v*y^2."""
    ring, basis = chart.relation.ring, chart0_basis_monomials(bound)
    try:
        for _ in range(trials):
            h = random_poly2(ring, rng, max_deg=3)
            if not reduce_chart0(chart, h * chart.relation, rng).is_zero:
                return False
            combo = MPoly(ring, 2, {e: ring.random_element(rng) for e in basis if rng.random() < 0.5})
            if reduce_chart0(chart, combo, rng) != combo:
                return False
    except ValueError:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring_desc=st.sampled_from(["q", "fp:7", "loc:q:s,t:3", "dual:q"]),
    bound=st.integers(1, 8),
    lead=st.sampled_from(["closed form", "random"]),
)
def test_the_certificate_agrees_with_the_division_route(seed, ring_desc, bound, lead):
    rnd = random.Random(seed)
    ring = make_ring(ring_desc)
    s, t = ring.random_element(rnd), ring.random_element(rnd)
    chart0, _ = build_charts(ring, QuadForm.make(ring, *random_unit_disc(ring, rnd)), s, t)
    if lead == "random":  # any coefficient at v*y^2, the one both routes must see
        terms = dict(chart0.relation.terms_sorted())
        terms[(1, 2)] = ring.random_element(rnd)
        chart0 = replace(chart0, relation=MPoly(ring, 2, terms))
    certified = flatness_basis_certificate(chart0, bound)["ok"]
    assert certified == _flat_by_division(chart0, bound, rnd, trials=10)
    assert certified == (chart0.relation.coefficient((1, 2)) == ring.one)


class TestCovering:
    def test_constant_term_one(self, rng):
        for ring in (QQ, F5):
            g, d = random_unit_disc(ring, rng)
            q = QuadForm.make(ring, g, d)
            rec = covering_certificate(ring, q, ring.zero, ring.zero, build_charts(ring, q, ring.zero, ring.zero))
            assert rec["ok"]

    def test_solved_u_expression(self):
        q = QuadForm.make(QQ, 3, 2)
        rec = covering_certificate(QQ, q, QQ.one, QQ.zero, build_charts(QQ, q, QQ.one, QQ.zero))
        assert rec["ok"]
        assert rec["u_numerator"] == "1-2*x^2"
        assert rec["u_denominator"] == "1-3*x+2*x^2"

    def test_gluing_with_symbolic_parameters(self):
        loc = make_ring("loc:q:s,t:4")
        s, t = loc.gens
        q = QuadForm.make(loc, 3, 2)
        rec = covering_certificate(loc, q, s, t, build_charts(loc, q, s, t))
        assert rec["ok"]

    def test_a_relation_of_u_degree_two_fails_the_linear_form_check(self):
        q = QuadForm.make(QQ, 3, 2)
        chart0, chart1 = build_charts(QQ, q, QQ.one, QQ.zero)
        bad = replace(chart1, relation=chart1.relation + MPoly.var(QQ, 2, 0, 2))
        rec = covering_certificate(QQ, q, QQ.one, QQ.zero, (chart0, bad))
        assert rec["failures"] == ["chart 1 relation is not linear in u with the expected coefficient, off by u^2"]

    def test_a_constant_term_other_than_1_is_named_with_the_value(self, monkeypatch):
        # the closed form's u coefficient gains 2 after the charts are built:
        # its constant term reads 3 and the relation is off by -2*u
        q = QuadForm.make(QQ, 3, 2)
        charts = build_charts(QQ, q, QQ.one, QQ.zero)
        real = stabilize._chart1_closed_form
        monkeypatch.setattr(stabilize, "_chart1_closed_form", lambda *a: (real(*a)[0] + 2, real(*a)[1]))
        rec = covering_certificate(QQ, q, QQ.one, QQ.zero, charts)
        assert rec["failures"] == [
            "constant term of delta*x^2-gamma*x+1 is 3, not 1",
            "chart 1 relation is not linear in u with the expected coefficient, off by -2*u",
        ]


def _fiber(ring, g, d):
    q = QuadForm.make(ring, g, d)
    return fiber_at_origin(ring, q, build_charts(ring, q, ring.zero, ring.zero))


class TestFiber:
    def test_rational_split(self):
        rep = _fiber(QQ, 3, 2)
        assert rep.ok
        assert set(rep.roots) == {"1", "2"}
        assert len(rep.components) == 3
        assert len(rep.intersection_points) == 2
        assert all(d == "1" for d in rep.transversal_determinants)
        assert rep.lines_disjoint
        assert rep.section_jacobian == "1"

    def test_prime_field_split(self):
        rep = _fiber(F5, 1, 0)
        assert rep.ok
        assert set(rep.roots) == {"0 mod 5", "1 mod 5"}

    def test_plus_minus_one(self):
        rep = _fiber(QQ, 0, -1)
        assert rep.ok
        assert set(rep.roots) == {"1", "-1"}

    def test_a_wrong_root_pair_fails_the_fiber_relation(self, monkeypatch):
        # 1 and 3 are distinct, so every other check still passes
        monkeypatch.setattr(stabilize, "split_tangent_roots", lambda ring, q: [QQ(1), QQ(3)])
        rep = _fiber(QQ, 3, 2)  # y^2 - 3y + 2 = (y - 1)(y - 2)
        assert not rep.ok
        assert rep.lines_disjoint and all(d == "1" for d in rep.transversal_determinants)
        assert rep.failures == ("v*(y-a)*(y-b) = chart-0 relation fails, off by v-v*y",)

    def test_equal_roots_fail_the_relation_and_the_disjointness(self, monkeypatch):
        monkeypatch.setattr(stabilize, "split_tangent_roots", lambda ring, q: [QQ(1), QQ(1)])
        rep = _fiber(QQ, 3, 2)
        assert not rep.ok and not rep.lines_disjoint
        assert rep.failures == (
            "v*(y-a)*(y-b) = chart-0 relation fails, off by -v+v*y",
            "a - b = 0 is not a unit",
        )

    def test_non_split_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            _fiber(QQ, 0, 1)  # y^2 + 1

    def test_degenerate_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            # no charts exist for a zero discriminant; it is refused first
            fiber_at_origin(QQ, QuadForm.make(QQ, 2, 1), (None, None))  # (y-1)^2

    @pytest.mark.parametrize("s, t", [(1, 0), (0, 1), (-3, 1)])
    def test_charts_away_from_the_origin_are_refused(self, s, t):
        q = QuadForm.make(QQ, 3, 2)
        with pytest.raises(ValueError, match="s = t = 0"):
            fiber_at_origin(QQ, q, build_charts(QQ, q, QQ(s), QQ(t)))


class TestTangentRoots:
    @staticmethod
    def _scan(ring, g, d):
        roots = [ring(a) for a in range(ring.p) if (a * a - g * a + d) % ring.p == 0]
        return roots if len(roots) == 2 else None

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
    def test_matches_the_scan_for_every_form(self, p):
        ring = PrimeField(p)
        for g in range(p):
            for d in range(p):
                assert split_tangent_roots(ring, QuadForm.make(ring, g, d)) == self._scan(ring, g, d)

    def test_matches_the_scan_for_random_forms_mod_10007(self):
        ring = PrimeField(10007)
        rnd = random.Random(17)
        for _ in range(200):
            g, d = rnd.randrange(10007), rnd.randrange(10007)
            assert split_tangent_roots(ring, QuadForm.make(ring, g, d)) == self._scan(ring, g, d)


class TestDeterminant:
    def test_values(self):
        rec = determinant_and_ideal_basis(QQ, QuadForm.make(QQ, 3, 2), QQ.one, QQ.zero)
        assert rec["ok"] and rec["determinant"] == "-1"
        rec = determinant_and_ideal_basis(QQ, QuadForm.make(QQ, 0, -1), QQ.zero, QQ.one)
        assert rec["ok"] and rec["determinant"] == "-4"

    def test_symbolic_identity(self):
        sym = LocalTruncation(QQ, ("gamma", "delta"), 4)
        qf = QuadForm.make(sym, sym.gen("gamma"), sym.gen("delta"))
        rec = determinant_and_ideal_basis(sym, qf)
        assert rec["ok"]
        assert rec["determinant"] == "4*delta-gamma^2"

    def test_basis_certificate_with_symbolic_parameters(self):
        loc = make_ring("loc:q:s,t:4")
        s, t = loc.gens
        rec = determinant_and_ideal_basis(loc, QuadForm.make(loc, 1, 0), s, t)
        assert rec["ok"]
        assert rec["basis_certificate"] == "unimodular change of generators verified"

    def test_skipped_when_not_unit(self):
        # 4*delta - gamma^2 = 0 for gamma=2, delta=1
        rec = determinant_and_ideal_basis(QQ, QuadForm.make(QQ, 2, 1), QQ.one, QQ.one)
        assert rec["ok"]
        assert rec["basis_certificate"].startswith("skipped")

    def test_randomized(self, rng):
        for ring in (F5, F7):
            for _ in range(5):
                g, d = random_unit_disc(ring, rng)
                rec = determinant_and_ideal_basis(
                    ring, QuadForm.make(ring, g, d), ring.random_element(rng), ring.random_element(rng)
                )
                assert rec["matches"]
