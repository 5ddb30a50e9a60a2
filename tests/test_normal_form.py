import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    naive_apply_series,
    naive_linearized_increment,
    perturbed_rows,
    perturbed_step,
    random_unit_disc,
    raw_increment_preimage,
)
from nodal_kit import normal_form, series
from nodal_kit.cli import _final_residual
from nodal_kit.kernels import _product_sums
from nodal_kit.normal_form import (
    CoordChange,
    DegenerateFormError,
    QuadForm,
    normal_form_iteration,
    repair_small_lift,
    solve_linearized_increment,
    square_zero_change,
)
from nodal_kit.rings import PrimeField, Rationals, RingElem, make_ring
from nodal_kit.series import Series2

QQ = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)


def S(ring, terms, precision=None):
    return Series2.from_terms(ring, [(i, j, ring(c)) for i, j, c in terms], precision)


def _random_component(ring, rnd, degree):
    return Series2(ring, {degree: [ring.random_element(rnd) for _ in range(degree + 1)]})


class TestLinearizedIncrement:
    def test_displayed_value(self):
        q = QuadForm.make(QQ, 1, 0)
        out = naive_linearized_increment(q, Series2.const(QQ, 1), Series2.zero(QQ))
        assert out == S(QQ, [(1, 0, 2), (0, 1, 1)])  # 2X + Y

    def test_zero(self):
        q = QuadForm.make(QQ, 3, 2)
        assert naive_linearized_increment(q, Series2.zero(QQ), Series2.zero(QQ)).is_zero

    def test_cubic(self):
        q = QuadForm.make(QQ, 0, -1)
        mu = S(QQ, [(2, 0, 2)])
        out = naive_linearized_increment(q, mu, Series2.zero(QQ))
        assert out == S(QQ, [(3, 0, 4)])

    def test_matches_quadratic_expansion(self, rng):
        # the increment is the part of q(X+mu, Y+nu) - q linear in (mu, nu);
        # the full difference minus it is exactly q(mu, nu)
        for n in range(1, 7):
            g, d = random_unit_disc(F7, rng)
            q = QuadForm.make(F7, g, d)
            mu, nu = _random_component(F7, rng, n), _random_component(F7, rng, n)
            xs = Series2.x(F7) + mu
            ys = Series2.y(F7) + nu
            diff = q.apply_series(xs, ys) - q.series() - naive_linearized_increment(q, mu, nu)
            expected = q.apply_series(mu, nu)
            assert diff == expected
            assert diff.order_at_least(2 * n)


class TestRightInverse:
    def test_cubic_example(self):
        q = QuadForm.make(QQ, 0, -1)  # discriminant 4
        f = S(QQ, [(3, 0, 1)])
        mu, nu = solve_linearized_increment(q, f)
        assert mu == S(QQ, [(2, 0, "1/2")])
        assert nu.is_zero

    def test_linear_example(self):
        q = QuadForm.make(QQ, 1, 0)  # discriminant 1
        f = S(QQ, [(1, 0, 1)])  # X
        mu, nu = solve_linearized_increment(q, f)
        assert mu.is_zero and nu == Series2.const(QQ, 1)

    def test_zero(self):
        q = QuadForm.make(QQ, 3, 2)
        mu, nu = solve_linearized_increment(q, Series2.zero(QQ))
        assert mu.is_zero and nu.is_zero

    def test_right_inverse_property(self, rng):
        for ring in (QQ, F7):
            for n in range(9):
                g, d = random_unit_disc(ring, rng)
                q = QuadForm.make(ring, g, d)
                f = _random_component(ring, rng, n + 1)
                mu, nu = solve_linearized_increment(q, f)
                assert naive_linearized_increment(q, mu, nu) == f
                raw_mu, raw_nu = raw_increment_preimage(q, f)
                assert naive_linearized_increment(q, raw_mu, raw_nu) == f.scale(q.discriminant)

    def test_constant_term_rejected(self):
        q = QuadForm.make(QQ, 0, -1)
        with pytest.raises(ValueError, match="zero constant term"):
            solve_linearized_increment(q, S(QQ, [(0, 0, 1), (1, 0, 1)]))

    def test_degenerate_rejected(self):
        q = QuadForm.make(QQ, 2, 1)  # discriminant 0
        with pytest.raises(DegenerateFormError):
            solve_linearized_increment(q, S(QQ, [(1, 0, 1)]))


class TestNormalFormCoordinates:
    def test_cubic_example(self):
        # f = X^2 - Y^2 + X^3: two steps give x2 = X + X^2/2, residual X^4/4
        q = QuadForm.make(QQ, 0, -1)
        f = S(QQ, [(2, 0, 1), (0, 2, -1), (3, 0, 1)])
        xs, ys = normal_form_iteration(f, q, 2)[-1]
        assert xs == S(QQ, [(1, 0, 1), (2, 0, "1/2")])
        assert ys == Series2.y(QQ)
        residual = q.apply_series(xs, ys) - f
        assert residual == S(QQ, [(4, 0, "1/4")])
        assert residual.order() == 4

    def test_exact_form_is_fixed(self):
        q = QuadForm.make(QQ, 3, 2)
        f = q.series()
        for n in (1, 3, 6):
            xs, ys = normal_form_iteration(f, q, n)[-1]
            assert xs == Series2.x(QQ)
            assert ys == Series2.y(QQ)

    def test_quartic_perturbation(self):
        q = QuadForm.make(QQ, 1, 0)
        f = S(QQ, [(2, 0, 1), (1, 1, 1), (0, 4, 1)])
        xs, ys = normal_form_iteration(f, q, 3)[-1]
        residual = q.apply_series(xs, ys) - f
        assert residual.order_at_least(5)

    def test_randomized_with_cauchy_steps(self, rng):
        for ring in (QQ, F7):
            for _ in range(4):
                g, d = random_unit_disc(ring, rng)
                q = QuadForm.make(ring, g, d)
                n_steps = rng.randint(3, 8)
                terms = []
                for n in range(3, n_steps + 3):
                    for i in range(n + 1):
                        if rng.random() < 0.3:
                            terms.append((i, n - i, ring.random_element(rng)))
                f = q.series() + Series2.from_terms(ring, terms)
                steps = normal_form_iteration(f, q, n_steps)
                xs, ys = steps[-1]
                assert (q.apply_series(xs, ys) - f).order_at_least(n_steps + 2)
                for n in range(len(steps) - 1):
                    dx = steps[n + 1][0] - steps[n][0]
                    dy = steps[n + 1][1] - steps[n][1]
                    assert dx.order_at_least(n + 2)
                    assert dy.order_at_least(n + 2)

    def test_mismatched_quadratic_part_rejected(self):
        q = QuadForm.make(QQ, 0, -1)
        with pytest.raises(ValueError):
            normal_form_iteration(S(QQ, [(2, 0, 1)]), q, 2)

    @pytest.mark.parametrize("term", [(0, 0, 3), (1, 0, 1), (0, 1, -2)])
    def test_low_degree_parts_rejected(self, term):
        q = QuadForm.make(QQ, 1, 0)
        f = S(QQ, [(2, 0, 1), (1, 1, 1), term])
        with pytest.raises(ValueError, match="degree < 2"):
            normal_form_iteration(f, q, 2)


def _full_residual_iteration(f, q, n_steps):
    """Reference for the incremental residual: multiply out all of
    q(x_n, y_n) - f at every step and read its degree-(n+2) part."""
    ring = f.ring
    xs, ys = Series2.x(ring), Series2.y(ring)
    out = [(xs, ys)]
    for n in range(1, n_steps):
        residual = q.apply_series(xs, ys) - f
        eps = residual.homogeneous_part(n + 2)
        mu, nu = solve_linearized_increment(q, eps)
        xs = xs - mu
        ys = ys - nu
        out.append((xs, ys))
    return out


def _random_series_over(q, rnd, top, precision=None, degrees=None):
    """q plus random terms in the given degrees (by default 3 .. top)."""
    ring = q.ring
    terms = [
        (i, n - i, ring.random_element(rnd))
        for n in (range(3, top + 1) if degrees is None else degrees)
        for i in range(n + 1)
        if rnd.random() < 0.4
    ]
    return q.series(precision) + Series2.from_terms(ring, terms, precision)


ITERATION_RINGS = ["q", "fp:7", "dual:q", "loc:q:s,t:3", "dual:loc:q:s,t:2", "loc:fp:7:s:4"]


class TestIncrementalResidual:
    @pytest.mark.parametrize("ring_desc", ITERATION_RINGS)
    @pytest.mark.parametrize("n_steps", range(1, 11))
    def test_matches_the_full_residual_loop(self, ring_desc, n_steps):
        rnd = random.Random(1000 * n_steps + len(ring_desc))
        ring = make_ring(ring_desc)
        q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
        precision = rnd.choice([None, n_steps + 1, n_steps + 2])
        f = _random_series_over(q, rnd, n_steps + 3, precision)
        assert normal_form_iteration(f, q, n_steps) == _full_residual_iteration(f, q, n_steps)

    @pytest.mark.parametrize("ring_desc", ITERATION_RINGS)
    @pytest.mark.parametrize("precision", [None, 9])
    def test_edge_series_match_the_full_residual_loop(self, ring_desc, precision):
        rnd = random.Random(ring_desc)
        ring = make_ring(ring_desc)
        q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
        # f = q: every correction vanishes and each step skips it
        steps = normal_form_iteration(q.series(precision), q, 8)
        assert steps == _full_residual_iteration(q.series(precision), q, 8)
        assert steps == [(Series2.x(ring), Series2.y(ring))] * 8
        # f only in odd degrees: f_top is absent on every other step
        f = _random_series_over(q, rnd, 9, precision, degrees=(3, 5, 7, 9))
        assert all(n % 2 or n == 2 for n in f.parts)
        assert normal_form_iteration(f, q, 8) == _full_residual_iteration(f, q, 8)

    def test_apply_series_matches_the_expansion(self, rng):
        for ring in (QQ, F7, make_ring("dual:q"), make_ring("loc:q:s,t:3"), make_ring("dual:loc:q:s,t:2")):
            q = QuadForm.make(ring, *random_unit_disc(ring, rng))
            for px, py in ((None, None), (5, None), (None, 4), (6, 3)):
                xs = _random_series_over(q, rng, 6, px) + Series2.x(ring)
                ys = _random_series_over(q, rng, 6, py) - Series2.y(ring)
                expanded = xs * xs + xs * ys * q.gamma + ys * ys * q.delta
                assert q.apply_series(xs, ys) == expanded
                for pf in (None, 5, 2):
                    f = _random_series_over(q, rng, 7, pf)
                    assert q.apply_series(xs, ys, f) == expanded - f
            for px, py in ((None, None), (None, 4)):
                zero = Series2.zero(ring, px), Series2.zero(ring, py)
                assert q.apply_series(*zero) == Series2.zero(ring, py)
                assert q.apply_series(*zero, q.series()) == -q.series().truncated(py)

    @pytest.mark.parametrize("ring_desc", ["q", "fp:7", "dual:q"])
    def test_truncated_certificate_agrees_with_the_full_one(self, ring_desc):
        rnd = random.Random(ring_desc)
        ring = make_ring(ring_desc)
        q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
        for n_steps in (3, 6):
            f = _random_series_over(q, rnd, n_steps + 2)
            steps = normal_form_iteration(f, q, n_steps)
            # the last pair certifies order n_steps + 2; the one before it,
            # missing the last correction, falls short of it
            for (xs, ys), verdict in ((steps[-1], True), (steps[-2], False)):
                full = q.apply_series(xs, ys) - f
                truncated = _final_residual(q, f, xs, ys, n_steps)
                assert truncated.precision == n_steps + 2
                assert full.order_at_least(n_steps + 2) is verdict
                assert truncated.order_at_least(n_steps + 2) is verdict
                if not verdict:
                    assert truncated.order() == full.order() == n_steps + 1


def _ring_sums(ring, left, right, outputs):
    """`kernels._product_sums` on vectors of ring elements, each sum a tuple of them."""
    raw = _product_sums(ring, [[c.val for c in v] for v in left], [[c.val for c in v] for v in right], outputs)
    return [tuple([RingElem(ring, x) for x in v]) for v in raw]


def _per_step_iteration(f, q, n_steps):
    """Reference for the two-product step: each step solves for (mu, nu)
    through the certified right inverse, then forms the stored correction
    (-mu, -nu, -(mu + gamma*nu), -delta*nu) by a second product."""
    ring = f.ring
    xs, ys = Series2.x(ring), Series2.y(ring)
    out = [(xs, ys)]
    negated = [(-ring.one,), (-q.gamma,), (-q.delta,)]
    comps = {}
    for n in range(1, n_steps):
        top = n + 2
        degrees = [i for i in comps if top - i in comps]
        left = [comps[i][k] for i in degrees for k in (0, 1)]
        right = [comps[top - i][k] for i in degrees for k in (2, 3)]
        pairs = [(k, k) for k in range(len(left))]
        f_top = f.parts.get(top)
        if f_top:
            pairs.append((len(left), len(right)))
            left.append(f_top)
            right.append(negated[0])
        (eps,) = _ring_sums(ring, left, right, [(top + 1, pairs)])
        mu, nu = solve_linearized_increment(q, Series2(ring, {top: eps}))
        m, v = mu.parts.get(n + 1), nu.parts.get(n + 1)
        if m or v:
            zero = (ring.zero,) * (n + 2)
            comps[n + 1] = _ring_sums(
                ring,
                [m or zero, v or zero],
                negated,
                [(n + 2, [(0, 0)]), (n + 2, [(1, 0)]), (n + 2, [(0, 0), (1, 1)]), (n + 2, [(1, 2)])],
            )
            if m:
                xs = Series2(ring, {**xs.parts, n + 1: comps[n + 1][0]})
            if v:
                ys = Series2(ring, {**ys.parts, n + 1: comps[n + 1][1]})
        out.append((xs, ys))
    return out


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring_desc=st.sampled_from(ITERATION_RINGS),
    n_steps=st.integers(1, 9),
    kind=st.sampled_from(["random", "q", "odd"]),
    exact_f=st.booleans(),
)
def test_two_product_steps_match_the_per_step_right_inverse(seed, ring_desc, n_steps, kind, exact_f):
    rnd = random.Random(seed)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
    precision = None if exact_f else n_steps + 2
    if kind == "q":  # every correction vanishes
        f = q.series(precision)
    elif kind == "odd":  # f_top is absent on every other step
        f = _random_series_over(q, rnd, n_steps + 2, precision, degrees=range(3, n_steps + 3, 2))
    else:
        f = _random_series_over(q, rnd, n_steps + 2, precision)
    got = normal_form_iteration(f, q, n_steps)
    want = _per_step_iteration(f, q, n_steps)
    assert len(got) == len(want) == n_steps
    for (x, y), (xr, yr) in zip(got, want):
        assert _raw(x, y) == _raw(xr, yr)


@pytest.mark.parametrize("gamma,delta", [("3/7", "5/11"), ("3^40", "1")])
@pytest.mark.parametrize("seed", range(4))
def test_tall_coefficients_match_the_per_step_right_inverse(gamma, delta, seed):
    # coefficient heights grow from step to step, and with gamma = 3^40 the
    # corrections' denominators divide powers of the discriminant 3^80 - 4:
    # the images' scale factors and slots widen with them
    rnd = random.Random(seed)
    q = QuadForm.make(QQ, gamma, delta)
    f = _random_series_over(q, rnd, 16)
    got = normal_form_iteration(f, q, 14)
    want = _per_step_iteration(f, q, 14)
    assert [_raw(x, y) for x, y in got] == [_raw(x, y) for x, y in want]


# --- planted faults: the right-inverse identity, certified once per iteration


def _plain_top(q, k):
    """q + X^(k+2) + Y^(k+2): steps before k have nothing to correct, step k
    corrects eps = -(X^(k+2) + Y^(k+2)), with nonzero eps[0] and eps[1:]."""
    ring, top = q.ring, k + 2
    return q.series() + Series2(ring, {top: (ring.one,) + (ring.zero,) * (top - 1) + (ring.one,)})


@pytest.mark.parametrize("ring_desc", ["q", "fp:7", "dual:q"])
@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("row,column", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_wrong_composed_scalar_fails_the_right_inverse_at_its_step(monkeypatch, ring_desc, k, row, column):
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, random.Random(ring_desc)))
    f = _plain_top(q, k)
    normal_form_iteration(f, q, 8)  # sound before the fault is planted
    perturbed_rows(monkeypatch, row, column)
    with pytest.raises(AssertionError, match=rf"^right-inverse identity failed at degree {k + 2} \(internal error\)$"):
        normal_form_iteration(f, q, 8)


@pytest.mark.parametrize("ring_desc", ["q", "fp:7", "dual:q"])
@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("row", [2, 3, 4, 5])
def test_a_wrong_stored_sum_or_polar_scalar_fails_the_final_residual(monkeypatch, ring_desc, row, column):
    # rows 2 and 3 give a + gamma*b and delta*b, and rows 4 and 5 stand for
    # p and r, read off eps (see `perturbed_rows`); all four only feed later
    # residuals: the right inverse solves those faithfully, so the iteration
    # passes its own certificate and q(x, y) - f keeps the fault.  With
    # f = q + X^3 + Y^3, step 1's a + gamma*b and delta*b first enter degree 4
    # (the diagonal term of degree 2), and step 2's p and r degree 5 (against
    # a_2, b_2); step 1's p and r are never read
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, random.Random(ring_desc)))
    f = _plain_top(q, 1)
    assert _final_residual(q, f, *normal_form_iteration(f, q, 8)[-1], 8).order_at_least(10)
    perturbed_rows(monkeypatch, row, column)
    residual = _final_residual(q, f, *normal_form_iteration(f, q, 8)[-1], 8)
    assert residual.order() == (4 if row < 4 else 5)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring_desc=st.sampled_from(["q", "fp:2", "fp:7", "dual:q", "loc:q:s,t:3"]),
    top=st.integers(3, 9),
)
def test_the_polar_vectors_read_off_eps_are_those_of_the_correction(seed, ring_desc, top):
    # p = -eps[1:] and r = (-eps[0], 0, ..., 0) against p = 2a + gamma*b and
    # r = gamma*a + 2*delta*b from the correction (a, b) the rows make of eps
    rnd = random.Random(seed)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
    _, lift, wrap, _ = normal_form._vectors(ring)
    scalars = lift([(s,) for row in normal_form._correction_rows(q, -q.discriminant.inv()) for s in row])
    rows = [scalars[k : k + 2] for k in range(0, len(scalars), 2)]
    (eps,) = lift([[ring.random_element(rnd) for _ in range(top + 1)]])
    a, b = (wrap(normal_form._apply_row(ring, row, eps)) for row in rows[:2])
    p, r = (wrap(v) for v in normal_form._polar(ring, eps))
    assert p == tuple(2 * x + q.gamma * y for x, y in zip(a, b))
    assert r == tuple(q.gamma * x + 2 * q.delta * y for x, y in zip(a, b))


@pytest.mark.parametrize("ring_desc", ["q", "fp:7", "loc:q:s,t:3"])
@pytest.mark.parametrize("k", [1, 4, 7])
@pytest.mark.parametrize("which", [0, 1])
def test_a_wrong_stored_correction_fails_the_right_inverse_at_its_step(monkeypatch, ring_desc, k, which):
    rnd = random.Random(f"{ring_desc}:{k}")
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
    f = _random_series_over(q, rnd, 10)
    perturbed_step(monkeypatch, k, which)
    with pytest.raises(AssertionError, match=rf"^right-inverse identity failed at degree {k + 2} \(internal error\)$"):
        normal_form_iteration(f, q, 8)


@pytest.mark.parametrize("k", [1, 4, 7])
def test_a_stored_correction_changed_only_in_its_denominator_fails_the_right_inverse(monkeypatch, k):
    # f = q + (X^(k+2) + Y^(k+2))/2 with gamma = 3, delta = 2 (d = 1): step k
    # stores a and b over the denominator 2.  Halving both denominators keeps
    # their integers and doubles the correction, so -L(a, b) = 2*eps, whose
    # canonical image has eps's integers over half its denominator: only a
    # certificate that reads den sees the fault
    q = QuadForm.make(QQ, 3, 2)
    half, top = QQ(1) / 2, k + 2
    f = q.series() + Series2(QQ, {top: (half,) + (QQ.zero,) * (top - 1) + (half,)})
    normal_form_iteration(f, q, 8)  # sound before the fault is planted
    real, calls = normal_form._apply_row, []

    def halved(ring, row, v):
        out = real(ring, row, v)
        calls.append(None)
        if len(calls) in (4 * (k - 1) + 1, 4 * (k - 1) + 2):  # a and b of step k
            ints, den, bits = out
            assert den % 2 == 0
            out = (ints, den // 2, bits)
        return out

    monkeypatch.setattr(normal_form, "_apply_row", halved)
    with pytest.raises(AssertionError, match=rf"^right-inverse identity failed at degree {top} \(internal error\)$"):
        normal_form_iteration(f, q, 8)


# --- planted faults: the right-inverse identity, certified on every call of
# solve_linearized_increment


def _from_degree(ring, rnd, n):
    """X^n + Y^n plus random components of degrees n + 1 .. n + 3: f[0] and
    f[1:] are nonzero in degree n, the least degree of the series."""
    parts = {n: (ring.one,) + (ring.zero,) * (n - 1) + (ring.one,)}
    for m in range(n + 1, n + 4):
        parts[m] = [ring.random_element(rnd) for _ in range(m + 1)]
    return Series2(ring, parts)


def _planted_rows(monkeypatch, row, column, change):
    """Make `_correction_rows` return its scalar (row, column) changed by
    `change`: rows 0 and 1 are those of mu and nu, which the solver reads."""
    real = normal_form._correction_rows

    def perturbed(q, c):
        rows = [list(r) for r in real(q, c)]
        rows[row][column] = change(rows[row][column])
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(normal_form, "_correction_rows", perturbed)


@pytest.mark.parametrize("ring_desc", ["q", "fp:7", "dual:q", "loc:q:s,t:3"])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("row,column", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_wrong_preimage_row_fails_the_right_inverse_at_the_least_degree(monkeypatch, ring_desc, n, row, column):
    # the wrong row maps every component wrongly: the identity fails first in
    # f's least degree
    rnd = random.Random(f"{ring_desc}:{n}")
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, 3, 1)  # discriminant 5
    f = _from_degree(ring, rnd, n)
    solve_linearized_increment(q, f)  # sound before the fault is planted
    _planted_rows(monkeypatch, row, column, lambda x: x + 1)
    with pytest.raises(AssertionError, match=rf"^right-inverse identity failed at degree {n} \(internal error\)$"):
        solve_linearized_increment(q, f)


@pytest.mark.parametrize("ring_desc", ["q", "dual:q", "loc:q:s,t:3"])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("row,column", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_a_preimage_row_changed_only_in_its_denominator_fails_the_right_inverse(monkeypatch, ring_desc, n, row, column):
    # at c = 1/5 the rows are (-2/5, 3/5) and (3/5, -2/5); one scalar's raw
    # value keeps its numerators over 7 times its denominator, still in
    # lowest terms.  Over F_p a raw value has no denominator to change
    rnd = random.Random(f"{ring_desc}:{n}")
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, 3, 1)
    f = _from_degree(ring, rnd, n)
    solve_linearized_increment(q, f)
    _planted_rows(monkeypatch, row, column, lambda x: RingElem(ring, (*x.val[:-1], 7 * x.val[-1])))
    with pytest.raises(AssertionError, match=rf"^right-inverse identity failed at degree {n} \(internal error\)$"):
        solve_linearized_increment(q, f)


@pytest.mark.parametrize("n_steps", range(1, 9))
def test_each_step_makes_one_packed_product_and_the_iteration_one_certificate(monkeypatch, n_steps):
    # over Q the steps and the certificate run on images, through
    # _packed_sums; over F_p and the composite rings on raw values, through
    # _product_sums; neither makes a Series2 product, and the rows of a
    # step are applied in place, with no kernel call
    calls = {"_packed_sums": 0, "_product_sums": 0, "solve_linearized_increment": 0}
    kernels = {"_product_sums": 0}
    for module, name, counts in [(normal_form, name, calls) for name in calls] + [(series, "_product_sums", kernels)]:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, _counts=counts):
            _counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    rnd = random.Random(n_steps)
    for ring_desc, kernel in (("q", "_packed_sums"), ("fp:7", "_product_sums"), ("loc:q:s,t:3", "_product_sums")):
        ring = make_ring(ring_desc)
        q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
        for f in (_random_series_over(q, rnd, n_steps + 2), q.series()):
            for counts in (calls, kernels):
                for name in counts:
                    counts[name] = 0
            normal_form_iteration(f, q, n_steps)
            want = dict.fromkeys(calls, 0)
            want[kernel] = (n_steps - 1) + 1
            assert calls == want
            assert kernels == {"_product_sums": 0}


def _series_residual(q, f, xs, ys, n_steps):
    """Reference for the packed `_final_residual`: q(x, y) - f as
    x*(x + gamma*y) + (delta*y)*y - f by `Series2` products, with x and y cut
    to degree n_steps + 2."""
    top = n_steps + 2
    xs, ys = xs.truncated(top), ys.truncated(top)
    return xs * (xs + ys.scale(q.gamma)) + ys.scale(q.delta) * ys - f


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring_desc=st.sampled_from(["q", "fp:7", "dual:q", "loc:q:s,t:3", "dual:loc:q:s,t:2"]),
    n_steps=st.integers(1, 7),
    exact_f=st.booleans(),
    above=st.sampled_from([None, "exact", "finite"]),
)
def test_packed_final_residual_matches_the_series_products(seed, ring_desc, n_steps, exact_f, above):
    rnd = random.Random(seed)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
    top = n_steps + 2
    f = _random_series_over(q, rnd, top + 2, None if exact_f else top)
    # any step, so that the residual need not reach order top
    xs, ys = rnd.choice(normal_form_iteration(f, q, n_steps))
    if above is not None:
        # random components above top, known (or not) beyond it
        precision = None if above == "exact" else top + 3
        extra = [_random_series_over(q, rnd, top + 3, precision, range(top + 1, top + 4)) - q.series() for _ in "xy"]
        xs, ys = xs + extra[0], ys + extra[1]
    got = _final_residual(q, f, xs, ys, n_steps)
    want = _series_residual(q, f, xs, ys, n_steps)
    assert got.precision == want.precision == top
    assert got.parts == want.parts


class TestSquareZeroChange:
    def test_x_squared_example(self):
        # q = X^2 - Y^2, tau = eps, f = X^2: mu = X/2, nu = 0
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        f = S(dq, [(2, 0, 1)])
        change = square_zero_change(q, dq.eps, f)
        half_eps = dq.eps * dq.parse_elem("1/2")
        assert change.xs == Series2.x(dq) + Series2.from_terms(dq, [(1, 0, half_eps)])
        assert change.ys == Series2.y(dq)
        assert q.apply_series(change.xs, change.ys) == q.series() + f.scale(dq.eps)

    def test_zero_series_gives_identity(self):
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 1, 0)
        change = square_zero_change(q, dq.eps, Series2.zero(dq))
        assert change.xs == Series2.x(dq) and change.ys == Series2.y(dq)

    def test_pure_y_square(self):
        # q with gamma=1, delta=0, f = Y^2: mu = Y, nu = -2Y
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 1, 0)
        f = S(dq, [(0, 2, 1)])
        change = square_zero_change(q, dq.eps, f)
        assert change.xs == Series2.x(dq) + Series2.from_terms(dq, [(0, 1, dq.eps)])
        assert change.ys == Series2.y(dq) + Series2.from_terms(dq, [(0, 1, -2 * dq.eps)])
        assert q.apply_series(change.xs, change.ys) == q.series() + f.scale(dq.eps)

    @pytest.mark.parametrize("ring_desc", ["dual:q", "dual:fp:5"])
    def test_randomized_identity(self, ring_desc, rng):
        ring = make_ring(ring_desc)
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
            lhs = q.apply_series(change.xs, change.ys)
            rhs = (q.series() + f.scale(ring.eps)).truncated(10)
            assert lhs.truncated(10) == rhs

    def test_tau_must_square_to_zero(self):
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        with pytest.raises(ValueError):
            square_zero_change(q, dq.one, Series2.zero(dq))

    def test_constant_term_rejected(self):
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        with pytest.raises(ValueError, match="zero constant term"):
            square_zero_change(q, dq.eps, S(dq, [(0, 0, 1), (2, 0, 1)]))


class TestRepairSmallLift:
    def test_zero_defect_returns_input(self):
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        u, v = Series2.x(dq), Series2.y(dq)
        out = repair_small_lift(q, dq.eps, u, v, dq.zero, dq.zero, Series2.zero(dq))
        assert out.u == u and out.v == v

    def test_corrected_generators_satisfy_presented_relation(self):
        # presentation: q(X,Y) - q(s,t) = defect in S; after repair the
        # corrected generators satisfy the pure double-point relation
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        defect = S(dq, [(2, 0, dq.eps)])  # eps * X^2
        u, v = Series2.x(dq), Series2.y(dq)
        out = repair_small_lift(q, dq.eps, u, v, dq.zero, dq.zero, defect)
        presented = q.series() - defect  # q(s,t) = 0 here
        assert q.apply_series(out.u, out.v) == presented
        half_eps = dq.eps * dq.parse_elem("1/2")
        assert out.u == Series2.x(dq) - Series2.from_terms(dq, [(1, 0, half_eps)])

    def test_cross_term_defect_over_f5(self):
        # gamma=1, delta=0 over F5[eps], defect eps*X*Y
        d5 = make_ring("dual:fp:5")
        q = QuadForm.make(d5, 1, 0)
        defect = S(d5, [(1, 1, d5.eps)])
        out = repair_small_lift(
            q, d5.eps, Series2.x(d5), Series2.y(d5), d5.zero, d5.zero, defect
        )
        assert q.apply_series(out.u, out.v) == q.series() - defect

    @pytest.mark.parametrize("ring_desc", ["dual:q", "dual:fp:5"])
    def test_randomized_repair(self, ring_desc, rng):
        ring = make_ring(ring_desc)
        base = ring.base
        for _ in range(8):
            g, d = random_unit_disc(ring, rng)
            q = QuadForm.make(ring, g, d)
            terms = []
            for n in range(1, 7):
                for i in range(n + 1):
                    if rng.random() < 0.3:
                        terms.append((i, n - i, ring.random_element(rng)))
            def eps_mult():
                return ring.eps * ring.embed(base.random_element(rng))

            defect = Series2.from_terms(ring, terms, 6).scale(ring.eps)
            pert = [(1, 0, eps_mult()), (0, 2, eps_mult())]
            u = Series2.x(ring) + Series2.from_terms(ring, pert, 6)
            v = Series2.y(ring) + Series2.from_terms(ring, [(0, 1, eps_mult())], 6)
            s = eps_mult()
            t = eps_mult()
            out = repair_small_lift(q, ring.eps, u, v, s, t, defect)
            assert q.apply_series(out.u, out.v) == q.apply_series(u, v) - defect
            assert out.s == s and out.t == t

    def test_defect_with_constant_term_rejected(self):
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        bad = Series2.const(dq, dq.eps)
        with pytest.raises(ValueError):
            repair_small_lift(q, dq.eps, Series2.x(dq), Series2.y(dq), dq.zero, dq.zero, bad)

    def test_defect_not_divisible_rejected(self):
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        bad = S(dq, [(1, 0, 1)])  # X, not a multiple of eps
        with pytest.raises(ValueError):
            repair_small_lift(q, dq.eps, Series2.x(dq), Series2.y(dq), dq.zero, dq.zero, bad)

    def test_tau_times_s_must_vanish(self):
        dq = make_ring("dual:q")
        q = QuadForm.make(dq, 0, -1)
        with pytest.raises(ValueError):
            repair_small_lift(
                q, dq.eps, Series2.x(dq), Series2.y(dq), dq.one, dq.zero, Series2.zero(dq)
            )


class TestCoordChange:
    def test_linear_part_must_be_invertible(self):
        with pytest.raises(ValueError):
            CoordChange(Series2.x(QQ), Series2.x(QQ))

    def test_nilpotent_constant_allowed(self):
        dq = make_ring("dual:q")
        xs = Series2.x(dq) + Series2.const(dq, dq.eps)
        CoordChange(xs, Series2.y(dq))  # does not raise

    def test_unit_constant_rejected(self):
        with pytest.raises(ValueError):
            CoordChange(Series2.x(QQ) + Series2.const(QQ, 1), Series2.y(QQ))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
def test_increment_preimage_identity_property(seed, n):
    rnd = random.Random(seed)
    g, d = random_unit_disc(F5, rnd)
    q = QuadForm.make(F5, g, d)
    f = _random_component(F5, rnd, n + 1)
    mu, nu = solve_linearized_increment(q, f)
    assert naive_linearized_increment(q, mu, nu) == f


def test_increment_split_rule():
    # each component splits as X*u + Y*v: the pure-Y monomial feeds v, the
    # rest feed u; the raw preimage is mu = -2*delta*u + gamma*v,
    # nu = gamma*u - 2*v
    f = S(QQ, [(0, 3, 7), (1, 2, 5), (2, 1, 3), (3, 0, 2)])
    u = S(QQ, [(0, 2, 5), (1, 1, 3), (2, 0, 2)])
    v = S(QQ, [(0, 2, 7)])
    q = QuadForm.make(QQ, 0, -1)
    assert raw_increment_preimage(q, f) == (u.scale(2), v.scale(-2))
    q = QuadForm.make(QQ, 1, 0)
    assert raw_increment_preimage(q, f) == (v, u - v.scale(2))
    assert naive_linearized_increment(q, *raw_increment_preimage(q, f)) == f.scale(q.discriminant)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring_desc=st.sampled_from(["q", "fp:7", "dual:q"]),
    precision=st.one_of(st.none(), st.integers(1, 8)),
)
def test_right_inverse_of_a_series_is_the_sum_over_components(seed, ring_desc, precision):
    rnd = random.Random(seed)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
    top = 8 if precision is None else precision
    terms = [
        (i, n - i, ring.random_element(rnd))
        for n in range(1, top + 1)
        for i in range(n + 1)
        if rnd.random() < 0.4
    ]
    f = Series2.from_terms(ring, terms, precision)
    mu, nu = solve_linearized_increment(q, f)
    assert naive_linearized_increment(q, mu, nu) == f
    assert mu.precision == nu.precision == f.precision
    mu_sum, nu_sum = Series2.zero(ring, precision), Series2.zero(ring, precision)
    for n in range(1, top + 1):
        mu_n, nu_n = solve_linearized_increment(q, f.homogeneous_part(n))
        mu_sum, nu_sum = mu_sum + mu_n, nu_sum + nu_n
    assert (mu, nu) == (mu_sum, nu_sum)


# --- the shift-based increment and the u/v-split preimage the packed kernel
# replaced, kept as references ------------------------------------------------


def _shifted_increment(q, mu, nu):
    """(2*mu + gamma*nu)*X + (gamma*mu + 2*delta*nu)*Y through scaled, shifted
    and added series; degree n+1 above the lesser precision P of mu, nu is dropped."""
    left = mu.scale(2) + nu.scale(q.gamma)
    right = mu.scale(q.gamma) + nu.scale(2 * q.delta)
    zero = (q.ring.zero,)
    times_x = Series2(q.ring, {n + 1: zero + v for n, v in left.parts.items()}, left.precision)
    times_y = Series2(q.ring, {n + 1: v + zero for n, v in right.parts.items()}, right.precision)
    return times_x + times_y


def _split_preimage(q, f, c=1):
    """Split each f_n as X*u + Y*v (the pure-Y monomial feeds v, the rest u),
    then mu = c*(-2*delta*u + gamma*v) and nu = c*(gamma*u - 2*v)."""
    if 0 in f.parts:
        raise ValueError("series must have zero constant term")
    zero = (f.ring.zero,)
    u = Series2(f.ring, {n - 1: vec[1:] for n, vec in f.parts.items()}, f.precision)
    v = Series2(f.ring, {n - 1: vec[:1] + zero * (n - 1) for n, vec in f.parts.items()}, f.precision)
    mu = u.scale(-2 * q.delta) + v.scale(q.gamma)
    nu = u.scale(q.gamma) - v.scale(2)
    return mu.scale(c), nu.scale(c)


def _raw(*series):
    """Precisions and raw coefficient values: equal only when identical."""
    return [(s.precision, {n: [c.val for c in v] for n, v in s.parts.items()}) for s in series]


REFERENCE_RINGS = ["q", "fp:7", "dual:q", "loc:q:s,t:3", "dual:loc:q:s,t:2"]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring_desc=st.sampled_from(REFERENCE_RINGS),
    precisions=st.lists(st.one_of(st.none(), st.integers(0, 7)), min_size=3, max_size=3),
    whole=st.booleans(),
)
def test_packed_right_inverse_matches_the_shift_based_reference(seed, ring_desc, precisions, whole):
    rnd = random.Random(seed)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))

    def draw(precision, low):
        # a whole series through degree 7, or one component
        degrees = range(low, 8) if whole else [rnd.randint(low, 7)]
        terms = [
            (i, n - i, ring.random_element(rnd)) for n in degrees for i in range(n + 1) if rnd.random() < 0.6
        ]
        return Series2.from_terms(ring, terms, precision)

    mu, nu, f = draw(precisions[0], 0), draw(precisions[1], 0), draw(precisions[2], 1)
    for nu_ in (nu, Series2.zero(ring)):
        assert _raw(naive_linearized_increment(q, mu, nu_)) == _raw(_shifted_increment(q, mu, nu_))
    c = ring.random_element(rnd) + ring(2)
    assert _raw(*raw_increment_preimage(q, f, c)) == _raw(*_split_preimage(q, f, c))
    assert _raw(*raw_increment_preimage(q, f)) == _raw(*_split_preimage(q, f))
    assert _raw(*solve_linearized_increment(q, f)) == _raw(*_split_preimage(q, f, q.discriminant.inv()))


def test_packed_preimage_rejects_a_constant_term_like_the_reference():
    q = QuadForm.make(QQ, 1, 0)
    f = S(QQ, [(0, 0, 1), (1, 0, 1)])
    for preimage in (lambda q, f, c: solve_linearized_increment(q, f), _split_preimage):
        with pytest.raises(ValueError, match="zero constant term"):
            preimage(q, f, QQ(3))


# --- the polar form: apply_series and the iteration's residual components ----

POLAR_RINGS = ["q", "fp:2", "fp:7", "dual:q", "dual:fp:2", "loc:q:s,t:3", "loc:fp:2:s:3"]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), ring_desc=st.sampled_from(POLAR_RINGS), seed=st.integers(0, 10**6))
def test_polar_apply_series_matches_the_ordered_double_loop(data, ring_desc, seed):
    rnd = random.Random(seed)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
    nilpotent = list(ring.atoms().values())  # none over a field

    def series():
        """Random components in a random set of degrees (so some are
        missing), a nilpotent constant part, a random precision."""
        precision = data.draw(st.one_of(st.none(), st.integers(0, 7)), label="precision")
        parts = {}
        for n in data.draw(st.sets(st.integers(0, 6)), label="degrees"):
            if n == 0:
                parts[0] = (sum((g * ring.random_element(rnd) for g in nilpotent), ring.zero),)
            else:
                parts[n] = [ring.random_element(rnd) if rnd.random() < 0.7 else ring.zero for _ in range(n + 1)]
        return Series2(ring, parts, precision)

    xs, ys = series(), series()
    if data.draw(st.booleans(), label="a change of coordinates"):
        xs, ys = xs + Series2.x(ring), ys + Series2.y(ring)
    minus = data.draw(st.sampled_from([None, "series", "q"]), label="minus")
    minus = {None: None, "series": series(), "q": q.series()}[minus]
    assert q.apply_series(xs, ys, minus) == naive_apply_series(q, xs, ys, minus)


@pytest.mark.parametrize(
    "form_ring, series_ring",
    [("fp:7", "fp:5"), ("q", "loc:q:s,t:3"), ("fp:7", "dual:fp:7")],
    ids=["fp:7-over-fp:5", "q-over-loc:q:s,t:3", "fp:7-over-dual:fp:7"],
)
def test_apply_series_refuses_series_over_another_ring(form_ring, series_ring):
    # before, the first returned Y^2+5*X*Y+2*X^2 over fp:7, the second raised
    # ZeroDivisionError and the third TypeError
    q = QuadForm.make(make_ring(form_ring), 3, 2)
    other = make_ring(series_ring)
    xs, ys = Series2.x(other).scale(other(4)), Series2.y(other)
    own = Series2.x(q.ring), Series2.y(q.ring)
    for args in ((xs, ys), (own[0], ys), (xs, own[1]), (*own, xs)):
        with pytest.raises(ValueError, match="^mixed coefficient rings$"):
            q.apply_series(*args)
    assert q.apply_series(*own) == q.series()


@pytest.mark.parametrize("name", ["xs", "ys", "minus"])
def test_apply_series_names_an_argument_that_is_not_a_series(name):
    # it raised an AttributeError about int before
    q = QuadForm.make(make_ring("fp:7"), 3, 2)
    args = {"xs": Series2.x(q.ring), "ys": Series2.y(q.ring), "minus": q.series()} | {name: 3}
    with pytest.raises(TypeError, match=f"^{name} must be a Series2, not int$"):
        q.apply_series(**args)


def _entry_point_calls():
    """A sound call of each public function of the form, as keyword
    arguments, over dual:fp:7, where a square-zero tau exists."""
    ring = make_ring("dual:fp:7")
    q = QuadForm.make(ring, 3, 2)
    x, y = Series2.x(ring), Series2.y(ring)
    return {
        "solve_linearized_increment": {"q": q, "f": x},
        "normal_form_iteration": {"f": q.series(), "q": q, "n_steps": 3},
        "square_zero_change": {"q": q, "tau": ring.eps, "f": x},
        "repair_small_lift": {"q": q, "tau": ring.eps, "u": x, "v": y, "s": 0, "t": 0, "defect": Series2.zero(ring)},
    }


ENTRY_POINT_SERIES = [
    ("solve_linearized_increment", "f"),
    ("normal_form_iteration", "f"),
    ("square_zero_change", "f"),
    ("repair_small_lift", "u"),
    ("repair_small_lift", "v"),
    ("repair_small_lift", "defect"),
]
ENTRY_POINT_ARGS = [(function, "q") for function in _entry_point_calls()] + ENTRY_POINT_SERIES


@pytest.mark.parametrize("function, name", ENTRY_POINT_ARGS, ids=["-".join(a) for a in ENTRY_POINT_ARGS])
def test_an_entry_point_names_an_argument_of_the_wrong_type(function, name):
    # before, a wrong q raised an AttributeError about its discriminant, a
    # wrong f or defect one about `parts` or `ring`, and a wrong u or v a
    # ValueError or TypeError that did not name the argument
    kwargs = _entry_point_calls()[function]
    getattr(normal_form, function)(**kwargs)  # sound as given
    kind = "QuadForm" if name == "q" else "Series2"
    for bad in (5, "x"):
        with pytest.raises(TypeError, match=f"^{name} must be a {kind}, not {type(bad).__name__}$"):
            getattr(normal_form, function)(**kwargs | {name: bad})


@pytest.mark.parametrize("function, name", ENTRY_POINT_SERIES, ids=["-".join(a) for a in ENTRY_POINT_SERIES])
def test_an_entry_point_refuses_a_series_over_another_ring(function, name):
    # before, the solver, square_zero_change and the defect raised "element
    # of dual:fp:7 is not in fp:7"; the iteration, u and v were refused by a
    # later series operation
    kwargs = _entry_point_calls()[function]
    other = make_ring("fp:7")
    moved = Series2(other, {n: [other(c.residue().val) for c in v] for n, v in kwargs[name].parts.items()})
    with pytest.raises(ValueError, match="^mixed coefficient rings$"):
        getattr(normal_form, function)(**kwargs | {name: moved})


def _recorded_kernel_calls(monkeypatch):
    """Record (left, right, outputs) of every kernel call normal_form makes."""
    calls = []
    for name in ("_packed_sums", "_product_sums"):
        real = getattr(normal_form, name)

        def recorded(ring, left, right, outputs, _real=real):
            calls.append((left, right, outputs))
            return _real(ring, left, right, outputs)

        monkeypatch.setattr(normal_form, name, recorded)
    return calls


def _degree(vec):
    """The degree of a component held as an image (ints, den, bits) or as a
    list of raw values."""
    return len(vec[0] if isinstance(vec[0], list) else vec) - 1


def _product_degrees(left, right, pairs):
    return sorted((_degree(left[i]), _degree(right[j])) for i, j in pairs)


@pytest.mark.parametrize("ring_desc", ["q", "fp:7", "loc:q:s,t:3"])
def test_each_step_multiplies_each_unordered_pair_of_corrections_once(monkeypatch, ring_desc):
    # a_i, b_i against p_j, r_j for i < j, and against a_k + gamma*b_k,
    # delta*b_k on the diagonal, low degree on the left: two products per
    # unordered pair, where the ordered sum made four (two on the diagonal)
    rnd = random.Random(ring_desc)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, *random_unit_disc(ring, rnd))
    f = _random_series_over(q, rnd, 12)
    calls = _recorded_kernel_calls(monkeypatch)
    n_steps = 10
    xs, ys = normal_form_iteration(f, q, n_steps)[-1]
    assert len(calls) == (n_steps - 1) + 1  # eps per step (the rows apply in place), then the certificate
    corrected = sorted(n for n in {*xs.parts, *ys.parts} if n >= 2)
    assert len(corrected) >= 6
    for n, (left, right, outputs) in enumerate(calls[:-1], start=1):
        top = n + 2
        ((length, pairs),) = outputs
        assert length == top + 1
        want = [(i, top - i) for i in corrected if i <= top - i and top - i in corrected for _ in "ab"]
        if top in f.parts:
            want.append((0, top))  # -1 against f_top
        assert _product_degrees(left, right, pairs) == sorted(want)


@pytest.mark.parametrize("precision", [None, 9])
@pytest.mark.parametrize("ring_desc", ["q", "fp:7", "dual:q"])
def test_apply_series_multiplies_each_unordered_pair_of_components_once(monkeypatch, ring_desc, precision):
    # every component of x and y in degrees 1 .. 6 is nonzero, and so is each
    # polar and diagonal vector (x_j[0] = 1, y_j[0] = 0, y_j[j] = 1 with
    # gamma = 3, delta = 1): each unordered pair of degrees (i, j), i <= j,
    # gives exactly two products, and -1 against minus_m one more
    rnd = random.Random(ring_desc)
    ring = make_ring(ring_desc)
    q = QuadForm.make(ring, 3, 1)

    def component(n, head, tail):
        return [ring(head)] + [ring.random_element(rnd) for _ in range(n - 1)] + [ring(tail)]

    xs = Series2(ring, {n: component(n, 1, 0) for n in range(1, 7)}, precision)
    ys = Series2(ring, {n: component(n, 0, 1) for n in range(1, 7)}, precision)
    minus = _random_series_over(q, rnd, 9)
    calls = _recorded_kernel_calls(monkeypatch)
    got = q.apply_series(xs, ys, minus)
    assert got == naive_apply_series(q, xs, ys, minus)
    ((left, right, outputs),) = calls
    top = 12 if precision is None else precision
    assert [length - 1 for length, _ in outputs] == list(range(2, top + 1))
    for length, pairs in outputs:
        m = length - 1
        want = [(i, m - i) for i in range(1, m // 2 + 1) if m - i <= 6 for _ in "xy"]
        if m in minus.parts:
            want.append((0, m))
        assert _product_degrees(left, right, pairs) == sorted(want)
    # each vector is built once per side: -1, then x_i and y_i; the polar and
    # diagonal vectors of each degree
    assert len(left) == 1 + 2 * min(6, top // 2)
    assert len({id(v) for v in right}) == len(right)


# --- an independent oracle: sympy polynomial arithmetic over QQ ---------------


@pytest.mark.parametrize("seed", range(8))
def test_residual_orders_match_sympy(seed):
    # q(x_n, y_n) - f multiplied out by sympy for every step's coordinates,
    # truncated at total degree n_steps + 2 as `_final_residual` is: the same
    # residual, so the same order, and after step n an order of at least n + 3
    sympy = pytest.importorskip("sympy")
    X, Y = sympy.symbols("X Y")
    rnd = random.Random(seed)
    q = QuadForm.make(QQ, *random_unit_disc(QQ, rnd))
    n_steps = rnd.randint(1, 8)
    top = n_steps + 2
    f = _random_series_over(q, rnd, top + 2)

    def rational(c):
        (n,), d = QQ._ints(c.val)
        return sympy.Rational(n, d)

    def poly(terms):
        return sympy.Poly.from_dict({m: c for m, c in terms.items() if sum(m) <= top} or {(0, 0): 0}, X, Y, domain=sympy.QQ)

    def of_series(s):
        return poly({(i, n - i): rational(c) for n, vec in s.parts.items() for i, c in enumerate(vec) if c.val})

    g, d, minus = rational(q.gamma), rational(q.delta), of_series(f)
    for n, (xs, ys) in enumerate(normal_form_iteration(f, q, n_steps)):
        x, y = of_series(xs), of_series(ys)
        ref = poly((x * x + g * x * y + d * y * y - minus).as_dict())
        residual = _final_residual(q, f, xs, ys, n_steps)
        assert of_series(residual) == ref
        ref_order = min((sum(m) for m in ref.as_dict()), default=None)
        assert residual.order() == ref_order
        assert ref_order is None or ref_order >= n + 3
