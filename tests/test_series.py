import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_row
from nodal_kit.dp_ring import DPRing
from nodal_kit.kernels import _elements as _image_elements, _form_sums, _images, _product_sums
from nodal_kit.normal_form import QuadForm
from nodal_kit.rings import DualNumbers, PrimeField, Rationals, RingElem, make_ring
from nodal_kit.series import (
    PrecisionError,
    Series2,
    SubstitutionError,
    _graded_sums,
    _min_prec,
    _raw as _raw_parts,
    _wrap,
    substitute_all,
)

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


_X, _Y = Series2.x(QQ), Series2.y(QQ)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda f: f.substitute("x", _Y), "xs must be a Series2 or a scalar, not str"),
        (lambda f: f.substitute(_X, None), "ys must be a Series2 or a scalar, not NoneType"),
        (lambda f: substitute_all([f], 0, _Y), "xs must be a Series2, not int"),
        (lambda f: substitute_all([f], _X, "y"), "ys must be a Series2 or a scalar, not str"),
        (lambda f: substitute_all([f, [1]], _X, _Y), "series[1] must be a Series2 or a scalar, not list"),
    ],
    ids=["substitute-xs", "substitute-ys", "substitute_all-scalar-xs", "substitute_all-ys", "substitute_all-series"],
)
def test_an_argument_of_the_wrong_type_is_named(call, named):
    # each raised an AttributeError about NoneType or int before
    with pytest.raises(TypeError, match=f"^{re.escape(named)}$"):
        call(S(QQ, [(1, 0, 1), (0, 2, 3)]))


def test_scalars_stand_for_constant_series_where_a_scalar_is_admitted():
    f = S(QQ, [(1, 0, 1), (0, 2, 3)])
    assert f.substitute(_X, 0) == f.substitute(_X, Series2.zero(QQ)) == _X
    assert substitute_all([f, 2], _X, _Y) == [f, Series2.const(QQ, 2)]


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


@pytest.mark.parametrize(
    "triples, message",
    [
        ([[2, 0, "1"], [3, 0]], 'term 1 must be [i, j, "coeff"], not [3, 0]'),
        ({"a": 1}, "term 0 must be [i, j, \"coeff\"], not 'a'"),
        ([[2, 0, "1"], [1, 1, "1", "2"]], "term 1 must be [i, j, \"coeff\"], not [1, 1, '1', '2']"),
        ([5], 'term 0 must be [i, j, "coeff"], not 5'),
    ],
)
def test_from_triples_names_a_malformed_term(triples, message):
    with pytest.raises(ValueError) as e:
        Series2.from_triples(QQ, triples)
    assert str(e.value) == message


def test_from_triples_cuts_a_long_malformed_term():
    with pytest.raises(ValueError) as e:
        Series2.from_triples(QQ, [[2, 0, "1"], ["x" * 5000]])
    assert str(e.value).startswith('term 1 must be [i, j, "coeff"], not [')
    assert len(str(e.value)) < 80


def _from_triples_reference(ring, triples, precision=None):
    """Series2.from_triples with a parse of every term's literal."""
    terms = []
    for i, j, c in triples:
        if not all(type(k) is int and k >= 0 for k in (i, j)):
            raise ValueError(f"exponents must be non-negative integers, not {[i, j]}")
        terms.append((i, j, ring.parse_elem(str(c))))
    return Series2.from_terms(ring, terms, precision)


@pytest.mark.parametrize("ring_desc", ["q", "loc:q:s,t:3"])
@pytest.mark.parametrize(
    "triples",
    [
        [[2, 0, "1/3"], [1, 1, "1/3"], [0, 2, 3], [3, 0, "3"], [2, 0, "1/3"]],  # repeated literals
        [[2, 0, "1"], [1, 1, "1/0"], [0, 2, "1/0"]],  # a repeated bad literal
        [[2, 0, "w"], [1, 1, "1/0"], [0, 2, "w"]],  # two bad literals: the first raises
        [[2, 0, "2"], [-1, 0, "w"], [1, 1, "w"]],  # a bad exponent before a bad literal
        [[2, 0, "w"], [True, 0, "2"]],  # a bad literal before a bad exponent
    ],
)
def test_from_triples_parses_each_literal_once_with_the_same_outcome(monkeypatch, ring_desc, triples):
    ring = make_ring(ring_desc)

    def outcome(build):
        try:
            f = build(ring, triples, 4)
        except ValueError as e:
            return type(e), str(e)
        return f.precision, {n: [c.val for c in v] for n, v in f.parts.items()}

    expected = outcome(_from_triples_reference)
    parsed, parse = [], ring.parse_elem

    def counting(s):
        parsed.append(s)
        return parse(s)

    monkeypatch.setattr(ring, "parse_elem", counting)
    assert outcome(Series2.from_triples) == expected
    assert len(parsed) == len(set(parsed))


def test_str_merges_signs_and_keeps_the_precision_tail():
    f = S(QQ, [(0, 0, 1), (1, 0, -2), (1, 1, -1), (0, 2, "1/2"), (3, 0, "-3/2")], 4)
    assert str(f) == "1-2*X+1/2*Y^2-X*Y-3/2*X^3 + O(deg>4)"
    assert str(Series2.zero(QQ, 3)) == "0 + O(deg>3)"
    assert str(Series2(QQ, {2: [QQ(-1), QQ.zero, QQ.one]})) == "-Y^2+X^2"



# --- the coefficient loops the packed kernel replaced, kept as references ----

BIG_P = 3317044064679887385961813  # the largest prime below rings._PRIME_BOUND
KERNEL_RINGS = [QQ, PrimeField(2), F7, PrimeField(10007), PrimeField(2**61 - 1), PrimeField(BIG_P)]


def _ref_convolve_into(out, a, b):
    """Add the product of dense sequences a and b into the list out, in place."""
    nb = [(j, y) for j, y in enumerate(b) if not y.is_zero]
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in nb:
            out[i + j] = out[i + j] + x * y


def _ref_mul(f, g):
    """Series2 product, one coefficient pair at a time."""
    prec = _min_prec(f.precision, g.precision)
    parts = {}
    for n1, v1 in f.parts.items():
        for n2, v2 in g.parts.items():
            n = n1 + n2
            if prec is not None and n > prec:
                continue
            _ref_convolve_into(parts.setdefault(n, [f.ring.zero] * (n + 1)), v1, v2)
    return Series2(f.ring, parts, prec)


def _ref_dp_mul(a, b):
    """DPElem product, one coefficient pair at a time on the rows made dense,
    as its rows."""
    dp = a.dp
    ring = dp.ring
    fa, ga, fb, gb, x2f, x2g = (dense_row(ring, row) for row in (a.f, a.g, b.f, b.g, *dp.x_squared))
    zero = ring.zero
    gg = [zero] * max(len(ga) + len(gb) - 1, 0)
    _ref_convolve_into(gg, ga, gb)
    size = max(len(fa), len(ga)) + max(len(fb), len(gb)) + 1
    f, g = [zero] * size, [zero] * size
    _ref_convolve_into(f, fa, fb)
    _ref_convolve_into(f, gg, x2f)
    _ref_convolve_into(g, fa, gb)
    _ref_convolve_into(g, ga, fb)
    _ref_convolve_into(g, gg, x2g)
    return tuple({j: c.val for j, c in enumerate(v) if not c.is_zero} for v in (f, g))


def _canonical(elems):
    """Raw values in canonical form: ints in [0, p) over F_p; over Q, () for
    zero and else (numerator, denominator) in lowest terms with a positive
    denominator."""
    for c in elems:
        if isinstance(c.ring, PrimeField):
            assert type(c.val) is int and 0 <= c.val < c.ring.p
        elif c.val:
            n, d = c.val
            assert type(n) is type(d) is int and n and d > 0 and math.gcd(n, d) == 1
        else:
            assert c.val == ()
    return True


def _elements(ring):
    if ring not in KERNEL_RINGS:  # composite: the ring's own random elements
        return st.integers(0, 10**6).map(lambda seed: ring.random_element(random.Random(seed)))
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1).map(ring.from_int)
    height = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))
    return st.builds(Fraction, height, st.one_of(st.integers(1, 6), st.integers(1, 2**120))).map(
        ring.from_fraction
    )


def _extreme(ring, sign):
    """The coefficient of largest absolute image: p - 1, or -(2^200 - 1) and its negative."""
    if isinstance(ring, PrimeField):
        return ring.from_int(ring.p - 1)
    return ring.from_int(sign * (2**200 - 1))


@st.composite
def _vector_pairs(draw, ring, count, max_len):
    """Left and right lists of dense vectors, at random or all at their extreme value."""
    if ring not in KERNEL_RINGS or draw(st.booleans()):
        elems = _elements(ring)
        left = [draw(st.lists(elems, max_size=max_len)) for _ in range(count)]
        right = [draw(st.lists(elems, max_size=max_len)) for _ in range(count)]
    else:
        lx, rx = _extreme(ring, draw(st.sampled_from((-1, 1)))), _extreme(ring, -1)
        left = [[lx] * draw(st.integers(0, max_len)) for _ in range(count)]
        right = [[rx] * draw(st.integers(0, max_len)) for _ in range(count)]
    return left, right


def _raw(vecs):
    return [[c.val for c in v] for v in vecs]


# the packed kernel's rings and a composite one, for the raw entry
RAW_RINGS = KERNEL_RINGS + [DualNumbers(QQ)]


@pytest.mark.parametrize("ring", RAW_RINGS, ids=lambda r: r.descriptor())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_product_sums_match_the_coefficient_loop(data, ring):
    left, right = data.draw(_vector_pairs(ring, 4, 9))
    pair = st.tuples(st.integers(0, 3), st.integers(0, 3))
    outputs = []
    for pairs in data.draw(st.lists(st.lists(pair, max_size=5), max_size=4)):
        # two empty vectors have an empty product, which needs no slot
        need = max((max(len(left[i]) + len(right[j]) - 1, 0) for i, j in pairs), default=0)
        outputs.append((need + data.draw(st.integers(0, 2)), pairs))
    sums = _product_sums(ring, _raw(left), _raw(right), outputs)
    assert len(sums) == len(outputs)
    for (length, pairs), got in zip(outputs, sums):
        want = [ring.zero] * length
        for i, j in pairs:
            _ref_convolve_into(want, left[i], right[j])
        assert type(got) is list and got == [c.val for c in want]
        if ring in KERNEL_RINGS:
            assert _canonical(RingElem(ring, x) for x in got)


@pytest.mark.parametrize("ring", RAW_RINGS, ids=lambda r: r.descriptor())
def test_an_empty_raw_vector_makes_an_empty_product(ring):
    # as for images below: the empty product of an empty vector and a
    # length-1 one has an output of length 0, and the next output starts at
    # its own first slot
    zero, one = ring.zero.val, ring.one.val
    left, right = [[zero, zero], [one]], [[], [one]]
    got = _product_sums(ring, left, right, [(0, [(1, 0)]), (1, [(1, 1)]), (2, [(0, 0)])])
    assert got == [[], [one], [zero, zero]]


@st.composite
def _series(draw, ring, precision):
    extreme = draw(st.sampled_from((None, -1, 1)))
    top = 7 if precision is None else precision
    parts = {}
    for n in draw(st.sets(st.integers(0, top), max_size=6)):
        if extreme is None:
            parts[n] = draw(st.lists(_elements(ring), min_size=n + 1, max_size=n + 1))
        else:
            parts[n] = [_extreme(ring, extreme)] * (n + 1)
    return Series2(ring, parts, precision)


# the fields, and one composite ring of each kind
GRADED_RINGS = [QQ, F7, DualNumbers(QQ), make_ring("loc:q:s,t:3")]


def _ref_graded_sum(ring, pairs, prec):
    """The sum of a*b over the pairs through degree prec, one coefficient pair at a time."""
    parts = {}
    for a, b in pairs:
        for n1, v1 in a.parts.items():
            for n2, v2 in b.parts.items():
                if prec is None or n1 + n2 <= prec:
                    _ref_convolve_into(parts.setdefault(n1 + n2, [ring.zero] * (n1 + n2 + 1)), v1, v2)
    return Series2(ring, parts, prec)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    ring=st.sampled_from(GRADED_RINGS),
    prec=st.one_of(st.none(), st.integers(1, 7)),
)
def test_graded_sums_match_the_coefficient_loop(data, ring, prec):
    # a few series shared between the pairs, so one series enters several
    # pairs, on either side, in one sum and across sums
    pool = [data.draw(_series(ring, data.draw(st.one_of(st.none(), st.integers(0, 7))))) for _ in range(3)]
    pair = st.tuples(st.sampled_from(range(3)), st.sampled_from(range(3)))
    sums = data.draw(st.lists(st.lists(pair, max_size=4), max_size=4))
    raw = [_raw_parts(s) for s in pool]  # the routine runs on raw parts, one dict per series
    got = _graded_sums(ring, [[(raw[a], raw[b]) for a, b in pairs] for pairs in sums], prec)
    assert len(got) == len(sums)
    for pairs, parts in zip(sums, got):
        assert all(any(v) for v in parts.values())  # no component that came out zero is kept
        series = _wrap(ring, parts, prec)
        assert series == _ref_graded_sum(ring, [(pool[a], pool[b]) for a, b in pairs], prec)
        if ring in KERNEL_RINGS:
            assert _canonical(c for vec in series.parts.values() for c in vec)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS))
def test_series_product_matches_the_coefficient_loop(data, ring):
    precisions = st.one_of(st.none(), st.integers(0, 9))
    f = data.draw(_series(ring, data.draw(precisions)))
    g = data.draw(_series(ring, data.draw(precisions)))
    prod = f * g
    assert prod == _ref_mul(f, g)
    assert _canonical(c for vec in prod.parts.values() for c in vec)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), ring=st.sampled_from(KERNEL_RINGS))
def test_dpelem_product_matches_the_coefficient_loop(data, ring):
    elems = _elements(ring)
    g, d, s, t = (data.draw(elems) for _ in range(4))
    dp = DPRing(ring, QuadForm(ring, g, d), s, t, degree_bound=40)
    (fa, ga), (fb, gb) = data.draw(_vector_pairs(ring, 2, 12))
    a, b = dp.element(fa, ga), dp.element(fb, gb)
    prod = a * b
    assert (prod.f, prod.g) == _ref_dp_mul(a, b)
    assert _canonical(RingElem(ring, c) for row in (prod.f, prod.g) for c in row.values())


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.descriptor())
def test_every_slot_at_its_bound(ring):
    # dense components all at the extreme value: each output coefficient is
    # the largest sum of products its slot has to hold
    for sign in (1, -1):
        x = _extreme(ring, sign)
        f = Series2(ring, {n: [x] * (n + 1) for n in range(13)}, 12)
        g = Series2(ring, {n: [_extreme(ring, -1)] * (n + 1) for n in range(13)}, 12)
        assert f * g == _ref_mul(f, g)
        (got,) = _product_sums(ring, [[x.val] * 16], [[x.val] * 16], [(31, [(0, 0)])])
        want = [ring.zero] * 31
        _ref_convolve_into(want, [x] * 16, [x] * 16)
        assert got == [c.val for c in want]


def test_a_slot_width_with_no_rounding_slack():
    # over F_(2^61 - 1), 63 products of (p - 1)^2 fill 127.98 bits: with the
    # sign bit the slot takes 129 bits (17 bytes), without it 16 bytes
    ring = PrimeField(2**61 - 1)
    x = _extreme(ring, 1)
    (got,) = _product_sums(ring, [[x.val] * 63], [[x.val] * 63], [(125, [(0, 0)])])
    want = [ring.zero] * 125
    _ref_convolve_into(want, [x] * 63, [x] * 63)
    assert got == [c.val for c in want]


# --- the images of the normal form over Q, and the packed quadratic form ------

# per-vector denominators: some share factors (2, 3, 5, 7), some are coprime
# to all the others (11 * 13, 2^61 - 1), and some are tall
_VECTOR_DENOMINATORS = [1, 2, 4, 6, 12, 35, 143, 2**40, 3**30 * 5, 2**61 - 1]


@settings(max_examples=80, deadline=None)
@given(
    nums=st.lists(st.one_of(st.integers(-9, 9), st.integers(-(2**1000), 2**1000)), max_size=8),
    den=st.sampled_from(_VECTOR_DENOMINATORS),
    extra=st.lists(st.integers(1, 3), min_size=8, max_size=8),
)
def test_the_image_of_one_vector_is_canonical(nums, den, extra):
    # each coefficient over the vector's denominator times 1, 2 or 3: the
    # lcm is divided out down to the least denominator
    vec = [QQ.from_fraction(Fraction(n, den * k)) for n, k in zip(nums, extra)]
    ((ints, image_den, bits),) = _images(QQ, [vec])
    assert type(ints) is list and all(type(x) is int for x in ints)
    assert type(image_den) is int and image_den > 0 and math.gcd(image_den, *ints) == 1
    assert bits == max(map(abs, ints), default=0).bit_length()
    assert _image_elements(QQ, (ints, image_den, bits)) == tuple(vec)


def test_a_form_sum_at_its_slot_bound():
    # x_0 = (2^195 - 1, ..) of length 127, y_0 = 0 and gamma = delta = 0:
    # the diagonal sum x_0*x_0 takes 2*195 + bitlen(2 - 1) + bitlen(255) + 1 =
    # 400 bits a slot, a whole number of bytes, and its middle slot,
    # 127 * x^2 < 2^397, leaves 2 bits below the sign bit: one byte fewer
    # would not hold it
    x = 2**195 - 1
    zero = QQ.zero.val
    vectors = [[QQ(x).val] * 127, [zero] * 127]
    (got,) = _form_sums(QQ, (zero, zero), vectors, 1, [(0, True)], [(253, [(0, 0)], None)])
    assert (127 * x * x).bit_length() == 397
    assert got == tuple(QQ((min(k, 252 - k) + 1) * x * x) for k in range(253))


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda r: r.descriptor())
def test_a_form_sum_that_vanishes_is_none(ring):
    # an output with no product and no minuend, one whose products cancel
    # it exactly, and over F_7 one whose slot 9 - 2 is nonzero but 0 mod 7
    three, two = ring(3).val, ring(2).val
    vectors = [[three], [ring.zero.val]]  # x_0 = 3, y_0 = 0
    form = (ring.zero.val, ring.zero.val)
    outputs = [(1, [], None), (1, [(0, 0)], [ring(9).val]), (1, [(0, 0)], [two])]
    got = _form_sums(ring, form, vectors, 1, [(0, True)], outputs)
    vanishes = isinstance(ring, PrimeField) and ring.p == 7
    assert got == [None, None, None if vanishes else (ring(7),)]


@pytest.mark.parametrize("ring", [QQ, F7, DualNumbers(QQ)], ids=lambda r: r.descriptor())
def test_from_terms_wraps_each_zero_slot_as_the_shared_zero(ring):
    # X^2 + 3Y^2 and X*Y - X*Y: the middle slot of degree 2 is the ring's one
    # zero, not a new element, and the component that cancels is dropped
    s = Series2.from_terms(ring, [(2, 0, ring(1)), (0, 2, ring(3)), (1, 1, ring(1)), (1, 1, ring(-1))])
    assert list(s.parts) == [2]
    assert s.parts[2][1] is ring.zero
    assert s.parts[2][2] == ring.one and s.parts[2][0] == ring(3)  # indexed by X-exponent


# --- Series2.agrees_below ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(data=st.data(), ring=st.sampled_from([QQ, F7]))
def test_agrees_below_is_the_order_of_the_difference(data, ring):
    precisions = st.one_of(st.none(), st.integers(0, 8))
    f = data.draw(_series(ring, data.draw(precisions)))
    if data.draw(st.booleans()):
        g = data.draw(_series(ring, data.draw(precisions)))
    else:  # f changed in at most one degree, so the two often agree low down
        n = data.draw(st.integers(0, 8))
        g = (f + Series2(ring, {n: [ring.one] + [ring.zero] * n})).truncated(data.draw(precisions))
    for k in range(-1, 12):
        assert f.agrees_below(g, k) == (f - g).order_at_least(k)
        assert g.agrees_below(f, k) == (g - f).order_at_least(k)


# --- Series2.__sub__ ----------------------------------------------------------


@st.composite
def _difference_pair(draw, ring):
    """Two series; the second shares some components of the first, so their
    difference cancels there, and may be empty."""
    elems = st.integers(0, 10**6).map(lambda seed: ring.random_element(random.Random(seed)))

    def components(degrees):
        return {n: draw(st.lists(elems, min_size=n + 1, max_size=n + 1)) for n in degrees}

    pa, pb = draw(st.sampled_from([(None, None), (None, 4), (5, None), (4, 4), (0, 0), (6, 2), (3, 7)]))
    a = Series2(ring, components(draw(st.sets(st.integers(0, 7), max_size=5))), pa)
    shared = draw(st.sets(st.sampled_from(sorted(a.parts)), max_size=3)) if a.parts else set()
    fresh = components(draw(st.sets(st.integers(0, 7), max_size=4)) - shared)
    b = Series2(ring, {**fresh, **{n: a.parts[n] for n in shared}}, pb)
    return a, b


@settings(max_examples=80, deadline=None)
@given(data=st.data(), ring_desc=st.sampled_from(["q", "fp:7", "loc:q:s,t:3"]))
def test_difference_is_the_sum_with_the_negation(data, ring_desc):
    ring = make_ring(ring_desc)
    a, b = data.draw(_difference_pair(ring))
    for x, y in ((a, b), (b, a), (a, a), (a, Series2.zero(ring)), (Series2.zero(ring, 3), a)):
        diff = x - y
        assert diff == x + (-y)
        assert diff.precision == _min_prec(x.precision, y.precision)
        assert all(any(not c.is_zero for c in v) for v in diff.parts.values())
    assert (a - a).is_zero
    assert 1 - a == Series2.const(ring, 1) + (-a)


# --- graded substitution against a full-precision Horner ----------------------


def _ref_substitute(f, xs, ys):
    """Horner in xs and ys, every step multiplying whole series."""
    prec = _min_prec(f.precision, xs.precision, ys.precision)

    def trunc(s):
        return s if prec is None else s.truncated(prec)

    by_x = {}
    for n, vec in f.parts.items():
        if prec is not None and n > prec:
            continue
        for i, c in enumerate(vec):
            if not c.is_zero:
                by_x.setdefault(i, {})[n - i] = c
    if not by_x:
        return Series2.zero(f.ring, prec)

    def eval_y(coeffs):
        out = Series2.zero(f.ring)
        for j in range(max(coeffs), -1, -1):
            out = trunc(out * ys)
            c = coeffs.get(j)
            if c is not None:
                out = out + Series2.const(f.ring, c)
        return out

    result = Series2.zero(f.ring)
    for i in range(max(by_x), -1, -1):
        result = trunc(result * xs)
        if i in by_x:
            result = result + eval_y(by_x[i])
    return Series2(result.ring, result.parts, prec)


def _at(series, prec):
    """The series truncated to `prec`, or made exact when `prec` is None."""
    return Series2(series.ring, series.parts) if prec is None else series.truncated(prec)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), ring=st.sampled_from(GRADED_RINGS), precs=st.tuples(
    *[st.one_of(st.none(), st.integers(1, 7))] * 3))
def test_graded_substitution_matches_the_full_horner(seed, ring, precs):
    rnd = random.Random(seed)
    f = _at(_random_series(ring, rnd, 7, zero_const=False), precs[0])
    sx = _at(Series2.x(ring) + _random_series(ring, rnd, 7), precs[1])
    sy = _at(Series2.y(ring) + _random_series(ring, rnd, 7), precs[2])
    assert f.substitute(sx, sy) == _ref_substitute(f, sx, sy)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    ring=st.sampled_from(GRADED_RINGS),
    precs=st.lists(st.one_of(st.none(), st.integers(1, 7)), min_size=1, max_size=4),
    inner=st.tuples(*[st.one_of(st.none(), st.integers(1, 7))] * 2),
)
def test_substitute_all_matches_the_full_horner_for_every_series(seed, ring, precs, inner):
    # outer series of mixed precisions share one inner pair, so the powers are
    # formed through the largest precision any result needs and each result
    # is cut back to its own
    rnd = random.Random(seed)
    series = [_at(_random_series(ring, rnd, 7, zero_const=False), p) for p in precs]
    sx = _at(Series2.x(ring) + _random_series(ring, rnd, 7), inner[0])
    sy = _at(Series2.y(ring) + _random_series(ring, rnd, 7), inner[1])
    got = substitute_all(series, sx, sy)
    assert len(got) == len(series)
    for f, g in zip(series, got):
        assert g == _ref_substitute(f, sx, sy) == f.substitute(sx, sy)
        assert g.precision == _min_prec(f.precision, sx.precision, sy.precision)
    assert substitute_all([], sx, sy) == []  # nothing to compose, once the pair passes its check
    for xs, ys, name in ((sx + 1, sy, "X"), (sx, sy - 1, "Y")):
        for outer in (series, []):
            with pytest.raises(SubstitutionError, match=f"^substitution for {name} has a constant term$"):
                substitute_all(outer, xs, ys)
