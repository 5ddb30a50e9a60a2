import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nodal_kit import rings
from nodal_kit.dp_ring import DPRing
from nodal_kit.mpoly import MPoly, random_poly2
from nodal_kit.normal_form import QuadForm
from nodal_kit.rings import (
    CoeffParseError,
    DualNumbers,
    LocalTruncation,
    NotAUnitError,
    PrimeField,
    Rationals,
    RingConstructionError,
    _LiteralParser,
    _is_prime,
    _tokenize,
    make_ring,
)


def test_make_ring_descriptors():
    assert make_ring("q").descriptor() == "q"
    assert make_ring("fp:7").descriptor() == "fp:7"
    assert make_ring("dual:q").descriptor() == "dual:q"
    assert make_ring("loc:q:s,t:4").descriptor() == "loc:q:s,t:4"
    assert make_ring("loc:fp:7:s,t:4").descriptor() == "loc:fp:7:s,t:4"
    assert make_ring("dual:loc:q:s,t:3").descriptor() == "dual:loc:q:s,t:3"


def test_make_ring_errors():
    with pytest.raises(RingConstructionError):
        make_ring("fp:6")
    with pytest.raises(RingConstructionError):
        make_ring("loc:q:s,t:0")
    with pytest.raises(RingConstructionError):
        make_ring("loc:q:s,s:3")
    with pytest.raises(RingConstructionError):
        make_ring("banana")
    with pytest.raises(RingConstructionError):
        LocalTruncation(DualNumbers(Rationals()), ("eps",), 2)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**4) if _is_prime(n)] == [
        n for n in range(10**4) if _is_prime_by_trial_division(n)
    ]


@pytest.mark.parametrize("n", [561, 3215031751, 318665857834031151167461])
def test_pseudoprimes_are_rejected(n):
    # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5, 7,
    # and the least one to every base 2..37
    assert not _is_prime(n)
    with pytest.raises(RingConstructionError, match="not prime"):
        PrimeField(n)


def test_large_prime_modulus_in_bounded_time():
    t0 = time.perf_counter()
    ring = PrimeField(2**61 - 1)
    assert time.perf_counter() - t0 < 1
    assert (ring(3) * ring(3).inv()).val == 1


def test_modulus_beyond_the_primality_bound_is_refused():
    with pytest.raises(RingConstructionError, match="3317044064679887385961981"):
        make_ring(f"fp:{2**89 - 1}")


def test_prime_field_has_p_elements(F7):
    elems = [F7(i) for i in range(7)]
    assert len(set(e.val for e in elems)) == 7
    assert F7(3) * F7(5) == F7(15)


def test_dual_numbers_square_zero(DQ):
    assert (DQ.eps * DQ.eps).is_zero
    e = DQ.parse_elem("1+2*eps")
    assert e * e == DQ.parse_elem("1+4*eps")


def test_truncation_kills_high_degree():
    loc = make_ring("loc:q:s,t:3")
    s, t = loc.gens
    assert (s * t * s).is_zero
    assert not (s * t).is_zero
    assert (s * s * s).is_zero
    # a product keeps its terms of degree order-1 and drops those of degree order
    assert (1 + s) * (s * t + t) == loc.parse_elem("t+2*s*t")


def test_invert_in_f7(F7):
    assert F7(3).inv() == F7(5)
    assert F7(3).try_invert() == F7(5)
    assert F7.zero.try_invert() is None
    with pytest.raises(NotAUnitError):
        F7.zero.inv()


def test_invert_dual_numbers(DQ):
    # solve (2 + 5 eps)(a + b eps) = 1: a = 1/2, b = -5/4
    e = DQ.parse_elem("2+5*eps")
    assert e.inv() == DQ.parse_elem("1/2-5/4*eps")
    assert e.inv() * e == DQ.one
    assert DQ.eps.try_invert() is None


def test_invert_truncation():
    loc = make_ring("loc:q:s,t:4")
    s, t = loc.gens
    x = loc.one + s + s * t
    assert x.inv() * x == loc.one
    assert s.try_invert() is None
    assert (s + t).try_invert() is None


# --- the raw layout of Q against fractions.Fraction ---------------------------


def _q_raw(x):
    """The raw value over Q of a Fraction: (numerator, denominator) in lowest
    terms with a positive denominator, and () for zero."""
    return (x.numerator, x.denominator) if x else ()


_RATIONALS = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(2**130), 2**130)),
    st.one_of(st.integers(1, 12), st.integers(1, 2**130)),
)


@settings(max_examples=300, deadline=None)
@given(x=_RATIONALS, y=_RATIONALS, k=st.integers(-(2**70), 2**70), d=st.integers(1, 2**70))
def test_rational_raw_arithmetic_matches_fraction(x, y, k, d):
    q = Rationals()
    a, b = q.from_fraction(x).val, q.from_fraction(y).val
    assert (a, b) == (_q_raw(x), _q_raw(y))
    assert q.from_int(k).val == _q_raw(Fraction(k))
    assert q._vadd(a, b) == _q_raw(x + y)
    assert q._vadd(a, a) == _q_raw(x + x)  # one shared denominator
    assert q._vneg(a) == _q_raw(-x)
    assert q._vmul(a, b) == _q_raw(x * y)
    if x:
        assert q._vinv(a) == _q_raw(1 / x)
    else:
        with pytest.raises(NotAUnitError):
            q._vinv(a)
    (n,), den = q._ints(a)
    assert Fraction(n, den) == x
    assert q._norm((k,), d) == _q_raw(Fraction(k, d))  # any numerator over a positive denominator
    assert q.short(q.from_fraction(x)) == str(x)


@pytest.mark.parametrize("kernel", ["_vmul", "_vadd"])
def test_the_rationals_add_and_multiply_with_the_compiled_one_monomial_kernels(kernel):
    # the same function object as loc:q:s:1's, whose index map is [[(0, 0)]]
    assert getattr(make_ring("q"), kernel) is getattr(make_ring("loc:q:s:1"), kernel)


@pytest.mark.parametrize("descriptor", ["q", "fp:7", "dual:q", "loc:q:s,t:3"])
def test_each_ring_builds_its_zero_and_one_once(descriptor):
    ring = make_ring(descriptor)
    assert ring.zero is ring.zero and ring.one is ring.one
    assert (ring.zero, ring.one) == (ring.from_int(0), ring.from_int(1))
    assert (ring.zero.val, ring.one.val) == (ring.from_int(0).val, ring.from_int(1).val)


def test_residue(DQ):
    assert DQ.parse_elem("2+5*eps").residue() == Rationals()(2)
    loc7 = make_ring("loc:fp:7:s,t:3")
    s, t = loc7.gens
    assert (loc7.one + s + s * t).residue() == PrimeField(7)(1)
    q = Rationals()
    x = q.parse_elem("4/3")
    assert x.residue() == x  # identity on fields


def test_unit_characterization(rng, DQ):
    for _ in range(40):
        a = Rationals().random_element(rng)
        b = Rationals().random_element(rng)
        e = DQ.embed(a) + DQ.embed(b) * DQ.eps
        assert e.is_unit == (not a.is_zero)
    loc = make_ring("loc:fp:5:s,t:3")
    for _ in range(40):
        x = loc.random_element(rng)
        assert x.is_unit == (not x.residue().is_zero)


def test_nilpotency_of_truncation_generators():
    loc = make_ring("loc:fp:5:u,v,w:4")
    names = loc.var_names
    for picks in itertools.product(names, repeat=4):
        prod = loc.one
        for nm in picks:
            prod = prod * loc.gen(nm)
        assert prod.is_zero


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    ring = PrimeField(p)
    elems = [ring(i) for i in range(p)]
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a in elems:
        if not a.is_zero:
            assert a.inv() * a == ring.one


RINGS = [
    make_ring("q"),
    make_ring("fp:101"),
    make_ring("dual:q"),
    make_ring("loc:q:s,t:3"),
    make_ring("dual:loc:fp:5:s,t:2"),
]


def _element(ring, seeds):
    """Deterministic element from integer seeds, mixing in all atoms."""
    atoms = list(ring.atoms().values())
    out = ring.from_int(seeds[0])
    for k, a in zip(seeds[1:], atoms):
        out = out + a * ring.from_int(k)
    if len(seeds) > len(atoms) + 1 and atoms:
        out = out + atoms[0] * atoms[-1] * ring.from_int(seeds[-1])
    return out


@settings(max_examples=40, deadline=None)
@given(
    ring_idx=st.integers(0, len(RINGS) - 1),
    seeds=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    seeds2=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    seeds3=st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
def test_ring_axioms_randomized(ring_idx, seeds, seeds2, seeds3):
    ring = RINGS[ring_idx]
    a, b, c = _element(ring, seeds), _element(ring, seeds2), _element(ring, seeds3)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ring.zero
    inv = a.try_invert()
    if a.is_unit:
        assert inv is not None and inv * a == ring.one
    else:
        assert inv is None


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor())
def test_format_parse_roundtrip(ring):
    rnd = random.Random(411)
    for _ in range(25):
        x = ring.random_element(rnd)
        assert ring.parse_elem(ring.format_elem(x)) == x
        assert ring.parse_elem(ring.short(x)) == x


def test_short_brackets_a_signed_constant():
    # a base-ring constant with an inner sign is bracketed in front of a
    # monomial and nowhere else, as in MPoly.format
    loc = make_ring("loc:dual:q:s,t:3")
    for literal, printed in (("1+eps+s", "1+eps+s"), ("(1-eps)*s+2*eps", "2*eps+(1-eps)*s")):
        x = loc.parse_elem(literal)
        assert loc.short(x) == printed
        assert loc.parse_elem(loc.short(x)) == x


def test_parse_errors(F7):
    with pytest.raises(CoeffParseError):
        F7.parse_elem("1/7")  # denominator vanishes
    with pytest.raises(CoeffParseError):
        Rationals().parse_elem("2*s")
    with pytest.raises(CoeffParseError):
        Rationals().parse_elem("1+")


def test_literal_forms():
    loc = make_ring("loc:q:s,t:4")
    s, t = loc.gens
    assert loc.parse_elem("s^2*t-3") == s * s * t - loc(3)
    dq = make_ring("dual:q")
    assert dq.parse_elem("-1/2+e") == -dq.parse_elem("1/2") + dq.eps
    assert dq.parse_elem("2e") == dq.eps + dq.eps
    f5 = make_ring("fp:5")
    assert f5.parse_elem("-1") == f5(4)
    assert f5.parse_elem("3 mod 5") == f5(3)


def test_large_powers_within_the_literal_bound_are_exact():
    n = 99999999
    f7 = make_ring("fp:7")
    assert f7.parse_elem("3^99999999999") == f7(pow(3, 99999999999, 7))
    loc = make_ring("loc:q:s,t:3")
    s, _ = loc.gens
    assert loc.parse_elem(f"s^{n}").is_zero
    assert loc.parse_elem(f"(1+s)^{n}") == loc.one + s * n + s * s * (n * (n - 1) // 2)
    dq = make_ring("dual:q")
    assert dq.parse_elem(f"(1+eps)^{n}") == dq.one + dq.eps * n
    q = Rationals()
    assert q.parse_elem("(3/2)^2000") == q.from_fraction(Fraction(3, 2) ** 2000)  # 3170 bits


@pytest.mark.parametrize(
    "descriptor, literal",
    [
        ("q", "9^1300"),  # 4121 bits
        ("q", "2^4097"),
        ("q", "(1/2)^4097"),  # the bound holds for denominators too
        ("q", "9^1000*9^1000"),  # a product of two powers within the bound
        ("q", "9" * 1300),  # a bare number
        ("fp:7", "2^" + "1" * 1300),  # an exponent of more than 4096 bits
        ("dual:q", "(2+eps)^5000"),
        ("loc:q:s,t:3", "(1+s)^" + "9" * 1300),  # the binomial coefficients grow
    ],
)
def test_literals_past_the_bound_are_refused(descriptor, literal):
    with pytest.raises(CoeffParseError, match="bound of 4096 bits"):
        make_ring(descriptor).parse_elem(literal)


@pytest.mark.parametrize(
    "descriptor, literal",
    [
        ("fp:7", "9" * 1300),  # a bare number is bounded as written, not as reduced
        ("fp:7", "9" * 5000),  # more digits than the interpreter converts
        ("fp:7", "9" * 5000 + " mod 7"),
        ("q", "1/" + "3" * 2000),
    ],
    ids=["fp7-1300-digits", "fp7-5000-digits", "fp7-mod", "q-denominator"],
)
def test_numbers_past_the_bound_are_refused(descriptor, literal):
    with pytest.raises(CoeffParseError, match="a number passes the bound of 4096 bits"):
        make_ring(descriptor).parse_elem(literal)


def test_parser_messages_echo_a_capped_literal():
    q = Rationals()
    # short literals keep their messages
    for literal, message in [
        ("x", "unknown atom 'x' in 'x'"),
        ("1/0", "number '1/0' has denominator 0 in '1/0'"),
        ("3 3 )", "trailing tokens in '3 3 )'"),
    ]:
        with pytest.raises(CoeffParseError) as info:
            q.parse_elem(literal)
        assert str(info.value) == message
    # a denominator the ring cannot invert is named, not read as an atom
    for ring in (PrimeField(7), make_ring("loc:fp:7:s:2"), make_ring("dual:fp:7")):
        with pytest.raises(CoeffParseError) as info:
            ring.parse_elem("2+1/14")
        assert str(info.value) == "number '1/14': denominator 14 vanishes mod 7 in '2+1/14'"
    # long ones are cut to 60 characters and their length
    for literal in ("9" * 5000, "x" * 5000, "1+" * 2500 + "$", "2^" + "9" * 5000):
        with pytest.raises(CoeffParseError) as info:
            q.parse_elem(literal)
        message = str(info.value)
        assert len(message) < 300
        assert f"… ({len(literal)} characters)" in message


def _general_parse(ring, literal):
    """The recursive-descent route every literal took before plain numerals
    were read directly: the value, or the message of the error it raises."""
    s = literal.strip()
    try:
        parser = _LiteralParser(ring, _tokenize(s), s)
        out = parser.expr()
        assert parser.pos == len(parser.tokens)
        return parser.bounded(out)
    except CoeffParseError as e:
        return str(e)


def _parse(ring, literal):
    try:
        return ring.parse_elem(literal)
    except CoeffParseError as e:
        return str(e)


NUMERALS = [
    "0", "7", "-3", "+5", "3/4", "-3/4", "+3/4", "6/4", "-0", "+0", "0/5", "007", "-007/0014", " 12 ",
    "1/0", "-1/0", "3/101", "-202/303", "101", "2" * 40, "-" + "3" * 60 + "/" + "7" * 70,
    str(2**4096 - 1), str(2**4096), "1/" + str(2**4096), "9" * 5000, "-1/" + "3" * 2000,
    "\u0663", "\u00b2", "+-3", "--3", "1/", "/3", "1/2/3", "1 /2", "+",
]


@pytest.mark.parametrize(
    "descriptor", ["q", "fp:2", "fp:7", "fp:101", "dual:q", "dual:fp:101", "loc:q:s,t:3", "loc:fp:101:s:2"]
)
def test_numerals_read_directly_match_the_general_parser(monkeypatch, descriptor):
    # over fp:101, 3/101 has a denominator that vanishes; 1/0 everywhere
    ring = make_ring(descriptor)
    tokenized = []
    monkeypatch.setattr(rings, "_tokenize", lambda s: tokenized.append(s) or _tokenize(s))
    for literal in NUMERALS:
        tokenized.clear()
        got = _parse(ring, literal)
        want = _general_parse(ring, literal)
        assert got == want, literal
        if not isinstance(want, str):
            assert got.val == want.val and got.ring == ring
            assert tokenized == []  # read directly
        else:
            assert tokenized == [literal.strip()]  # the general parser words the error
    assert isinstance(_parse(make_ring("fp:101"), "3/101"), str)
    assert isinstance(_parse(ring, str(2**4096)), str)
    assert _parse(ring, str(2**4096 - 1)) == ring.from_int(2**4096 - 1)


def _power_cases():
    """(element, one) for each element type whose __pow__ is rings._power."""
    rnd = random.Random(5)
    loc = make_ring("loc:q:s,t:4")
    q = Rationals()
    dp = DPRing(q, QuadForm.make(q, 3, 2), q(1), q(0), degree_bound=40)
    return [
        pytest.param(loc.random_element(rnd), loc.one, id="loc"),
        pytest.param(random_poly2(q, rnd, max_deg=2), MPoly.const(q, 2, 1), id="mpoly"),
        pytest.param(dp.random_element(rnd, degree=2), dp.one, id="dp"),
    ]


@pytest.mark.parametrize("x,one", _power_cases())
def test_power_matches_repeated_product(x, one):
    assert x**0 == one
    product = one
    for n in range(1, 10):
        product = product * x
        assert x**n == product
    with pytest.raises(ValueError):
        x ** -1
