"""Differential tests of the truncated-ring arithmetic, and of its value layout.

The reference below is the nested implementation that one shared arithmetic
over the bottom field replaced: a dual number is a pair of base-ring elements
and a truncated local ring element a dict of them, so every operation
recurses through the tower.  On the same seeded draws both must consume the
rng alike and agree on every operation, on the printed forms and on the
values themselves, read through `flat_terms` as {exponents over the tower:
raw field value}.
"""

import functools
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import pair_loop_sums
from nodal_kit import cli, rings
from nodal_kit.kernels import _product_sums
from nodal_kit.rings import (
    CoeffParseError,
    DualNumbers,
    NotAUnitError,
    PrimeField,
    Rationals,
    Ring,
    RingConstructionError,
    RingElem,
    format_terms,
    make_ring,
)


def _ref_sparse_add(x, y):
    out = dict(x)
    for e, c in y.items():
        c0 = out.get(e)
        c = c if c0 is None else c0 + c
        if c.is_zero:
            out.pop(e, None)
        else:
            out[e] = c
    return out


def _ref_sparse_mul(x, y, order):
    """Product of two sparse polynomials, without the terms of total degree >= order."""
    out = {}
    by_degree = [(sum(e), e, c) for e, c in y.items()]
    for e1, c1 in x.items():
        room = order - sum(e1)
        for e2, c2 in [(e, c) for d, e, c in by_degree if d < room]:
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            c0 = out.get(e)
            c = c if c0 is None else c0 + c
            if c.is_zero:
                out.pop(e, None)
            else:
                out[e] = c
    return out


class RefDualNumbers(Ring):
    """base[eps]/(eps^2); values are pairs (a, b) meaning a + b*eps."""

    def __init__(self, base):
        self.base = base

    @property
    def eps(self):
        return RingElem(self, (self.base.zero, self.base.one))

    def embed(self, a):
        return RingElem(self, (self.base(a), self.base.zero))

    def from_int(self, n):
        return RingElem(self, (self.base.from_int(n), self.base.zero))

    def from_fraction(self, fr):
        return RingElem(self, (self.base.from_fraction(fr), self.base.zero))

    def _vadd(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def _vneg(self, x):
        return (-x[0], -x[1])

    def _vmul(self, x, y):
        return (x[0] * y[0], x[0] * y[1] + x[1] * y[0])

    def _vis_zero(self, x):
        return x[0].is_zero and x[1].is_zero

    def _vinv(self, x):
        a, b = x
        ai = a.inv()
        return (ai, -(ai * b * ai))

    def residue(self, elem):
        return self.base.residue(elem.val[0])

    def atoms(self):
        out = {"e": self.eps, "eps": self.eps}
        for name, g in self.base.atoms().items():
            if name in out:
                raise RingConstructionError(f"atom name {name!r} collides with eps")
            out[name] = RingElem(self, (g, self.base.zero))
        return out

    def random_element(self, rng):
        return RingElem(self, (self.base.random_element(rng), self.base.random_element(rng)))

    def short(self, elem):
        a, b = elem.val
        if b.is_zero:
            return self.base.short(a)
        bs = self.base.short(b)
        if bs == "1":
            eps_term = "eps"
        elif bs == "-1":
            eps_term = "-eps"
        else:
            if any(c in bs[1:] for c in "+-"):
                bs = f"({bs})"
            eps_term = f"{bs}*eps"
        if a.is_zero:
            return eps_term
        head = self.base.short(a)
        return head + eps_term if eps_term.startswith("-") else f"{head}+{eps_term}"

    def format_elem(self, elem):
        a, b = elem.val
        bs = self.base.short(b)
        if not re.fullmatch(r"\d+(/\d+)?", bs):
            bs = f"({bs})"
        return f"{self.base.short(a)}+{bs}*eps"

    def __eq__(self, other):
        return isinstance(other, RefDualNumbers) and other.base == self.base

    def __hash__(self):
        return hash(("dual", self.base))


class RefLocalTruncation(Ring):
    """base[v1..vk] truncated at m^N = 0; values are dicts {exponents: base element}."""

    def __init__(self, base, var_names, order):
        self.base = base
        self.var_names = tuple(var_names)
        self.order = order
        self._zero_exp = (0,) * len(self.var_names)

    def embed(self, a):
        a = self.base(a)
        return RingElem(self, {} if a.is_zero else {self._zero_exp: a})

    def gen(self, name):
        i = self.var_names.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.var_names)))
        return RingElem(self, {e: self.base.one} if self.order > 1 else {})

    def from_int(self, n):
        return self.embed(self.base.from_int(n))

    def from_fraction(self, fr):
        return self.embed(self.base.from_fraction(fr))

    def _vadd(self, x, y):
        return _ref_sparse_add(x, y)

    def _vneg(self, x):
        return {e: -c for e, c in x.items()}

    def _vmul(self, x, y):
        return _ref_sparse_mul(x, y, self.order)

    def _vis_zero(self, x):
        return not x

    def _vinv(self, x):
        c = x.get(self._zero_exp, self.base.zero)
        ci_full = self.embed(c.inv())
        n = self.one - RingElem(self, x) * ci_full
        out, pw = self.one, n
        for _ in range(1, self.order):
            out = out + pw
            pw = pw * n
        return (out * ci_full).val

    def residue(self, elem):
        return self.base.residue(elem.val.get(self._zero_exp, self.base.zero))

    def atoms(self):
        out = {nm: self.gen(nm) for nm in self.var_names}
        for name, g in self.base.atoms().items():
            out[name] = self.embed(g)
        return out

    def random_element(self, rng):
        out = {}
        for e in self._small_exponents():
            if rng.random() < 0.6:
                c = self.base.random_element(rng)
                if not c.is_zero:
                    out[e] = c
        return RingElem(self, out)

    def _small_exponents(self, cap=2):
        todo = [self._zero_exp]
        seen = {self._zero_exp}
        while todo:
            e = todo.pop()
            for i in range(len(e)):
                e2 = tuple(a + (1 if j == i else 0) for j, a in enumerate(e))
                if sum(e2) < min(self.order, cap + 1) and e2 not in seen:
                    seen.add(e2)
                    todo.append(e2)
        return sorted(seen)

    def short(self, elem):
        terms = sorted(elem.val.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return format_terms([(e, self.base.short(c)) for e, c in terms], self.var_names)

    def __eq__(self, other):
        return (
            isinstance(other, RefLocalTruncation)
            and (other.base, other.var_names, other.order) == (self.base, self.var_names, self.order)
        )

    def __hash__(self):
        return hash(("loc", self.base, self.var_names, self.order))


def _flatten(elem):
    """The flat value {exponents over the tower, base variables first: raw} of a reference element."""
    ring = elem.ring
    if isinstance(ring, RefDualNumbers):
        parts = {(k,): c for k, c in enumerate(elem.val)}
    elif isinstance(ring, RefLocalTruncation):
        parts = elem.val
    else:
        return {(): elem.val} if elem.val else {}
    return {e + own: v for own, c in parts.items() for e, v in _flatten(c).items()}


QQ, F7 = Rationals(), PrimeField(7)
REFERENCES = {
    "dual:q": RefDualNumbers(QQ),
    "dual:fp:7": RefDualNumbers(F7),
    "loc:q:s,t:3": RefLocalTruncation(QQ, ("s", "t"), 3),
    "loc:fp:7:s:4": RefLocalTruncation(F7, ("s",), 4),
    "dual:loc:q:s,t:2": RefDualNumbers(RefLocalTruncation(QQ, ("s", "t"), 2)),
    "loc:dual:q:s,t:3": RefLocalTruncation(RefDualNumbers(QQ), ("s", "t"), 3),
}


def _draw(ring, ref, seed, count):
    """`count` elements of the ring and of its reference from one seed; the rng must end alike."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    elems = [ring.random_element(rng) for _ in range(count)]
    refs = [ref.random_element(ref_rng) for _ in range(count)]
    assert rng.getstate() == ref_rng.getstate()
    return list(zip(elems, refs))


def _agree(x, r):
    assert x.ring.flat_terms(x) == _flatten(r)
    assert x.ring.short(x) == r.ring.short(r)
    assert x.ring.format_elem(x) == r.ring.format_elem(r)
    assert x.residue() == r.residue()
    assert x.is_zero == r.is_zero


def _inverse(x):
    try:
        return x.inv()
    except NotAUnitError as e:
        return str(e)


@pytest.mark.parametrize("descriptor", list(REFERENCES))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), atom=st.integers(0, 10))
def test_flat_arithmetic_matches_the_nested_reference(descriptor, seed, atom):
    ring, ref = make_ring(descriptor), REFERENCES[descriptor]
    (x, rx), (y, ry) = _draw(ring, ref, seed, 2)
    names = sorted(ring.atoms())
    name = names[atom % len(names)]
    g, rg = ring.atoms()[name], ref.atoms()[name]
    _agree(g, rg)
    cases = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx),
             (x * g, rx * rg), (x * g + y, rx * rg + ry), (x * y * g * g, rx * ry * rg * rg)]
    for a, ra in cases:
        _agree(a, ra)
        inv, ref_inv = _inverse(a), _inverse(ra)
        if isinstance(ref_inv, str):
            assert inv == ref_inv  # the same NotAUnitError message
            assert a.try_invert() is None
        else:
            _agree(inv, ref_inv)
            assert a.try_invert() == inv


# --- the compiled kernels: rings on both sides of the size cutoff, each with
# its nested reference; past the cutoff the ring keeps the loops, and the
# kernels are compiled here all the same, to test the generated code there too

PAST_CUTOFF = {
    "dual:loc:fp:7:s,t:6": RefDualNumbers(RefLocalTruncation(F7, ("s", "t"), 6)),  # 378 entries
    "loc:q:s,t:10": RefLocalTruncation(QQ, ("s", "t"), 10),  # 715
}
CUTOFF_REFERENCES = {
    "dual:fp:7": REFERENCES["dual:fp:7"],  # 3 entries
    "loc:q:s,t:3": REFERENCES["loc:q:s,t:3"],  # 15
    "loc:dual:q:s,t:3": REFERENCES["loc:dual:q:s,t:3"],  # 45
    "loc:q:s,t:6": RefLocalTruncation(QQ, ("s", "t"), 6),  # 126, the largest map below the cutoff here
    **PAST_CUTOFF,
}


@functools.cache
def _compiled(descriptor):
    ring = make_ring(descriptor)
    return rings._compile_kernels(ring._rows, ring._p)


@pytest.mark.parametrize("descriptor", list(CUTOFF_REFERENCES))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_compiled_kernels_match_the_loops_and_the_nested_reference(descriptor, seed):
    ring, ref = make_ring(descriptor), CUTOFF_REFERENCES[descriptor]
    past = sum(map(len, ring._rows)) > rings._COMPILE_MAX_ENTRIES
    assert past is (descriptor in PAST_CUTOFF)
    assert (ring._vmul == ring._loop_mul) is past  # the ring's own product is compiled below the cutoff
    mul, add, mac = _compiled(descriptor)
    (x, rx), (y, ry), (z, rz) = _draw(ring, ref, seed, 3)
    values = [(x, rx), (y, ry), (x * y * z, rx * ry * rz), (-z, -rz), (ring.zero, ref.zero)]
    for (a, ra), (b, rb) in itertools.product(values, repeat=2):
        product, total = _flatten(ra * rb), _flatten(ra + rb)
        for times, plus in ((mul, add), (ring._loop_mul, ring._loop_add), (ring._vmul, ring._vadd)):
            for got, want in ((times(a.val, b.val), product), (plus(a.val, b.val), total)):
                got = RingElem(ring, got)
                _canonical(got)
                assert ring.flat_terms(got) == want
        if a and b:
            # the accumulators read lists too, and over Q a value over any denominator
            variants = [(a.val, b.val), (list(a.val), list(b.val))]
            if ring._p is None:
                variants.append(([3 * k for k in a.val], b.val))
            for u, v in variants:
                sums = [[1] * len(ring._monos) for _ in range(2)]
                mac(sums[0], u, v)
                ring._loop_mac(sums[1], u, v)
                assert sums[0] == sums[1]
                assert ring._norm([s - 1 for s in sums[0]], u[-1] * v[-1]) == mul(a.val, b.val)


TOWERS = [
    "dual:q",
    "loc:fp:5:s:4",
    "loc:dual:q:s,t:3",
    "dual:loc:fp:7:s,t:2",
    "loc:loc:dual:q:s:2:t,u:3",
    "dual:loc:loc:fp:5:s:3:t:2",
    "loc:dual:loc:q:s:2:t:3",
]


@pytest.mark.parametrize("descriptor", TOWERS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_short_form_parses_back(descriptor, seed):
    ring = make_ring(descriptor)
    rng = random.Random(seed)
    for _ in range(3):
        x = ring.random_element(rng)
        assert ring.parse_elem(ring.short(x)) == x
        assert ring.parse_elem(ring.format_elem(x)) == x


@pytest.mark.parametrize("descriptor", TOWERS + list(REFERENCES))
def test_values_are_flat(descriptor):
    ring = make_ring(descriptor)
    x = ring.random_element(random.Random(3))
    for e, v in ring.flat_terms(x * x + x).items():
        assert type(v) is type(ring.field.one.val)
        assert isinstance(e, tuple) and all(isinstance(k, int) for k in e)


def test_dual_numbers_over_dual_numbers_still_build():
    # built by rings.axioms on every dual:q run; only parsing needs distinct atoms
    dd = DualNumbers(make_ring("dual:q"))
    inner = dd.embed(make_ring("dual:q").eps)
    assert (inner * dd.eps).is_unit is False
    assert ((dd.one + inner + dd.eps) * (dd.one + inner + dd.eps).inv()) == dd.one
    with pytest.raises(RingConstructionError, match="collides with eps"):
        dd.atoms()


Q_TOWERS = ["dual:q", "loc:q:s,t:3", "dual:loc:q:s,t:2", "loc:dual:q:s,t:3", "loc:loc:dual:q:s:2:t,u:3"]
FP_TOWERS = ["dual:fp:7", "loc:fp:7:s:4", "dual:loc:fp:7:s,t:2", "loc:dual:loc:fp:5:s:2:t:3"]


def _canonical(x):
    """One integer numerator per monomial, then one positive denominator coprime
    to them all: over fp:p residues in [0, p) over 1.  Zero is ()."""
    ring, v = x.ring, x.val
    assert type(v) is tuple and all(type(k) is int for k in v)
    assert bool(x) is bool(v) is (not x.is_zero)
    if v:
        nums, den = v[:-1], v[-1]
        assert len(v) == len(ring._monos) + 1
        assert den > 0 and any(nums)
        assert math.gcd(den, *nums) == 1
        if isinstance(ring.field, PrimeField):
            assert den == 1 and all(0 <= k < ring.field.p for k in nums)
    return v


def _round_trips_are_canonical(ring, seed):
    rng = random.Random(seed)
    x, y = ring.random_element(rng), ring.random_element(rng)
    if not y.is_unit:
        y = y + 1
    assert _canonical((x * y) * y.inv()) == _canonical(x)
    assert _canonical((x + y) - y) == _canonical(x)
    assert _canonical(x - x) == () and not (x - x)
    for z in (x * y, x + y, -x, y.inv(), ring.one, ring.zero):
        _canonical(z)


@pytest.mark.parametrize("descriptor", Q_TOWERS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_values_over_q_are_canonical(descriptor, seed):
    _round_trips_are_canonical(make_ring(descriptor), seed)


@pytest.mark.parametrize("descriptor", FP_TOWERS)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_values_over_fp_are_canonical(descriptor, seed):
    _round_trips_are_canonical(make_ring(descriptor), seed)


@pytest.mark.parametrize("descriptor", ["dual:fp:7", "loc:fp:7:s:4", "dual:loc:q:s,t:2"])
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    # (numerator, denominator) pairs; every denominator is a unit mod 7
    coeffs=st.lists(
        st.tuples(st.integers(-50, 50), st.sampled_from([1, 2, 3, 4, 6, 12])), min_size=1, max_size=4
    ),
)
def test_every_constructor_returns_canonical_values(descriptor, seed, coeffs):
    ring = make_ring(descriptor)
    rng = random.Random(seed)
    names = sorted(ring.atoms())
    # a literal sum of coefficient * atom terms, and one constant term
    literal = "+".join(f"({n}/{d})*{names[k % len(names)]}" for k, (n, d) in enumerate(coeffs)) + "+1/5"
    x, y = ring.parse_elem(literal), ring.random_element(rng)
    assert ring.parse_elem(ring.short(x)) == x
    a, b = ring.base.random_element(rng), ring.base.from_fraction(Fraction(*coeffs[0]))
    built = [x, y, x * y, ring.embed(a), ring.embed(b)]
    built += [z.inv() for z in (x, y, x * y, x + 1, y - 1) if z.is_unit]
    for z in built:
        _canonical(z)


@pytest.mark.parametrize("descriptor", ["dual:q", "loc:q:s,t:3"])
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)).filter(lambda c: c not in (0, 1, -1)),
)
def test_inverse_of_a_unit_whose_residue_is_not_plus_or_minus_one(descriptor, seed, c):
    # a residue c other than +-1 differs from 1/c and from -c, so a slip between them shows
    ring = make_ring(descriptor)
    x = ring.random_element(random.Random(seed))
    u = x - ring.embed(x.residue()) + ring.from_fraction(c)
    inv = u.inv()
    assert inv.residue() == ring.field.from_fraction(1 / c)
    assert _canonical(u * inv) == _canonical(inv * u) == ring.one.val


def test_the_literal_bound_reads_each_coefficient_not_the_shared_denominator(capsys):
    ring = make_ring("loc:q:s,t:3")
    x = ring.parse_elem("s*(1/2)^3000 + t*(1/3)^2000")
    assert x.val[-1].bit_length() == 6170  # 2^3000 * 3^2000, shared by both coefficients
    assert sorted(ring.flat_terms(x).values()) == [(1, 2**3000), (1, 3**2000)]  # each in lowest terms
    with pytest.raises(CoeffParseError, match="bound of 4096 bits"):
        ring.parse_elem("s*(1/2)^4100")
    assert cli.main(["factorize", "--ring", "loc:q:s,t:3", "--gamma", "s*(1/2)^4100"]) == 2
    assert "bound of 4096 bits" in capsys.readouterr().err


def _wide(n):
    """n variables of order 2: n + 1 monomials, 2n + 1 pairs."""
    return "loc:q:" + ",".join(f"v{i}" for i in range(n)) + ":2"


_WIDE = _wide(5000)


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ("dual:" * 12 + "q", "collides with eps"),  # refused at the second level, before it is built
        ("dual:" * 20 + "q", "more than 16 nested dual:/loc: levels"),
        ("loc:" * 2000 + "q" + "".join(f":v{i}:1" for i in range(2000)), "more than 16 nested"),
        ("loc:" * 12 + "q" + "".join(f":v{i}:2" for i in range(12)), "product table passes"),  # 3^12 pairs
        ("loc:q:s:100000", "product table passes"),
        ("loc:q:s,t:300", "product table passes"),
        (f"loc:q:s:{10**4000}", "product table passes"),
        pytest.param(_WIDE, "passes 1200 monomials", id="loc:q:v0,...,v4999:2"),  # 10,001 pairs
    ],
)
def test_rings_past_the_size_bound_are_refused_before_their_table_is_built(descriptor, message):
    with pytest.raises(RingConstructionError, match=message):
        make_ring(descriptor)


def test_the_size_bound_counts_the_pairs_of_the_product_table():
    # loc:q:s:N has (N+1)N/2 pairs: 99,681 at N = 446, 100,128 at N = 447
    ring = make_ring("loc:q:s:446")
    assert sum(map(len, ring._rows)) == 99_681 <= rings._MAX_PAIRS
    with pytest.raises(RingConstructionError, match="size bound"):
        make_ring("loc:q:s:447")
    # a tower multiplies its levels' counts: 3 * 3 * 6 pairs
    assert sum(map(len, make_ring("loc:dual:loc:q:s:2:t:3")._rows)) == 54
    # levels of order 1 add no pairs; 16 of them are the most a descriptor may nest
    assert sum(map(len, make_ring("loc:" * 16 + "q" + "".join(f":v{i}:1" for i in range(16)))._rows)) == 1


def test_the_cli_refuses_rings_whose_dual_extension_passes_the_size_bound(capsys):
    # loc:q:s,t:33 has 58,905 pairs; the dual numbers over it, 176,715, and
    # only check-all builds them
    assert cli.main(["check-all", "--ring", "loc:q:s,t:33"]) == 2
    assert "'dual:loc:q:s,t:33', which the checks build" in capsys.readouterr().err
    assert cli.main(["normal-form", "--ring", "loc:q:s:100000"]) == 2
    assert "size bound" in capsys.readouterr().err


def test_the_size_bound_counts_monomials():
    assert len(make_ring(_wide(1199))._monos) == 1200 == rings._MAX_MONOMIALS
    with pytest.raises(RingConstructionError, match="passes 1200 monomials"):
        make_ring(_wide(1200))
    # a tower multiplies its levels' counts: the dual numbers over loc:q:s,t,u:14, 2 * 560
    assert len(DualNumbers(make_ring("loc:q:s,t,u:14"))._monos) == 1120


def test_the_cli_refuses_wide_rings_at_once(capsys):
    start = time.perf_counter()
    argv = ["check-all", "--ring", _WIDE, "--s", "v0", "--t", "v1", "--gamma", "3", "--delta", "1"]
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1
    assert "passes 1200 monomials, the size bound" in capsys.readouterr().err
    # the dual numbers over 600 variables have 1,202 monomials
    assert cli.main(["check-all", "--ring", _wide(600)]) == 2
    assert "which the checks build: ring too large" in capsys.readouterr().err


def test_literal_parses_build_the_atoms_once(monkeypatch):
    ring = make_ring(_wide(599))  # v0, ..., v598
    built = []
    atoms = ring.atoms
    monkeypatch.setattr(ring, "atoms", lambda: built.append(1) or atoms())
    parsed = [ring.parse_elem(lit) for lit in ("v0+1", "1+v0", "v0 + 1", "(v0+1)^1")]
    assert all(x == ring.gen("v0") + 1 for x in parsed)
    assert ring.parse_elem("v1*v2+v598") == ring.gen("v598")  # v1*v2 lies past the order
    assert len(built) == 1
    tower = make_ring("dual:loc:q:s,t:2")
    first = [tower.parse_elem(lit) for lit in ("s+eps", "1/2*t-eps*s")]
    again = [tower.parse_elem(lit) for lit in ("s+eps", "1/2*t-eps*s")]
    fresh = [make_ring("dual:loc:q:s,t:2").parse_elem(lit) for lit in ("s+eps", "1/2*t-eps*s")]
    assert first == again == fresh


# --- the composite pair loop: each side over one denominator, one `_norm` per
# output coefficient, against the loop that normalised every partial sum


def _tower_vectors(ring, rnd, count, max_len):
    """`count` vectors of the raw values of random elements, about a quarter
    of them zero."""
    return [
        [ring.random_element(rnd).val if rnd.random() < 0.75 else () for _ in range(rnd.randint(0, max_len))]
        for _ in range(count)
    ]


def _tower_outputs(rnd, left, right):
    """Up to four outputs of up to five pairs, each long enough for its products, some longer."""
    outputs = []
    for _ in range(rnd.randint(0, 4)):
        pairs = [(rnd.randrange(len(left)), rnd.randrange(len(right))) for _ in range(rnd.randint(0, 5))]
        need = max((max(len(left[i]) + len(right[j]) - 1, 0) for i, j in pairs), default=0)
        outputs.append((need + rnd.randint(0, 2), pairs))
    return outputs


@pytest.mark.parametrize("descriptor", [*REFERENCES, *PAST_CUTOFF])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_product_sums_match_the_pair_loop(descriptor, seed):
    # raw values, so canonical ones on both sides: the denominators the
    # random elements draw differ within each side and between the two
    rnd = random.Random(seed)
    ring = make_ring(descriptor)
    left, right = _tower_vectors(ring, rnd, 3, 6), _tower_vectors(ring, rnd, 3, 6)
    outputs = _tower_outputs(rnd, left, right)
    assert _product_sums(ring, left, right, outputs) == pair_loop_sums(ring, left, right, outputs)


def _groups(ring):
    """(variable count, order) of each level of a tower, bottom level first:
    the flat exponents of `flat_terms` list the variables in this order."""
    out = []
    while isinstance(ring, rings.TruncatedRing):
        out.append((len(ring.var_names), getattr(ring, "order", 2)))
        ring = ring.base
    return out[::-1]


@pytest.mark.parametrize("descriptor", list(REFERENCES))
@pytest.mark.parametrize("seed", range(3))
def test_product_sums_match_sympy_products_modulo_the_truncation_ideal(descriptor, seed):
    # each vector is a polynomial in the tower's variables and Z (Z^k at
    # entry k); sympy multiplies them over QQ or GF(7) and the truncation
    # ideal, monomial, is applied by dropping every term with some level's
    # variables at total degree >= its order
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(f"{descriptor}:{seed}")
    ring = make_ring(descriptor)
    p = getattr(ring.field, "p", None)
    groups = _groups(ring)
    gens = sympy.symbols(f"v0:{sum(n for n, _ in groups)}") + (sympy.Symbol("Z"),)
    domain = sympy.GF(p) if p else sympy.QQ

    def field(raw):
        if p:
            return raw
        (n,), d = ring.field._ints(raw)
        return sympy.Rational(n, d)

    def terms(vec):  # a vector of raw values
        elems = [RingElem(ring, c) for c in vec]
        return {e + (k,): field(v) for k, c in enumerate(elems) for e, v in ring.flat_terms(c).items()}

    def poly(vec):
        return sympy.Poly.from_dict(terms(vec) or {(0,) * len(gens): 0}, *gens, domain=domain)

    def truncated(poly_):
        out = {}
        for e, v in poly_.as_dict().items():
            start, kept = 0, True
            for n, order in groups:
                kept = kept and sum(e[start : start + n]) < order
                start += n
            if kept and v:
                out[e] = int(v) % p if p else v
        return out

    left, right = _tower_vectors(ring, rnd, 3, 5), _tower_vectors(ring, rnd, 3, 5)
    outputs = _tower_outputs(rnd, left, right)
    for (length, pairs), got in zip(outputs, _product_sums(ring, left, right, outputs)):
        assert len(got) == length
        want = sum((poly(left[i]) * poly(right[j]) for i, j in pairs), poly([]))
        assert terms(got) == truncated(want)
