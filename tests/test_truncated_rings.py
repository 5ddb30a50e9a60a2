"""Differential tests of the flat truncated-ring arithmetic.

The reference below is the nested implementation the flat one replaced: a
dual number is a pair of base-ring elements and a truncated local ring
element a dict of them, so every operation recurses through the tower.  On
the same seeded draws both must consume the rng alike and agree on every
operation, on the printed forms and on the values themselves.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from nodal_kit.rings import (
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
    assert x.val == _flatten(r)
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
    for e, v in (x * x + x).val.items():
        assert type(v) is type(ring.residue_ring().one.val)
        assert isinstance(e, tuple) and all(isinstance(k, int) for k in e)


def test_dual_numbers_over_dual_numbers_still_build():
    # built by rings.axioms on every dual:q run; only parsing needs distinct atoms
    dd = DualNumbers(make_ring("dual:q"))
    inner = dd.embed(make_ring("dual:q").eps)
    assert (inner * dd.eps).is_unit is False
    assert ((dd.one + inner + dd.eps) * (dd.one + inner + dd.eps).inv()) == dd.one
    with pytest.raises(RingConstructionError, match="collides with eps"):
        dd.atoms()
