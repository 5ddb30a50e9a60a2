import random

import pytest

from nodal_kit import normal_form
from nodal_kit.dp_ring import DegreeOverflowError, mul_columns
from nodal_kit.linalg import _dense_rows, rank
from nodal_kit.rings import DualNumbers, LocalTruncation, PrimeField, Rationals


@pytest.fixture
def rng():
    return random.Random(90125)


@pytest.fixture
def QQ():
    return Rationals()


@pytest.fixture
def F5():
    return PrimeField(5)


@pytest.fixture
def F7():
    return PrimeField(7)


@pytest.fixture
def DQ():
    return DualNumbers(Rationals())


@pytest.fixture
def LOC():
    return LocalTruncation(Rationals(), ("s", "t"), 3)


def random_unit_disc(ring, rng):
    """A (gamma, delta) pair whose discriminant is a unit."""
    while True:
        g = ring.random_element(rng)
        d = ring.random_element(rng)
        if (g * g - 4 * d).is_unit:
            return g, d


def dp_vector(elem, bound):
    """Dense coefficient vector of a canonical form in the degree-major layout
    of the certificate matrices: Y^k at 2k, X*Y^k at 2k + 1, k <= bound."""
    if elem.degree() is not None and elem.degree() > bound:
        raise DegreeOverflowError(f"element degree {elem.degree()} exceeds {bound}")
    out = [elem.dp.ring.zero] * (2 * (bound + 1))
    out[0 : 2 * len(elem.fc) : 2] = elem.fc
    out[1 : 2 * len(elem.gc) : 2] = elem.gc
    return out


def dp_basis(dp, bound):
    """The canonical basis 1, X, Y, X*Y, ..., Y^bound, X*Y^bound, in the order of `dp_vector`."""
    out = []
    for k in range(bound + 1):
        power = (0,) * k + (1,)
        out += [dp.element(power, ()), dp.element((), power)]
    return out


def mul_kernel_dimension(elem, bound):
    """The kernel dimension of multiplication by `elem` on canonical degree
    <= bound, read off a rank of its matrix: the route by which the
    non-zero-divisor v - t was certified before its closed form, kept as the
    reference for it."""
    ring = elem.dp.ring
    out_bound = bound + (elem.degree() or 0) + 1
    cols = mul_columns(elem, bound, out_bound)
    return len(cols) - rank(ring, _dense_rows(ring, cols, 2 * (out_bound + 1)), len(cols))


def perturbed_rows(monkeypatch, row, column):
    """Make `_correction_rows` return one composed scalar plus one."""
    real = normal_form._correction_rows

    def perturbed(q):
        rows = [list(r) for r in real(q)]
        rows[row][column] = rows[row][column] + 1
        return tuple(tuple(r) for r in rows)

    monkeypatch.setattr(normal_form, "_correction_rows", perturbed)


def perturbed_step(monkeypatch, step, which):
    """Make the `step`-th call of `_apply_rows` (step `step` of the first
    iteration run) add one to coefficient 0 of output `which`."""
    real, calls = normal_form._apply_rows, []

    def perturbed(ring, rows, parts):
        out = real(ring, rows, parts)
        calls.append(None)
        if len(calls) == step:
            vec = out[which]
            out[which] = (vec[0] + 1,) + vec[1:]
        return out

    monkeypatch.setattr(normal_form, "_apply_rows", perturbed)
