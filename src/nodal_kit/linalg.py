"""Exact Gaussian elimination over a coefficient field.

Matrices are lists of row lists of ring elements.  Everything is pure and
exact; these routines back the kernel/rank certificates used by the duality
and exactness checks.

Inside the module a matrix is a list of sparse rows {column: raw value}: the
``val`` of each nonzero entry, an int reduced mod p over F_p and a
``Fraction`` over Q.  One elimination loop runs on these rows.  Over F_p it
scales each pivot row to a leading 1.  Over Q it eliminates fraction-free
(one-step, Bareiss 1968): each row is cleared of denominators once and
kept as a primitive integer row, a nonzero multiple of the row elimination
over Q would build, so the pivots and every returned value are the same.
Values are wrapped back into ring elements, and rows over Q scaled to a
leading 1, only where results leave the module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rings import PrimeField, RingElem


def _require_field(ring):
    if not ring.is_field:
        raise ValueError(f"linear algebra needs a field, got {ring.descriptor()}")


def _sparse(rows, ncols=None):
    """Sparse raw rows of a matrix, cut to its first ``ncols`` columns unless None."""
    return [{c: x.val for c, x in enumerate(row[:ncols]) if x.val} for row in rows]


def _dense(ring, row, width):
    """The ring elements of a sparse raw row, as a list of ``width`` entries."""
    zero = ring.zero
    return [RingElem(ring, row[j]) if j in row else zero for j in range(width)]


def _dense_rows(ring, cols, nrows):
    """The ``nrows`` ring-element rows of a matrix given by sparse raw columns."""
    rows = [[ring.zero] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            rows[i][j] = RingElem(ring, x)
    return rows


def _modulus(ring):
    """p over F_p, where raw values are reduced mod p; None over Q."""
    return ring.p if isinstance(ring, PrimeField) else None


def _integer_row(row):
    """Make a sparse row of ``Fraction``s primitive integer, in place: cleared
    of denominators and divided by the gcd of its entries."""
    den = lcm(*[x.denominator for x in row.values()])
    for j, x in row.items():
        row[j] = x.numerator * (den // x.denominator)
    _divide_content(row)


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(ring, rows, ncols, full):
    """Eliminate sparse raw rows in place, pivoting on the columns below ``ncols``.

    Returns the pivot columns; ``rows[:len(pivots)]`` are then the pivot rows.
    Over F_p each is scaled to a leading 1; over Q every row is a primitive
    integer row, a nonzero multiple of the row the same steps on
    ``Fraction``s build (see `_unit`).  A column's pivot is the first
    remaining row with an entry there, swapped into place as in dense
    elimination, so the entries right of ``ncols`` come out the same too.
    ``full=True`` clears each pivot column above and below the pivot (the
    reduced row echelon form); ``full=False`` clears below only.
    """
    p = _modulus(ring)
    if p is None:
        for row in rows:
            _integer_row(row)
    m = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        i = next((i for i in range(r, m) if c in rows[i]), None)
        if i is None:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        rows[r] = prow
        a = prow[c]
        # one ring inversion per pivot (perfbench's tracer counts the rank
        # by them; over Q its value goes unused, `_unit` scales at the end);
        # every other operation is on raw values
        inv = RingElem(ring, Fraction(a) if p is None else a).inv().val
        if p is not None:
            prow = rows[r] = {j: b * inv % p for j, b in prow.items()}
        for i in range(0 if full else r + 1, m):
            row = rows[i]
            f = row.get(c)
            if f is None or i == r:
                continue
            if p is None:
                # row <- (a/g) row - (f/g) prow, then divided by its content
                g = gcd(a, f)
                f //= g
                if a != g:
                    s = a // g
                    for j in row:
                        row[j] *= s
            for j, b in prow.items():
                v = row.get(j, 0) - f * b
                if p is not None:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
            if p is None:
                _divide_content(row)
        pivots.append(c)
    return pivots


def _unit(ring, row, c):
    """A pivot row of `_eliminate` scaled to a leading 1 at column ``c``."""
    if _modulus(ring) is not None:
        return row
    a = row[c]
    return {j: Fraction(x, a) for j, x in row.items()}


def rref(ring, rows, ncols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    _require_field(ring)
    width = len(rows[0]) if rows else 0
    red = _sparse(rows)
    pivots = _eliminate(ring, red, ncols, full=True)
    return [_dense(ring, _unit(ring, row, c), width) for row, c in zip(red, pivots)], pivots


def rank(ring, rows, ncols):
    _require_field(ring)
    return len(_eliminate(ring, _sparse(rows, ncols), ncols, full=False))


def kernel_basis(ring, rows, ncols):
    """Basis of the right kernel {v : A v = 0} of an m x ncols matrix."""
    _require_field(ring)
    red = _sparse(rows, ncols)
    pivots = _eliminate(ring, red, ncols, full=True)
    pivot_set = set(pivots)
    p = _modulus(ring)
    one = ring.one.val  # a Fraction over Q, as every raw value there
    basis = {fc: {fc: one} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(red, pivots):
        for fc, x in _unit(ring, row, pc).items():
            if fc != pc:
                basis[fc][pc] = -x if p is None else -x % p
    return [_dense(ring, v, ncols) for v in basis.values()]


def consistent_many(ring, rows, ncols, rhs_list):
    """For each rhs, whether A x = rhs is solvable; one elimination for all.

    Forward elimination with pivots restricted to the structural columns;
    a right-hand side is consistent iff its entries vanish on the rows left
    without a pivot.
    """
    _require_field(ring)
    if not rhs_list:
        return []
    aug = _sparse([list(row[:ncols]) + [rhs[i] for rhs in rhs_list] for i, row in enumerate(rows)])
    r = len(_eliminate(ring, aug, ncols, full=False))
    left = set().union(*aug[r:])
    return [ncols + j not in left for j in range(len(rhs_list))]
