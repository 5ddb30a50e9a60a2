"""Exact Gaussian elimination over a coefficient field.

Matrices are lists of row lists of ring elements.  Everything is pure and
exact; `rank` counts the homs of the duality check, and `kernel_basis`
names the homs its span misses when that check fails.  Rows of differing
length raise ValueError.

Inside the module a matrix is a list of sparse rows {column: raw value}: the
``val`` of each nonzero entry, an int reduced mod p over F_p; a value over Q
is read and written only through the ring's ``_ints``, ``_norm`` and
``_vneg``.  One elimination loop, `_eliminate`, runs on these rows.  It
takes the columns in order and keeps a column index, the set of rows with an
entry in each column, so a pivot step visits only the rows it changes.  A
column's pivot is the row there with the fewest entries
(Markowitz's rule), which keeps fill-in low on the sparse certificate
matrices.  Whichever row is chosen, the pivot columns and the reduced pivot
rows cut to the first ``ncols`` columns are those of the unique reduced row
echelon form, and the rows left without a pivot span the same space.  So
`rank` and `kernel_basis` return what dense elimination returns.  `rref`
alone takes the first row with an entry, as dense elimination does,
because its rows also carry the columns right of ``ncols``, whose entries
depend on the choice.  Over F_p the loop scales
each pivot row to a leading 1.  Over Q it eliminates fraction-free
(one-step, Bareiss 1968): each row is cleared of denominators once and kept
as a primitive integer row, a nonzero multiple of the row elimination over Q
would build, so the pivots and every returned value are the same.  Values
are wrapped back into ring elements, and rows over Q scaled to a leading 1,
only where results leave the module.
"""

from __future__ import annotations

from math import gcd, lcm

from .rings import PrimeField, RingElem


def _require_field(ring):
    if not ring.is_field:
        raise ValueError(f"linear algebra needs a field, got {ring.descriptor()}")


def _width(rows):
    """The common length of the rows of a matrix; ValueError names a row of another length."""
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {width}")
    return width


def _sparse(rows, ncols=None):
    """Sparse raw rows of a matrix, cut to its first ``ncols`` columns unless None."""
    _width(rows)
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


def _integer_row(ring, row):
    """Make a sparse row of raw values over Q primitive integer, in place:
    cleared of denominators and divided by the gcd of its entries."""
    ints = [ring._ints(x) for x in row.values()]
    den = lcm(*[d for _, d in ints])
    for j, ((n,), d) in zip(row, ints):
        row[j] = n * (den // d)
    _divide_content(row)


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(ring, rows, ncols, full, first_row=False):
    """Eliminate sparse raw rows in place, pivoting on the columns below ``ncols``.

    Returns the pivot columns; ``rows[:len(pivots)]`` are then the pivot rows,
    in pivot order, and the rows left without a pivot follow.  Over F_p each
    pivot row is scaled to a leading 1; over Q every row is a primitive
    integer row, a nonzero multiple of the row the same steps on
    rationals build (see `_unit`).  ``full=True`` clears each pivot
    column above and below the pivot (the reduced row echelon form);
    ``full=False`` clears below only.

    Columns are taken in order.  ``index[c]`` holds the rows with an entry in
    column ``c < ncols``; it is updated on every fill-in and cancellation, so
    the pivot search and the clearing visit only those rows.  The pivot is
    the remaining row with the fewest entries, the lowest current position
    breaking ties, or with ``first_row=True`` the remaining row at the lowest
    current position; it is swapped into place either way.  The choice
    changes only the entries right of ``ncols`` of the pivot rows (see the
    module docstring), so only `rref` needs ``first_row``.
    """
    p = _modulus(ring)
    if p is None:
        for row in rows:
            _integer_row(ring, row)
    m = len(rows)
    # rows keep their index in ``rows`` until the end; ``order`` lists them by
    # current position, ``pos`` is its inverse
    order = list(range(m))
    pos = list(range(m))
    index = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            if j < ncols:
                index[j].add(i)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        hits = index[c]
        # with ``full`` the pivot rows stay indexed, to be cleared above the
        # pivot; only the rows from position r on may pivot
        remaining = [i for i in hits if pos[i] >= r] if full else hits
        if not remaining:
            continue
        if first_row:
            k = min(remaining, key=pos.__getitem__)
        else:
            k = min(remaining, key=lambda i: (len(rows[i]), pos[i]))
        other = order[r]
        order[r], order[pos[k]] = k, other
        pos[k], pos[other] = r, pos[k]
        prow = rows[k]
        a = prow[c]
        # one ring inversion per pivot (perfbench's tracer counts the rank
        # by them; over Q its value goes unused, `_unit` scales at the end);
        # every other operation is on raw values
        inv = RingElem(ring, ring._norm((a,), 1)).inv().val
        if p is not None:
            prow = rows[k] = {j: b * inv % p for j, b in prow.items()}
        if not full:
            for j in prow:
                if j < ncols:
                    index[j].discard(k)
        # each cleared row's entry in column c cancels: it is popped, and
        # index[c] is reset once all are cleared
        tail = dict(prow)
        del tail[c]
        for i in [i for i in hits if i != k]:
            row = rows[i]
            f = row.pop(c)
            if p is None:
                # row <- (a/g) row - (f/g) prow, then divided by its content
                g = gcd(a, f)
                f //= g
                if a != g:
                    s = a // g
                    for j in row:
                        row[j] *= s
            for j, b in tail.items():
                v = row.get(j)
                if v is None:
                    v = -f * b
                    row[j] = v % p if p is not None else v
                    if j < ncols:
                        index[j].add(i)
                    continue
                v -= f * b
                if p is not None:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
                    if j < ncols:
                        index[j].discard(i)
            if p is None:
                _divide_content(row)
        index[c] = {k} if full else set()
        pivots.append(c)
    rows[:] = [rows[i] for i in order]
    return pivots


def _unit(ring, row, c):
    """A pivot row of `_eliminate` scaled to a leading 1 at column ``c``."""
    if _modulus(ring) is not None:
        return row
    a = row[c]  # a primitive integer pivot, which may be negative
    return {j: ring._norm((x if a > 0 else -x,), abs(a)) for j, x in row.items()}


def rref(ring, rows, ncols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    _require_field(ring)
    red = _sparse(rows)
    width = len(rows[0]) if rows else 0
    pivots = _eliminate(ring, red, ncols, full=True, first_row=True)
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
    one, neg = ring.one.val, ring._vneg
    basis = {fc: {fc: one} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(red, pivots):
        for fc, x in _unit(ring, row, pc).items():
            if fc != pc:
                basis[fc][pc] = neg(x)
    return [_dense(ring, v, ncols) for v in basis.values()]

