"""Exact Gaussian elimination over a coefficient field.

Matrices are lists of row lists of ring elements.  Everything is pure and
exact; these routines back the kernel/rank certificates used by the duality
and exactness checks.
"""

from __future__ import annotations


def _require_field(ring):
    if not ring.is_field:
        raise ValueError(f"linear algebra needs a field, got {ring.descriptor()}")


def rref(ring, rows, ncols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    _require_field(ring)
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(ring, rows, ncols):
    return len(rref(ring, rows, ncols)[1])


def kernel_basis(ring, rows, ncols):
    """Basis of the right kernel {v : A v = 0} of an m x ncols matrix."""
    red, pivots = rref(ring, rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ring.zero] * ncols
        v[fc] = ring.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(ring, rows, ncols, rhs):
    """One solution of A x = rhs, or None when inconsistent."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(ring, aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [ring.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def consistent_many(ring, rows, ncols, rhs_list):
    """For each rhs, whether A x = rhs is solvable; one elimination for all.

    Forward elimination with pivots restricted to the structural columns;
    a right-hand side is consistent iff its entries vanish on the rows left
    without a pivot.
    """
    _require_field(ring)
    m = len(rows)
    if not rhs_list:
        return []
    k = len(rhs_list)
    aug = [list(rows[i]) + [rhs[i] for rhs in rhs_list] for i in range(m)]
    r = 0
    width = ncols + k
    for c in range(ncols):
        pivot = None
        for i in range(r, m):
            if not aug[i][c].is_zero:
                pivot = i
                break
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = aug[r][c].inv()
        aug[r] = [inv * x for x in aug[r]]
        for i in range(r + 1, m):
            f = aug[i][c]
            if not f.is_zero:
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        r += 1
        if r == m:
            break
    return [
        all(aug[i][ncols + j].is_zero for i in range(r, m))
        for j in range(k)
    ]
