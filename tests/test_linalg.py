import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nodal_kit.linalg import _dense, _eliminate, _sparse, _unit, kernel_basis, rank, rref
from nodal_kit.rings import PrimeField, Rationals, RingElem

QQ = Rationals()
F7 = PrimeField(7)


def _random_matrix(ring, rnd, m, n):
    return [[ring.random_element(rnd) for _ in range(n)] for _ in range(m)]


def _matvec(ring, rows, x):
    return [sum((a * b for a, b in zip(row, x)), ring.zero) for row in rows]


@pytest.mark.parametrize("ring", [QQ, F7], ids=["q", "fp7"])
def test_kernel_vectors_annihilate(ring):
    rnd = random.Random(11)
    for _ in range(15):
        m, n = rnd.randint(1, 6), rnd.randint(1, 6)
        rows = _random_matrix(ring, rnd, m, n)
        for v in kernel_basis(ring, rows, n):
            assert all(c.is_zero for c in _matvec(ring, rows, v))
        assert rank(ring, rows, n) + len(kernel_basis(ring, rows, n)) == n


def test_rref_pivots_are_unit_columns():
    rnd = random.Random(14)
    rows = _random_matrix(F7, rnd, 5, 7)
    red, pivots = rref(F7, rows, 7)
    for r, c in enumerate(pivots):
        assert red[r][c] == F7.one
        for i in range(len(red)):
            if i != r:
                assert red[i][c].is_zero


def test_field_requirement():
    from nodal_kit.rings import make_ring

    loc = make_ring("loc:q:s:2")
    with pytest.raises(ValueError):
        rank(loc, [[loc.one]], 1)


# --- differential tests against dense RingElem elimination --------------------
#
# The reference below is the dense elimination linalg.py ran before its
# sparse raw-value kernel: every entry a ring element, every zero visited.


def _ref_rref(ring, rows, ncols):
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


def _ref_kernel_basis(ring, rows, ncols):
    red, pivots = _ref_rref(ring, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [ring.zero] * ncols
        v[fc] = ring.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def _raw(x):
    """Exact value and value type of an element, of a nested list of them, or of None."""
    if isinstance(x, (list, tuple)):
        return [_raw(y) for y in x]
    return x if x is None or isinstance(x, int) else (type(x.val), x.val)


DIFF_RINGS = {"fp2": PrimeField(2), "fp101": PrimeField(101), "q": QQ}


def _elem(ring, n, d):
    return ring.from_fraction(Fraction(n, d)) if ring == QQ else ring.from_int(n)


@st.composite
def systems(draw, ring):
    """(rows, ncols) with zero columns, duplicate rows and augmented columns.

    The matrix has width >= ncols, so the columns from ncols on are carried
    through the elimination without being pivoted on.
    """
    m = draw(st.integers(0, 6))
    width = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, width))
    entry = st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2, 3, -4]), st.integers(1, 3))
    rows = [[_elem(ring, *draw(entry)) for _ in range(width)] for _ in range(m)]
    if width:
        for c in draw(st.sets(st.integers(0, width - 1), max_size=2)):
            for row in rows:
                row[c] = ring.zero
    if rows:
        rows += [list(rows[i]) for i in draw(st.lists(st.integers(0, m - 1), max_size=2))]
    return rows, ncols


@pytest.mark.parametrize("name", list(DIFF_RINGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sparse_kernel_matches_dense_reference(name, data):
    ring = DIFF_RINGS[name]
    rows, ncols = data.draw(systems(ring))
    red, pivots = rref(ring, rows, ncols)
    ref_red, ref_pivots = _ref_rref(ring, rows, ncols)
    assert pivots == ref_pivots
    assert _raw(red) == _raw(ref_red)
    assert rank(ring, rows, ncols) == len(ref_pivots)
    assert _raw(kernel_basis(ring, rows, ncols)) == _raw(_ref_kernel_basis(ring, rows, ncols))


@pytest.mark.parametrize("name", list(DIFF_RINGS))
def test_sparse_kernel_edge_shapes(name):
    ring = DIFF_RINGS[name]
    one, two, zero = ring.one, _elem(ring, 2, 1), ring.zero
    cases = [
        ([], 0),  # no rows, no columns
        ([], 3),  # no rows
        ([[zero, one, two], [zero, two, one]], 3),  # an all-zero column
        ([[one, two, one], [one, two, one], [one, two, one]], 3),
        ([[one, zero, one], [one, one, zero]], 1),  # ncols below the row width
        ([[zero, zero], [zero, zero]], 2),  # the zero matrix
    ]
    for rows, ncols in cases:
        assert _raw(rref(ring, rows, ncols)) == _raw(_ref_rref(ring, rows, ncols))
        assert rank(ring, rows, ncols) == len(_ref_rref(ring, rows, ncols)[1])
        assert _raw(kernel_basis(ring, rows, ncols)) == _raw(_ref_kernel_basis(ring, rows, ncols))


# --- fraction-free elimination over Q against the Fraction loop ---------------
#
# Over Q linalg.py eliminates on primitive integer rows.  The reference below
# is the loop it ran before, on sparse rows of Fractions with each pivot row
# scaled to a leading 1; the integer rows must give the same pivots and the
# same Fractions, also right of ncols, where the values depend on the order
# of the steps.


def _fraction_eliminate(rows, ncols, full):
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
        inv = 1 / prow[c]
        prow = {j: b * inv for j, b in prow.items()}
        rows[r] = prow
        for i in range(0 if full else r + 1, m):
            row = rows[i]
            f = row.get(c)
            if f is None or i == r:
                continue
            for j, b in prow.items():
                v = row.get(j, 0) - f * b
                if v:
                    row[j] = v
                else:
                    del row[j]
        pivots.append(c)
    return pivots


def _fraction_rows(rows, ncols=None):
    return [{c: x for c, x in enumerate(row[:ncols]) if x} for row in rows]


def _fraction_rref(rows, ncols):
    width = len(rows[0]) if rows else 0
    red = _fraction_rows(rows)
    pivots = _fraction_eliminate(red, ncols, full=True)
    return [[row.get(j, Fraction(0)) for j in range(width)] for row in red[: len(pivots)]], pivots


def _fraction_kernel_basis(rows, ncols):
    red = _fraction_rows(rows, ncols)
    pivots = _fraction_eliminate(red, ncols, full=True)
    basis = {fc: {fc: Fraction(1)} for fc in range(ncols) if fc not in pivots}
    for row, pc in zip(red, pivots):
        for fc, x in row.items():
            if fc != pc:
                basis[fc][pc] = -x
    return [[v.get(j, Fraction(0)) for j in range(ncols)] for v in basis.values()]


@contextlib.contextmanager
def _counted_inversions():
    """Record every RingElem.inv call made inside the block."""
    calls, inv = [], RingElem.inv

    def counted(x):
        calls.append(x.val)
        return inv(x)

    RingElem.inv = counted
    try:
        yield calls
    finally:
        RingElem.inv = inv


_BIG = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


@st.composite
def rational_systems(draw):
    """(rows, ncols) over Q: entries with numerators and denominators up to
    2^64, rows whose first ncols columns combine fewer base rows (so the
    matrix is rank deficient) while the columns from ncols on are drawn
    freely."""
    entry = st.one_of(st.just(Fraction(0)), _BIG, st.sampled_from([Fraction(1), Fraction(-1, 2)]))
    m = draw(st.integers(0, 6))
    width = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, width))
    base = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(0, m)))]
    rows = []
    for _ in range(m):
        coeffs = [draw(entry) for _ in base]
        left = [sum((c * b[j] for c, b in zip(coeffs, base)), Fraction(0)) for j in range(ncols)]
        rows.append(left + [draw(entry) for _ in range(width - ncols)])
    return rows, ncols


def _fractions(rows):
    """The value type and value of every entry of a list of element rows."""
    return [[(type(x.val), x.val) for x in row] for row in rows]


def _q_raw(x):
    """The canonical raw value over Q of a Fraction: (numerator, denominator) in
    lowest terms with a positive denominator, and () for zero."""
    return (tuple, (x.numerator, x.denominator) if x else ())


@settings(max_examples=200, deadline=None)
@given(system=rational_systems())
def test_integer_rows_over_q_match_the_fraction_loop(system):
    rows, ncols = system
    elems = [[QQ.from_fraction(x) for x in row] for row in rows]
    ref_red, ref_pivots = _fraction_rref(rows, ncols)
    with _counted_inversions() as calls:
        red, pivots = rref(QQ, elems, ncols)
    assert pivots == ref_pivots
    assert len(calls) == len(pivots)  # one ring inversion per pivot
    assert _fractions(red) == [[_q_raw(x) for x in row] for row in ref_red]
    with _counted_inversions() as calls:
        basis = kernel_basis(QQ, elems, ncols)
    assert len(calls) == ncols - len(basis)
    assert _fractions(basis) == [[_q_raw(x) for x in v] for v in _fraction_kernel_basis(rows, ncols)]
    with _counted_inversions() as calls:
        r = rank(QQ, elems, ncols)
    assert r == len(calls) == len(_fraction_eliminate(_fraction_rows(rows, ncols), ncols, full=False))


# --- malformed input ------------------------------------------------------------


@pytest.mark.parametrize("ring", [QQ, F7], ids=["q", "fp7"])
def test_ragged_input_raises_naming_the_index(ring):
    zero, one, two, three = ring.zero, ring.one, ring.from_int(2), ring.from_int(3)
    ragged = [[zero, one], [one, two, three]]
    for call in (
        lambda: rref(ring, ragged, 2),
        lambda: rank(ring, ragged, 2),
        lambda: kernel_basis(ring, ragged, 2),
    ):
        with pytest.raises(ValueError, match="row 1 has 3 entries, row 0 has 2"):
            call()


# --- fill-in of the pivot rule ----------------------------------------------------


def _arrowhead(ring, n):
    """An n x n arrowhead matrix: row 0 and column 0 dense, plus the diagonal."""
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        rows[0][i] = ring.from_int(i + 2)
        rows[i][0] = ring.from_int(i + 2)
        rows[i][i] = ring.from_int(i + 2 if i == 0 else 1)
    return rows


@pytest.mark.parametrize("name", ["fp101", "q"])
def test_fewest_entries_pivots_keep_an_arrowhead_sparse(name):
    """A first pivot row with the fewest entries keeps an arrowhead matrix at
    most 3n entries, where the first row with an entry fills it in; the pivots
    and the reduced pivot rows are those of the dense first-row reference."""
    ring, n = DIFF_RINGS[name], 30
    rows = _arrowhead(ring, n)
    ref_red, ref_pivots = _ref_rref(ring, rows, n)
    first = _sparse(rows)
    assert _eliminate(ring, first, n, full=False, first_row=True) == ref_pivots
    assert sum(map(len, first)) > n * n // 2
    for full in (False, True):
        red = _sparse(rows)
        pivots = _eliminate(ring, red, n, full)
        assert sum(map(len, red)) <= 3 * n
        assert pivots == ref_pivots
        # the pivot rows come first, in pivot order
        assert [min(row) for row in red[: len(pivots)]] == pivots
        if not full:  # an echelon form: reducing it gives the reference
            # over Q the rows left are integers; read them back as raw values
            red = [{j: ring._norm((x,), 1) for j, x in row.items()} for row in red[: len(pivots)]]
            assert _eliminate(ring, red, n, full=True, first_row=True) == pivots
        assert _raw([_dense(ring, _unit(ring, row, c), n) for row, c in zip(red, pivots)]) == _raw(ref_red)


# --- an independent oracle: sympy's DomainMatrix -------------------------------


@pytest.mark.parametrize("p", [None, 2, 7, 101], ids=["q", "fp2", "fp7", "fp101"])
def test_ranks_and_kernel_dimensions_match_sympy(p):
    """Ranks and kernel dimensions against sympy's DomainMatrix over QQ and
    GF(p), on random sparse matrices with zero columns and duplicate rows."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ring = QQ if p is None else PrimeField(p)
    domain = sympy.QQ if p is None else sympy.GF(p)
    rnd = random.Random(17 if p is None else p)

    def entry():
        if rnd.random() < 0.7:
            return Fraction(0)
        if p is None:
            return Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
        return Fraction(rnd.randrange(1, p))

    def matrix(values, ncols):
        # entries over F_p are integers, which GF(p) reduces
        elem = (lambda x: domain(x.numerator, x.denominator)) if p is None else (lambda x: domain(x.numerator))
        return DomainMatrix([[elem(x) for x in row] for row in values], (len(values), ncols), domain)

    for _ in range(40):
        m, n = rnd.randint(0, 10), rnd.randint(0, 10)
        values = [[entry() for _ in range(n)] for _ in range(m)]
        for c in rnd.sample(range(n), min(n, rnd.randint(0, 2))):
            for row in values:
                row[c] = Fraction(0)
        if values:
            values += [list(rnd.choice(values)) for _ in range(rnd.randint(0, 2))]
        rows = [[ring.from_fraction(x) for x in row] for row in values]
        r = matrix(values, n).rank()
        assert rank(ring, rows, n) == r
        assert len(kernel_basis(ring, rows, n)) == matrix(values, n).nullspace().shape[0] == n - r


def test_rref_and_kernel_values_over_q_match_sympy():
    """The entries of `rref` and `kernel_basis` over Q against sympy's
    DomainMatrix over QQ, each in the canonical raw form (numerator,
    denominator) in lowest terms, zero being ().  The fixed matrices have
    negative primitive integer pivots, which `_unit` must flip to a leading 1."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    def raw(x):
        return (int(x.numerator), int(x.denominator)) if x else ()

    def entry():
        return 0 if rnd.random() < 0.4 else Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))

    rnd = random.Random(29)
    cases = [
        [[-2, 4, 1], [1, -2, 3]],
        [[-3, 0, 6, 9], [0, -5, 10, 0], [-6, -5, 22, 18]],
        [[0, -1, 2], [-4, 2, 0]],
        [[-1]],
    ]
    for n in rnd.choices(range(1, 8), k=60):
        cases.append([[entry() for _ in range(n)] for _ in range(rnd.randint(1, 7))])
    for case in cases:
        values = [[Fraction(x) for x in row] for row in case]
        n = len(values[0])
        matrix = DomainMatrix([[sympy.QQ(x.numerator, x.denominator) for x in row] for row in values],
                              (len(values), n), sympy.QQ)
        ref_red, ref_pivots = matrix.rref()
        rows = [[QQ.from_fraction(x) for x in row] for row in values]
        red, pivots = rref(QQ, rows, n)
        assert pivots == list(ref_pivots)
        ref_rows = ref_red.to_list()[: len(pivots)]
        assert [[x.val for x in row] for row in red] == [[raw(x) for x in row] for row in ref_rows]
        ref_basis = [[raw(x) for x in v] for v in matrix.nullspace().to_list()]
        assert [[x.val for x in v] for v in kernel_basis(QQ, rows, n)] == ref_basis
