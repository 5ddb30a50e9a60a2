"""Matrix factorization of the pointed-node relation and its consequences.

Over R = A[X,Y]/(q(X,Y) - q(s,t)) with unit discriminant, the pair
(phi, psi) of 2x2 matrices below satisfies phi*psi = psi*phi = x*I for
x = q(X,Y) - q(s,t), giving a 2-periodic resolution on E = R (+) R.  This
module builds the matrices, verifies the construction identities, realizes
the dual of the marked-point ideal J = (u-s, v-t) through the fractional
multiplier (u+s+gamma*t)/(v-t), certifies exactness by Eisenbud's lift, and
checks the quotient isomorphism.  One rank counts the homs; column degrees
count their span and the exactness kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .dp_ring import DPRing, mul_columns
from .linalg import _dense_rows, kernel_basis, rank
from .mpoly import MPoly
from .normal_form import DegenerateFormError
from .rings import RingElem


class FactorizationError(AssertionError):
    """A construction-time matrix identity failed."""


Mat2 = tuple  # 2x2 matrices as ((a, b), (c, d))


def mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_transpose(a):
    return ((a[0][0], a[1][0]), (a[0][1], a[1][1]))


def mat_map(a, fn):
    return tuple(tuple(fn(x) for x in row) for row in a)


@dataclass(frozen=True)
class MatFact:
    """The factorization pair with its duality pairing and image witnesses."""

    dp: DPRing
    phi: Mat2
    psi: Mat2
    pairing: Mat2  # constant matrix conjugating the pair to its transposes
    j_witness: Mat2  # left multiplier exhibiting Im(alpha) as the ideal J
    k_witness: Mat2  # left multiplier exhibiting Im(beta) as the ideal K

    @cached_property
    def alpha(self):
        """phi acting on E in canonical coordinates, reduced once per factorization."""
        return mat_map(self.phi, self.dp.reduce)

    @cached_property
    def beta(self):
        return mat_map(self.psi, self.dp.reduce)

    @cached_property
    def lift_failures(self):
        """The hypotheses of the lift in `two_periodic_exactness` that fail,
        named, once per factorization: entries of total degree <= 1, and
        phi*psi = psi*phi = x*I in A[X, Y] for x = ``dp.relation``."""
        failures = [
            f"{name} entry ({i}, {j}) has total degree {deg} > 1"
            for name, mat in (("phi", self.phi), ("psi", self.psi))
            for i, row in enumerate(mat)
            for j, entry in enumerate(row)
            if (deg := max(map(sum, entry.terms), default=0)) > 1
        ]
        for name, prod in (("phi*psi", mat_mul(self.phi, self.psi)), ("psi*phi", mat_mul(self.psi, self.phi))):
            for i, row in enumerate(prod):
                for j, entry in enumerate(row):
                    diff = entry - self.dp.relation if i == j else entry
                    if not diff.is_zero:
                        failures.append(f"{name} = x*I fails at entry ({i}, {j}), off by {diff.format(('X', 'Y'))}")
        return failures


def build_factorization(dp):
    """Construct (phi, psi, pairing, witnesses) and verify all identities.

    Requires a unit discriminant.  The identities checked at the polynomial
    level, before any reduction:

        phi*psi = psi*phi = (q(X,Y) - q(s,t)) * I
        pairing*psi = phi^T * pairing,  pairing*phi = psi^T * pairing
    """
    ring = dp.ring
    if not dp.q.discriminant.is_unit:
        raise DegenerateFormError("matrix factorization needs a unit discriminant")
    g, d, s, t = dp.q.gamma, dp.q.delta, dp.s, dp.t

    def P(terms):
        return MPoly(ring, 2, terms)

    phi = (
        (P({(0, 1): d, (0, 0): d * t, (1, 0): g}), P({(1, 0): ring.one, (0, 0): s + g * t})),
        (P({(1, 0): -ring.one, (0, 0): s}), P({(0, 1): ring.one, (0, 0): -t})),
    )
    psi = (
        (P({(0, 1): ring.one, (0, 0): -t}), P({(1, 0): -ring.one, (0, 0): -(s + g * t)})),
        (P({(1, 0): ring.one, (0, 0): -s}), P({(0, 1): d, (0, 0): d * t, (1, 0): g})),
    )
    pairing = (
        (P({}), P({(0, 0): -ring.one})),
        (P({(0, 0): ring.one}), P({})),
    )
    j_witness = (
        (P({}), P({(0, 0): -ring.one})),
        (P({(0, 1): -ring.one, (0, 0): t}), P({(1, 0): ring.one, (0, 0): s + g * t})),
    )
    k_witness = (
        (P({(0, 0): ring.one}), P({})),
        (P({(1, 0): -ring.one, (0, 0): s}), P({(0, 1): ring.one, (0, 0): -t})),
    )
    mf = MatFact(dp, phi, psi, pairing, j_witness, k_witness)
    if mf.lift_failures:
        raise FactorizationError("; ".join(mf.lift_failures))
    for name, a, b in (("psi", psi, phi), ("phi", phi, psi)):
        if mat_mul(pairing, a) != mat_mul(mat_transpose(b), pairing):
            raise FactorizationError(f"pairing conjugation of {name} failed")
    return mf


def ideal_j_generators(dp):
    """The generators (u - s, v - t) of the marked-point ideal."""
    return dp.u - dp.const(dp.s), dp.v - dp.const(dp.t)


def dual_generator_images(dp):
    """Images of (u-s, v-t) under the fractional multiplier (u+s+gamma*t)/(v-t).

    These rewriting identities define the action exactly:
        eps*(u-s) = -(delta*v + delta*t + gamma*u)
        eps*(v-t) = u + s + gamma*t
    """
    g, d, s, t = dp.q.gamma, dp.q.delta, dp.s, dp.t
    e1 = -(dp.v * d + dp.u * g + dp.const(d * t))
    e2 = dp.u + dp.const(s + g * t)
    return e1, e2


def dual_action(dp, a, b):
    """Multiply a*(u-s) + b*(v-t) by the dual fractional generator.

    The result is independent of the presentation (a, b) by the overlap
    identity (v-t)*eps(u-s) = (u-s)*eps(v-t), which `hom_pair_space` checks.
    """
    e1, e2 = dual_generator_images(dp)
    return a * e1 + b * e2


def _block_columns(mat, bound, out_bound):
    """Sparse raw columns of a matrix of elements acting on tuples of canonical forms.

    Each component runs over the basis of `mul_columns` through degree
    `bound`, its images under the rows of `mat` through `out_bound`.  Entry i
    of component r of an n-tuple sits at n*i + r, for the columns and the rows
    alike, so the matrix at `bound` is the leading columns of the matrix at
    any larger one.
    """
    n = len(mat)
    per_input = [list(zip(*(mul_columns(row[j], bound, out_bound) for row in mat))) for j in range(len(mat[0]))]
    return [
        {n * i + r: x for r, col in enumerate(parts) for i, x in col.items()}
        for group in zip(*per_input)
        for parts in group
    ]


def _nzd_failure(j2):
    """Why v - t, given as `j2`, is not certified a non-zero-divisor, or None.
    R is free over A[Y] on 1 and X, and a monic polynomial in Y multiplies
    both coordinates keeping their leading coefficients: it is injective."""
    if j2.g or j2.degree() != 1 or j2.f[1] != j2.dp.ring.one.val:
        return f"v-t = {j2} is not monic of Y-degree 1 with no X part"
    return None


def witness_identities(mf):
    """Check the witness-matrix identities and the non-zero-divisor v - t.

    j_witness * alpha = [[u-s, -(v-t)], [0, 0]] and
    k_witness * beta  = [[v-t, -(u+s+gamma*t)], [0, 0]] as canonical forms;
    both witnesses have determinant +-(v-t), so they are injective wherever
    v - t is a non-zero-divisor, as `_nzd_failure` decides in closed form;
    over a field ``nzd_kernel_dimension`` is then 0, and None if it fails.
    """
    dp = mf.dp
    j1, j2 = ideal_j_generators(dp)
    _, e2 = dual_generator_images(dp)
    red = dp.reduce

    ka = mat_map(mat_mul(mf.j_witness, mf.phi), red)
    ka_expected = ((j1, -j2), (dp.zero, dp.zero))
    lb = mat_map(mat_mul(mf.k_witness, mf.psi), red)
    lb_expected = ((j2, -e2), (dp.zero, dp.zero))

    det_j, det_k = (red(w[0][0] * w[1][1] - w[0][1] * w[1][0]) for w in (mf.j_witness, mf.k_witness))

    nzd = _nzd_failure(j2)
    checks = (
        ("j_witness*alpha", ka == ka_expected),
        ("k_witness*beta", lb == lb_expected),
        ("det(j_witness)", det_j == -j2),
        ("det(k_witness)", det_k == j2),
    )
    failures = [name for name, ok in checks if not ok] + ([nzd] if nzd else [])
    record = {"ok": not failures, "failures": failures}
    if dp.ring.is_field:
        record["nzd_kernel_dimension"] = None if nzd else 0
    return record


def _column_leads(mat):
    """Per column of `mat`: its canonical Y-degree d (-1 when it is zero) and
    its Y^d and X*Y^d coefficients in each component, a vector in A^4."""
    out = []
    for col in zip(*mat):
        ring, d = col[0].dp.ring, max((e.degree() for e in col if not e.is_zero), default=-1)
        out.append((d, [RingElem(ring, row.get(d, ring.zero.val)) for e in col for row in (e.f, e.g)]))
    return out


def _degree_count(mat, bound, what):
    """(the dimension of A[Y]*c1 + A[Y]*c2 in degree <= bound, None), c_j
    the columns of `mat`, or (None, the failure naming `what`'s leading
    vectors).  Independent leading vectors l_j (`_column_leads`: some 2x2
    minor is nonzero) give p1*c1 + p2*c2 the degree max(deg p_j + d_j)
    (Forney, *Minimal bases of rational vector spaces*, 1975), so the
    dimension is sum_j max(0, bound - d_j + 1)."""
    (d1, l1), (d2, l2) = _column_leads(mat)
    if all((l1[i] * l2[j] - l1[j] * l2[i]).is_zero for i in range(4) for j in range(i)):
        vecs = " and ".join(f"[{', '.join(map(str, lv))}]" for lv in (l1, l2))
        return None, f"the leading vectors {vecs} of {what} are dependent"
    return sum(max(0, bound - d + 1) for d in (d1, d2)), None


def _x_part_failure(e2):
    """Why u+s+gamma*t, given as `e2`, does not have X part 1, or None."""
    if e2.g != {0: e2.dp.ring.one.val}:
        return f"u+s+gamma*t = {e2} does not have X part 1"
    return None


def hom_pair_space(dp, bound):
    """All A-linear maps J -> R determined on (u-s, v-t) through degree `bound`.

    The homs are the kernel of the syzygy map (v-t)*h(u-s) = (u-s)*h(v-t),
    as v - t is a non-zero-divisor: ncols - rank of them.  Their span R*c1 +
    A*c3, c1 = (u-s, v-t) and c3 = (e1, e2) = eps*c1, lies in the homs by the
    overlap identity (v-t)*e1 = (u-s)*e2, checked exactly.  It is A[Y]*c1 +
    A[Y]*c3, as R = A[Y] + X*A[Y] and u*c1 = (v-t)*c3 - (s+gamma*t)*c1: the
    first component is the overlap identity, and the second holds because
    e2 = u + s + gamma*t has X part 1 (`_x_part_failure`; with the overlap
    identity that leaves e2 = u + s + gamma*t + (v-t)*k for some k in A[Y],
    which moves c3 by k*c1 and neither span).  `_degree_count` counts it,
    2*bound + [delta = 0]; equal counts make it all of the homs.
    ``failures`` names each failed hypothesis and unequal counts, and
    span_dimension is None when no count was proved.
    """
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the hom-space computation needs field coefficients")
    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)

    # the syzygy map (r1, r2) |-> (v-t) r1 - (u-s) r2
    syz_cols = _block_columns(((j2, -j1),), bound, bound + 3)
    syz_rows = _dense_rows(ring, syz_cols, 2 * (bound + 4))
    hom_dim = len(syz_cols) - rank(ring, syz_rows, len(syz_cols))

    span_dim, dependent = _degree_count(((j1, e1), (j2, e2)), bound, "(u-s, v-t) and eps*(u-s, v-t)")
    overlap = j2 * e1 - j1 * e2
    failures = [] if overlap.is_zero else [f"(v-t)*eps(u-s) = (u-s)*eps(v-t) fails, off by {overlap}"]
    failures += filter(None, (dependent, _x_part_failure(e2)))
    if failures:
        span_dim = None
    elif hom_dim != span_dim:
        failures.append(f"hom_dimension {hom_dim} != span_dimension {span_dim}")
    return {
        "hom_dimension": hom_dim,
        "span_dimension": span_dim,
        "span_inside_homs": overlap.is_zero,
        "ok": not failures,
        "failures": failures,
        "bound": bound,
        "syz_rows": syz_rows,
    }


def _has_preimage(dp, kv):
    """Whether the hom `kv` (the Y^k and X*Y^k coefficients of h(u-s) at 4k
    and 4k + 2, of h(v-t) one after each) is p*c1 + r*c3 for p, r in A[Y].
    With h(v-t) = f + X*g, the second component forces r = g and p = (f -
    (s+gamma*t)*g)/(Y - t); p is that quotient, its remainder dropped, so
    the test h = p*c1 + r*c3 also fails when the division is not exact."""
    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)
    h1, h2 = (dp.element(kv[r::4], kv[2 + r::4]) for r in (0, 1))
    g = dp.element(kv[3::4])
    shift = dp.s + dp.q.gamma * dp.t
    num = [a - shift * b for a, b in zip(kv[1::4], kv[3::4])]
    # synthetic division by Y - t: the quotient's coefficients from the top, then the remainder
    p = dp.element(list(accumulate(reversed(num), lambda a, c: c + dp.t * a))[-2::-1])
    return p * j1 + g * e1 == h1 and p * j2 + g * e2 == h2


def dual_quotient_iso(dp, hom):
    """The base ring maps isomorphically onto duals-mod-R via the fractional class.

    Injectivity, in closed form: if r*(u+s+gamma*t) = (v-t)*h for a scalar r
    and h = f + X*g, the X parts give r = (Y-t)*g (`_x_part_failure`), so g
    = 0 and r = 0 by degree, and h = 0 as v - t is a non-zero-divisor
    (`_nzd_failure`).  Surjectivity: ``hom`` is the record of
    ``hom_pair_space(dp, bound)``; when it passed, its span is every hom, and
    otherwise a kernel basis of the syzygy map and `_has_preimage` name the
    homs outside the span.
    """
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the quotient-isomorphism check needs field coefficients")
    _, e2 = dual_generator_images(dp)
    _, j2 = ideal_j_generators(dp)
    failures = [f for f in (_nzd_failure(j2), _x_part_failure(e2)) if f]
    kernel_dim = None if failures else 0

    # surjectivity over the truncated hom space
    if hom["ok"]:
        total, uncovered = hom["hom_dimension"], []
    else:
        ker = kernel_basis(ring, hom["syz_rows"], 4 * (hom["bound"] + 1))
        total, uncovered = len(ker), [kv for kv in ker if not _has_preimage(dp, kv)]
    if uncovered:
        first = ", ".join(ring.format_elem(c) for c in uncovered[0])
        failures.append(f"{len(uncovered)} homs not covered, the first [{first}]")
    return {
        "injective_kernel_dimension": kernel_dim,
        "covered_homs": total - len(uncovered),
        "total_homs": total,
        "ok": not failures,
        "failures": failures,
    }


def two_periodic_exactness(mf, bound, *, transposed=False):
    """Degreewise exactness of ... -> E -alpha-> E -beta-> E -> ..., counted by column degrees.

    By Eisenbud's lift (*Homological algebra on a complete intersection*,
    1980), v in ker alpha is beta(w): phi*lift(v) = x*w, so x*lift(v) =
    psi*phi*lift(v) = x*psi*w and lift(v) = psi*w, x being monic in X.  As
    phi has entries of degree <= 1 and lift(v) = v0(Y) + X*v1(Y), w is the
    X^2 coefficient phi_X*v1, in A[Y]^2, and a polynomial in Y keeps
    canonical forms canonical: ker alpha = A[Y]*beta(e1) + A[Y]*beta(e2),
    and likewise at beta and for the transposes, counted by column degrees
    (`_degree_count`): 2*bound when delta != 0, 2*bound + 1 when delta = 0.

    The hypotheses are exact facts: x is monic of X-degree 2, since the
    division on X-rows (`DPRing.reduce_with_multiplier`) refuses, in
    ``dp.reduce(dp.relation)``, any relation whose lex-leading term is not
    1*X^2, and x reduces to 0 (``compositions_ok``); ``mf.lift_failures``
    names any failure of phi*psi = psi*phi = x*I or of the entry degrees; dependent
    leading vectors are named with their entries.  A position where one fails has
    kernel_dimension None and covered 0, with the failures; otherwise it is
    covered whole.
    """
    dp = mf.dp
    if not dp.ring.is_field:
        raise ValueError("the exactness check needs field coefficients")
    reduced = dp.reduce(dp.relation)
    failures = list(mf.lift_failures)
    if not reduced.is_zero:
        failures.append(f"x reduces to {reduced}, not 0")

    positions = {}
    for name, image in (("at_alpha", "beta"), ("at_beta", "alpha")):
        mat = getattr(mf, image)
        if transposed:
            mat, image = mat_transpose(mat), image + "^T"
        count, dependent = _degree_count(mat, bound, f"{image}'s columns")
        own = failures + ([dependent] if dependent else [])
        count = None if own else count
        positions[name] = {"kernel_dimension": count, "covered": count or 0, "failures": own}
    ok = not any(pos["failures"] for pos in positions.values())
    return {"ok": ok, "compositions_ok": reduced.is_zero, "positions": positions}
