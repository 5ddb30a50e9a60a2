"""Matrix factorization of the pointed-node relation and its consequences.

Over R = A[X,Y]/(q(X,Y) - q(s,t)) with unit discriminant, the pair
(phi, psi) of 2x2 matrices below satisfies phi*psi = psi*phi = x*I for
x = q(X,Y) - q(s,t), giving a 2-periodic resolution on E = R (+) R.  This
module builds the matrices, verifies the construction identities, realizes
the dual of the marked-point ideal J = (u-s, v-t) through the fractional
multiplier (u+s+gamma*t)/(v-t), certifies exactness by Eisenbud's lift and
counts its kernels by column degrees, and checks the quotient isomorphism by
exact linear algebra on the hom space and by a degree argument on injectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dp_ring import DPRing, mul_columns
from .linalg import _dense_rows, consistent_many, kernel_basis, rank
from .mpoly import MPoly
from .normal_form import DegenerateFormError


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
        return MPoly(ring, 2, {e: ring(c) for e, c in terms.items()})

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
    if mat_mul(pairing, psi) != mat_mul(mat_transpose(phi), pairing):
        raise FactorizationError("pairing conjugation of psi failed")
    if mat_mul(pairing, phi) != mat_mul(mat_transpose(psi), pairing):
        raise FactorizationError("pairing conjugation of phi failed")
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
    if j2.gc or len(j2.fc) != 2 or not (j2.fc[1] - j2.dp.ring.one).is_zero:
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

    det_j = red(mf.j_witness[0][0] * mf.j_witness[1][1] - mf.j_witness[0][1] * mf.j_witness[1][0])
    det_k = red(mf.k_witness[0][0] * mf.k_witness[1][1] - mf.k_witness[0][1] * mf.k_witness[1][0])

    failures = []
    if ka != ka_expected:
        failures.append("j_witness*alpha")
    if lb != lb_expected:
        failures.append("k_witness*beta")
    if det_j != -j2:
        failures.append("det(j_witness)")
    if det_k != j2:
        failures.append("det(k_witness)")
    nzd = _nzd_failure(j2)
    if nzd:
        failures.append(nzd)
    record = {"ok": not failures, "failures": failures}
    if dp.ring.is_field:
        record["nzd_kernel_dimension"] = None if nzd else 0
    return record


def hom_pair_space(dp, bound):
    """All A-linear maps J -> R determined on (u-s, v-t) through degree `bound`.

    The single syzygy (v-t)*h(u-s) = (u-s)*h(v-t) characterizes module maps
    because v - t is a non-zero-divisor: the homs are the syzygy map's
    kernel.  The span map's columns are the images of (u-s, v-t) under
    multiplication by each rho of canonical degree <= bound, then by the
    fractional generator, through degree bound + 2; in the layout of
    `_block_columns` its rows from 4*(bound + 1) have degree > bound
    (span_high).  The homs number ncols - rank(syzygy map); the span's
    elements of degree <= bound, span(ker span_high), rank(span) -
    rank(span_high).  The span lies in the homs: rho satisfies the syzygy
    identically, the fractional generator by the overlap identity
    (v-t)*eps(u-s) = (u-s)*eps(v-t), checked exactly.  So equal counts
    make the span all of the homs.  ``failures`` names a failed overlap
    identity, with its difference, and unequal counts; the record keeps
    ``bound``, ``syz_rows`` and ``span_rows`` for `dual_quotient_iso`.
    """
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the hom-space computation needs field coefficients")
    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)
    big = bound + 2

    # the syzygy map (r1, r2) |-> (v-t) r1 - (u-s) r2
    syz_cols = _block_columns(((j2, -j1),), bound, big + 1)
    syz_rows = _dense_rows(ring, syz_cols, 2 * (big + 2))

    # the span map: multiplication by each rho, then by the fractional generator
    span_cols = _block_columns(((j1,), (j2,)), bound, big)
    span_cols.append(_block_columns(((e1,), (e2,)), 0, big)[0])
    span_rows = _dense_rows(ring, span_cols, 4 * (big + 1))

    ncols, span_ncols = len(syz_cols), len(span_cols)
    hom_dim = ncols - rank(ring, syz_rows, ncols)
    span_dim = rank(ring, span_rows, span_ncols) - rank(ring, span_rows[ncols:], span_ncols)
    overlap = j2 * e1 - j1 * e2
    failures = []
    if not overlap.is_zero:
        failures.append(f"(v-t)*eps(u-s) = (u-s)*eps(v-t) fails, off by {overlap}")
    if hom_dim != span_dim:
        failures.append(f"hom_dimension {hom_dim} != span_dimension {span_dim}")
    return {
        "hom_dimension": hom_dim,
        "span_dimension": span_dim,
        "span_inside_homs": overlap.is_zero,
        "ok": not failures,
        "failures": failures,
        "bound": bound,
        "syz_rows": syz_rows,
        "span_rows": span_rows,
    }


def dual_quotient_iso(dp, hom):
    """The base ring maps isomorphically onto duals-mod-R via the fractional class.

    Injectivity, in closed form: if r*(u+s+gamma*t) = (v-t)*h for a scalar r
    and h = f + X*g, the X parts give r*c = (Y-t)*g, c the nonzero constant
    X part of u+s+gamma*t, so g = 0 and r = 0 by degree, and h = 0 as v - t
    is a non-zero-divisor (`_nzd_failure`).  Surjectivity: every truncated
    hom is rho*(multiplication) + c*(fractional action) with rho in R and c
    scalar.  ``hom`` is the record of ``hom_pair_space(dp, bound)``: when it
    passed, every hom is covered; otherwise a kernel basis of the syzygy map
    and one coverage test per basis vector name the homs outside the span.
    """
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the quotient-isomorphism check needs field coefficients")
    _, e2 = dual_generator_images(dp)
    _, j2 = ideal_j_generators(dp)
    x_part = None if len(e2.gc) == 1 else f"u+s+gamma*t = {e2} has no nonzero constant X part"
    failures = [f for f in (_nzd_failure(j2), x_part) if f]
    kernel_dim = None if failures else 0

    # surjectivity over the truncated hom space
    if hom["ok"]:
        total, uncovered = hom["hom_dimension"], []
    else:
        bound = hom["bound"]
        ncols, span_rows = 4 * (bound + 1), hom["span_rows"]
        ker = kernel_basis(ring, hom["syz_rows"], ncols)
        rhs_list = [kv + [ring.zero] * (len(span_rows) - ncols) for kv in ker]
        flags = consistent_many(ring, span_rows, len(span_rows[0]), rhs_list)
        total = len(ker)
        uncovered = [kv for kv, flag in zip(ker, flags) if not flag]
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


def _column_leads(mat):
    """Per column of `mat`: its canonical Y-degree d (-1 when it is zero) and
    its Y^d and X*Y^d coefficients in each component, a vector in A^4."""
    out = []
    for col in zip(*mat):
        d = max((e.degree() for e in col if not e.is_zero), default=-1)
        out.append((d, [cs[d] if 0 <= d < len(cs) else col[0].dp.ring.zero for e in col for cs in (e.fc, e.gc)]))
    return out


def two_periodic_exactness(mf, bound, *, transposed=False):
    """Degreewise exactness of ... -> E -alpha-> E -beta-> E -> ..., counted by column degrees.

    By Eisenbud's lift (*Homological algebra on a complete intersection*,
    1980), v in ker alpha is beta(w): phi*lift(v) = x*w, so x*lift(v) =
    psi*phi*lift(v) = x*psi*w and lift(v) = psi*w, x being monic in X.  As
    phi has entries of degree <= 1 and lift(v) = v0(Y) + X*v1(Y), w is the
    X^2 coefficient phi_X*v1, in A[Y]^2, and a polynomial in Y keeps
    canonical forms canonical: ker alpha = A[Y]*beta(e1) + A[Y]*beta(e2).
    The same holds at beta and for the transposes.  With d_j the canonical
    Y-degree of column j of the image map and l_j in A^4 its coefficients at
    Y^d_j, independent l_1, l_2 give p1*c1 + p2*c2 the degree max(deg p_j +
    d_j) (Forney, *Minimal bases of rational vector spaces*, 1975), so the
    kernel's part of degree <= bound has dimension sum_j max(0, bound - d_j
    + 1): 2*bound when delta != 0, 2*bound + 1 when delta = 0.  Nothing is
    eliminated.

    The hypotheses are exact facts: x is monic of X-degree 2, since
    `MPoly.divide` refuses any other relation in ``dp.reduce(dp.relation)``,
    and reduces to 0 (``compositions_ok``); ``mf.lift_failures`` names any
    failure of phi*psi = psi*phi = x*I or of the entry degrees; dependent
    l_1, l_2 are named with their entries.  A position where one fails has
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
        (d1, l1), (d2, l2) = _column_leads(mat)
        own = list(failures)
        if all((l1[i] * l2[j] - l1[j] * l2[i]).is_zero for i in range(4) for j in range(i)):
            vecs = " and ".join(f"[{', '.join(map(str, lv))}]" for lv in (l1, l2))
            own.append(f"the leading vectors {vecs} of {image}'s columns are dependent")
        count = None if own else sum(max(0, bound - d + 1) for d in (d1, d2))
        positions[name] = {"kernel_dimension": count, "covered": count or 0, "failures": own}
    ok = not any(pos["failures"] for pos in positions.values())
    return {"ok": ok, "compositions_ok": reduced.is_zero, "positions": positions}
