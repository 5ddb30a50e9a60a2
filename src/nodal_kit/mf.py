"""Matrix factorization of the pointed-node relation and its consequences.

Over R = A[X,Y]/(q(X,Y) - q(s,t)) with unit discriminant, the pair
(phi, psi) of 2x2 matrices below satisfies phi*psi = psi*phi = x*I for
x = q(X,Y) - q(s,t), giving a 2-periodic resolution on E = R (+) R.  This
module builds the matrices, verifies the construction identities, realizes
the dual of the marked-point ideal J = (u-s, v-t) through the fractional
multiplier (u+s+gamma*t)/(v-t), certifies exactness by Eisenbud's lift, and
checks the quotient isomorphism by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dp_ring import DPRing, mul_columns, v_shift_nonzerodivisor
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


def witness_identities(mf):
    """Check the witness-matrix identities and the injectivity certificate.

    j_witness * alpha = [[u-s, -(v-t)], [0, 0]] and
    k_witness * beta  = [[v-t, -(u+s+gamma*t)], [0, 0]] as canonical forms;
    both witnesses have determinant +-(v-t), so they are injective wherever
    v - t is a non-zero-divisor.
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
    record = {"ok": not failures, "failures": failures}
    if dp.ring.is_field:
        nzd = v_shift_nonzerodivisor(dp, min(dp.degree_bound - 1, 8))
        record["nzd_kernel_dimension"] = nzd["kernel_dimension"]
        record["ok"] = record["ok"] and nzd["ok"]
        if not nzd["ok"]:
            failures.append("v-t non-zero-divisor")
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

    Injectivity: r*(u+s+gamma*t) = (v-t)*h forces r = 0 (kernel of the
    combined linear system is trivial).  Surjectivity: every truncated hom is
    rho*(multiplication) + c*(fractional action) with rho in R and c scalar.
    ``hom`` is the record of ``hom_pair_space(dp, bound)``: when it passed,
    every hom is covered; otherwise a kernel basis of the syzygy map and one
    coverage test per basis vector name the homs outside the span.
    """
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the quotient-isomorphism check needs field coefficients")
    _, e2 = dual_generator_images(dp)
    _, j2 = ideal_j_generators(dp)
    bound = hom["bound"]

    # injectivity: the coefficient of the scalar r, then h over the canonical
    # basis; only the kernel's dimension is reported
    big = bound + 3
    cols = mul_columns(e2, 0, big)[:1] + mul_columns(-j2, bound + 2, big)
    kernel_dim = len(cols) - rank(ring, _dense_rows(ring, cols, 2 * (big + 1)), len(cols))

    # surjectivity over the truncated hom space
    if hom["ok"]:
        total, failures = hom["hom_dimension"], []
    else:
        ncols, span_rows = 4 * (bound + 1), hom["span_rows"]
        ker = kernel_basis(ring, hom["syz_rows"], ncols)
        rhs_list = [kv + [ring.zero] * (len(span_rows) - ncols) for kv in ker]
        flags = consistent_many(ring, span_rows, len(span_rows[0]), rhs_list)
        total = len(ker)
        failures = [[ring.format_elem(c) for c in kv] for kv, flag in zip(ker, flags) if not flag]
    return {
        "injective_kernel_dimension": kernel_dim,
        "covered_homs": total - len(failures),
        "total_homs": total,
        "ok": not kernel_dim and not failures,
        "failures": failures,
    }


def two_periodic_exactness(mf, bound, *, transposed=False):
    """Degreewise exactness of ... -> E -alpha-> E -beta-> E -> ...

    Every kernel element of canonical degree <= bound, at either position,
    is the image of one of degree <= bound, by Eisenbud's lift (*Homological
    algebra on a complete intersection*, 1980).  Let v of degree <= bound
    lie in ker alpha.  Then phi*lift(v) = x*w in A[X, Y]^2, and x*lift(v) =
    psi*phi*lift(v) = x*psi*w, so lift(v) = psi*w, as x is monic in X and
    hence a non-zero-divisor: v = beta(w).  phi has entries of degree <= 1
    and lift(v) has X-degree <= 1, so w is the X^2 coefficient of
    phi*lift(v), of degree <= deg v.  The same holds at beta, and for the
    transposes, whose products are those of the pair transposed.

    The hypotheses are exact facts.  x is monic of X-degree 2, since
    ``dp.reduce(dp.relation)`` divides by it and `MPoly.divide` refuses a
    relation whose lex-leading term is not 1*X^2; x reduces to 0
    (``compositions_ok``); ``mf.lift_failures`` names any failure of
    phi*psi = psi*phi = x*I or of the entry degrees.  Each position's kernel
    dimension is 4*(bound + 1) minus one rank, of the map at `bound` into
    degree <= bound + 2; it is covered whole when the hypotheses hold, and
    ``covered`` is 0, with the failures named, when one fails.
    """
    dp = mf.dp
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the exactness check needs field coefficients")
    reduced = dp.reduce(dp.relation)
    failures = list(mf.lift_failures)
    if not reduced.is_zero:
        failures.append(f"x reduces to {reduced}, not 0")

    alpha, beta = mf.alpha, mf.beta
    if transposed:
        alpha, beta = mat_transpose(alpha), mat_transpose(beta)
    ncols = 4 * (bound + 1)
    positions = {}
    for name, mat in (("at_alpha", alpha), ("at_beta", beta)):
        rows = _dense_rows(ring, _block_columns(mat, bound, bound + 2), 4 * (bound + 3))
        kernel_dim = ncols - rank(ring, rows, ncols)
        positions[name] = {
            "kernel_dimension": kernel_dim,
            "covered": 0 if failures else kernel_dim,
            "failures": list(failures),
        }
    return {"ok": not failures, "compositions_ok": reduced.is_zero, "positions": positions}
