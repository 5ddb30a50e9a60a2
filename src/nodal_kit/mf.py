"""Matrix factorization of the pointed-node relation and its consequences.

Over R = A[X,Y]/(q(X,Y) - q(s,t)) with unit discriminant, the pair
(phi, psi) of 2x2 matrices below satisfies phi*psi = psi*phi = x*I for
x = q(X,Y) - q(s,t), giving a 2-periodic resolution on E = R (+) R.  This
module builds the matrices, verifies the construction identities, realizes
the dual of the marked-point ideal J = (u-s, v-t) through the fractional
multiplier (u+s+gamma*t)/(v-t), and checks truncated exactness and the
quotient isomorphism by exact linear algebra.
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
    x = dp.relation
    zero = MPoly.zero(ring, 2)
    x_id = ((x, zero), (zero, x))
    if mat_mul(phi, psi) != x_id or mat_mul(psi, phi) != x_id:
        raise FactorizationError("phi*psi = psi*phi = x*I failed")
    if mat_mul(pairing, psi) != mat_mul(mat_transpose(phi), pairing):
        raise FactorizationError("pairing conjugation of psi failed")
    if mat_mul(pairing, phi) != mat_mul(mat_transpose(psi), pairing):
        raise FactorizationError("pairing conjugation of phi failed")
    j_witness = (
        (P({}), P({(0, 0): -ring.one})),
        (P({(0, 1): -ring.one, (0, 0): t}), P({(1, 0): ring.one, (0, 0): s + g * t})),
    )
    k_witness = (
        (P({(0, 0): ring.one}), P({})),
        (P({(1, 0): -ring.one, (0, 0): s}), P({(0, 1): ring.one, (0, 0): -t})),
    )
    return MatFact(dp, phi, psi, pairing, j_witness, k_witness)


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


def _dimensions(ring, k_rows, ncols, img_rows):
    """The coverage certificate: (ncols - rank K, rank B - rank B_high).

    K reads `ncols` coordinates of degree <= bound; B's rows are the same
    coordinates, then higher ones from row `ncols` on (B_high).  The counts
    are dim ker K and that of the images of degree <= bound, B(ker B_high);
    when those images lie in ker K, equal counts make them all of ker K.
    """
    img_ncols = len(img_rows[0])
    kernel_dim = ncols - rank(ring, k_rows, ncols)
    return kernel_dim, rank(ring, img_rows, img_ncols) - rank(ring, img_rows[ncols:], img_ncols)


def _uncovered(ring, k_rows, ncols, img_rows):
    """A basis of ker K and its vectors v with no x such that B x is v padded
    with zeros; run only to name a failure of `_dimensions` or its containment."""
    ker = kernel_basis(ring, k_rows, ncols)
    rhs_list = [kv + [ring.zero] * (len(img_rows) - ncols) for kv in ker]
    flags = consistent_many(ring, img_rows, len(img_rows[0]), rhs_list)
    return ker, [kv for kv, flag in zip(ker, flags) if not flag]


def hom_pair_space(dp, bound):
    """All A-linear maps J -> R determined on (u-s, v-t) through degree `bound`.

    The single syzygy (v-t)*h(u-s) = (u-s)*h(v-t) characterizes module maps
    because v - t is a non-zero-divisor: the homs are the syzygy map's
    kernel.  The span map's columns are the images of (u-s, v-t) under
    multiplication by each rho of canonical degree <= bound, then by the
    fractional generator, through degree bound + 2; in the layout of
    `_block_columns` its rows from 4*(bound + 1) have degree > bound.
    `_dimensions` counts both spaces.  The span lies in the homs: rho
    satisfies the syzygy identically, the fractional generator by the
    overlap identity (v-t)*eps(u-s) = (u-s)*eps(v-t), checked exactly.
    The record keeps ``bound``, ``syz_rows`` and ``span_rows`` for
    `dual_quotient_iso`.
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

    hom_dim, span_dim = _dimensions(ring, syz_rows, len(syz_cols), span_rows)
    contained = j2 * e1 == j1 * e2
    return {
        "hom_dimension": hom_dim,
        "span_dimension": span_dim,
        "span_inside_homs": contained,
        "ok": contained and hom_dim == span_dim,
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
    every hom is covered; otherwise `_uncovered` names those outside the span.
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
        ker, uncovered = _uncovered(ring, hom["syz_rows"], 4 * (bound + 1), hom["span_rows"])
        total, failures = len(ker), [[ring.format_elem(c) for c in kv] for kv in uncovered]
    return {
        "injective_kernel_dimension": kernel_dim,
        "covered_homs": total - len(failures),
        "total_homs": total,
        "ok": not kernel_dim and not failures,
        "failures": failures,
    }


def two_periodic_exactness(mf, bound, cushion=2, transposed=False):
    """Degreewise exactness of ... -> E -alpha-> E -beta-> E -> ...

    At each of the two positions, every kernel element of canonical degree
    <= bound must be the image of an element of degree <= bound + cushion.
    alpha and beta are built once each, at bound + cushion; the kernel
    matrix K at `bound` is the leading 4*(bound + 3) rows by 4*(bound + 1)
    columns of one, and `mul_columns` checks the same degree inequality
    (top <= 2) at both bounds, so the cut hides no overflow.  The image map
    B is the other, whole; in the degree-major layout of `_block_columns`
    its first 4*(bound + 1) rows hold degree <= bound, and B_high is the
    rest.

    A position is certified by `_dimensions`.  Its images of degree <= bound
    lie in ker K: ``build_factorization``, the only constructor of
    ``MatFact``, certified phi*psi = psi*phi = x*I, and ``compositions_ok``
    says x reduces to zero.  Only when the counts differ, or the
    compositions fail, does `_uncovered` test each kernel element for a
    preimage; one without is reported, as its coordinate vector in the
    degree-major layout, as a counterexample candidate (a larger cushion may
    be needed).
    """
    dp = mf.dp
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the exactness check needs field coefficients")
    if cushion < 1:
        raise ValueError("cushion must be >= 1")
    comp_ok = dp.reduce(dp.relation).is_zero

    alpha, beta = mf.alpha, mf.beta
    if transposed:
        alpha, beta = mat_transpose(alpha), mat_transpose(beta)

    record = {"ok": comp_ok, "compositions_ok": comp_ok, "positions": {}}
    src_bound = bound + cushion
    alpha_rows, beta_rows = (
        _dense_rows(ring, _block_columns(mat, src_bound, src_bound + 2), 4 * (src_bound + 3))
        for mat in (alpha, beta)
    )
    ncols = 4 * (bound + 1)
    for name, k_rows, img_rows in (("at_alpha", alpha_rows, beta_rows), ("at_beta", beta_rows, alpha_rows)):
        k_cut = [row[:ncols] for row in k_rows[: 4 * (bound + 3)]]
        if comp_ok:
            kernel_dim, image_dim = _dimensions(ring, k_cut, ncols, img_rows)
            if kernel_dim == image_dim:
                record["positions"][name] = {"kernel_dimension": kernel_dim, "covered": kernel_dim, "failures": []}
                continue
        ker, uncovered = _uncovered(ring, k_cut, ncols, img_rows)
        failures = [
            "no preimage within cushion for kernel element "
            f"[{', '.join(ring.format_elem(c) for c in kv)}]; a larger cushion may be needed"
            for kv in uncovered
        ]
        record["positions"][name] = {
            "kernel_dimension": len(ker),
            "covered": len(ker) - len(failures),
            "failures": failures,
        }
        record["ok"] = record["ok"] and not failures
    return record
