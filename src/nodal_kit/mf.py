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

from .dp_ring import DPRing, mul_columns, v_shift_nonzerodivisor, vectorize
from .linalg import _dense_rows, _sparse, consistent_many, kernel_basis, rank
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


def mat_eq(a, b):
    return all(a[i][j] == b[i][j] for i in range(2) for j in range(2))


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
    if not mat_eq(mat_mul(phi, psi), x_id) or not mat_eq(mat_mul(psi, phi), x_id):
        raise FactorizationError("phi*psi = psi*phi = x*I failed")
    if not mat_eq(mat_mul(pairing, psi), mat_mul(mat_transpose(phi), pairing)):
        raise FactorizationError("pairing conjugation of psi failed")
    if not mat_eq(mat_mul(pairing, phi), mat_mul(mat_transpose(psi), pairing)):
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

    The result is independent of the presentation (a, b); the overlap
    identity (v-t)*eps(u-s) = (u-s)*eps(v-t) holds identically in the
    quotient and is exercised by the test suite.
    """
    e1, e2 = dual_generator_images(dp)
    return a * e1 + b * e2


def _block_columns(mat, bound, out_bound):
    """Sparse raw columns of a matrix of elements acting on tuples of canonical forms.

    Input component j runs over the basis of canonical degree <= bound (in
    the order of `DPRing.basis`); the images under the rows of `mat` are
    vectorized at `out_bound` and stacked.
    """
    height = 2 * (out_bound + 1)
    cols = []
    for j in range(len(mat[0])):
        blocks = [mul_columns(row[j], bound, out_bound) for row in mat]
        for parts in zip(*blocks):
            cols.append({i + r * height: x for r, part in enumerate(parts) for i, x in part.items()})
    return cols


def _apply_columns(ring, cols, coeffs, nrows):
    """The dense image sum(c * col) of a coefficient vector under sparse raw columns."""
    out = [ring.zero] * nrows
    for c, col in zip(coeffs, cols):
        if not c.is_zero:
            for i, x in col.items():
                out[i] = out[i] + c * RingElem(ring, x)
    return out


def _relayout(vec, bound, new_bound, zero):
    """A vector of E moved from the `bound` layout of `vectorize` to the `new_bound` one.

    Each of its four blocks (the Y^k and X Y^k parts of both components)
    keeps its first min(bound, new_bound) + 1 entries; a wider layout pads
    with zero.
    """
    n = min(bound, new_bound) + 1
    out = [zero] * (4 * (new_bound + 1))
    for part in range(4):
        start = part * (new_bound + 1)
        out[start : start + n] = vec[part * (bound + 1) : part * (bound + 1) + n]
    return out


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
    if not mat_eq(ka, ka_expected):
        failures.append("j_witness*alpha")
    if not mat_eq(lb, lb_expected):
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


def _dual_span_map(dp, rho_bound):
    """Images of the maps 'multiply by rho' and 'multiply by rho*eps' on J.

    Returns (sparse raw columns, image bound) for rho over the canonical
    basis up to rho_bound plus one scalar for the fractional generator;
    image pairs are vectorized at bound rho_bound + 2.
    """
    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)
    big = rho_bound + 2
    cols = _block_columns(((j1,), (j2,)), rho_bound, big)
    cols.extend(_sparse([vectorize(e1, big) + vectorize(e2, big)]))
    return cols, big


def hom_pair_space(dp, bound):
    """All A-linear maps J -> R determined on (u-s, v-t) through degree `bound`.

    The single syzygy (v-t)*h(u-s) = (u-s)*h(v-t) characterizes module maps
    because v - t is a non-zero-divisor; the solution space is computed as a
    kernel and compared, dimension and containment both ways, against the
    span of multiplication by 1 and by the dual fractional generator.
    """
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the hom-space computation needs field coefficients")
    j1, j2 = ideal_j_generators(dp)
    big = bound + 2

    # kernel of the syzygy map (r1, r2) |-> (v-t) r1 - (u-s) r2
    syz_cols = _block_columns(((j2, -j1),), bound, big + 1)
    syz_rows = 2 * (big + 2)
    hom_kernel = kernel_basis(ring, _dense_rows(ring, syz_cols, syz_rows), len(syz_cols))

    # span of {mult by rho, mult by rho*eps} intersected with degree <= bound
    span_cols, span_big = _dual_span_map(dp, bound)
    n_unknowns = len(span_cols)
    span_rows = _dense_rows(ring, span_cols, 4 * (span_big + 1))
    # rows picking out coordinates of canonical degree > bound
    high_rows = [
        span_rows[part * (span_big + 1) + j]
        for part in range(4)  # f part, g part of each component
        for j in range(bound + 1, span_big + 1)
    ]
    inside = kernel_basis(ring, high_rows, n_unknowns)
    span_vecs = [
        _relayout(_apply_columns(ring, span_cols, n, len(span_rows)), span_big, bound, ring.zero)
        for n in inside
    ]

    # containment: every span vector satisfies the syzygy
    contained = all(
        all(c.is_zero for c in _apply_columns(ring, syz_cols, v, syz_rows)) for v in span_vecs
    )

    hom_dim = len(hom_kernel)
    span_dim = rank(ring, span_vecs, 4 * (bound + 1))
    return {
        "hom_dimension": hom_dim,
        "span_dimension": span_dim,
        "span_inside_homs": contained,
        "ok": contained and hom_dim == span_dim,
        "kernel": hom_kernel,
    }


def dual_quotient_iso(dp, bound):
    """The base ring maps isomorphically onto duals-mod-R via the fractional class.

    Injectivity: r*(u+s+gamma*t) = (v-t)*h forces r = 0 (kernel of the
    combined linear system is trivial).  Surjectivity: every truncated hom is
    rho*(multiplication) + c*(fractional action) with rho in R and c scalar.
    """
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the quotient-isomorphism check needs field coefficients")
    _, e2 = dual_generator_images(dp)
    _, j2 = ideal_j_generators(dp)

    # injectivity
    h_bound = bound + 2
    big = h_bound + 1
    # the coefficient of the scalar r, then h over the canonical basis
    cols = _sparse([vectorize(e2, big)]) + mul_columns(-j2, h_bound, big)
    ker = kernel_basis(ring, _dense_rows(ring, cols, 2 * (big + 1)), len(cols))
    injective = not ker

    # surjectivity over the truncated hom space
    hom = hom_pair_space(dp, bound)
    span_cols, span_big = _dual_span_map(dp, bound)
    rows_phi = _dense_rows(ring, span_cols, 4 * (span_big + 1))
    rhs_list = [_relayout(kv, bound, span_big, ring.zero) for kv in hom["kernel"]]
    flags = consistent_many(ring, rows_phi, len(span_cols), rhs_list)
    covered = sum(flags)
    failures = [
        [ring.format_elem(c) for c in kv]
        for kv, flag in zip(hom["kernel"], flags)
        if not flag
    ]
    return {
        "injective_kernel_dimension": len(ker),
        "covered_homs": covered,
        "total_homs": len(hom["kernel"]),
        "ok": injective and not failures,
        "failures": failures,
    }


def two_periodic_exactness(mf, bound, cushion=2, transposed=False):
    """Degreewise exactness of ... -> E -alpha-> E -beta-> E -> ...

    At each of the two positions, every kernel element of canonical degree
    <= bound must be the image of an element of degree <= bound + cushion; a
    kernel element with no preimage within the cushion is reported, as its
    coordinate vector, as a counterexample candidate (a larger cushion may be
    needed).  The composition alpha*beta = beta*alpha = x*I is re-checked
    identically at the polynomial level, and x reduces to zero, so
    image-in-kernel holds automatically.
    """
    dp = mf.dp
    ring = dp.ring
    if not ring.is_field:
        raise ValueError("the exactness check needs field coefficients")
    if cushion < 1:
        raise ValueError("cushion must be >= 1")
    x = dp.relation
    zero = MPoly.zero(ring, 2)
    x_id = ((x, zero), (zero, x))
    comp_ok = mat_eq(mat_mul(mf.phi, mf.psi), x_id) and mat_eq(mat_mul(mf.psi, mf.phi), x_id)
    comp_ok = comp_ok and dp.reduce(x).is_zero

    alpha, beta = mf.alpha, mf.beta
    if transposed:
        alpha, beta = mat_transpose(alpha), mat_transpose(beta)

    record = {"ok": comp_ok, "compositions_ok": comp_ok, "positions": {}}
    src_bound = bound + cushion
    for name, kmat, imat in (("at_alpha", alpha, beta), ("at_beta", beta, alpha)):
        cols = _block_columns(kmat, bound, bound + 2)
        ker = kernel_basis(ring, _dense_rows(ring, cols, 4 * (bound + 3)), len(cols))

        img_cols = _block_columns(imat, src_bound, src_bound + 2)
        img_rows = _dense_rows(ring, img_cols, 4 * (src_bound + 3))
        rhs_list = [_relayout(kv, bound, src_bound + 2, ring.zero) for kv in ker]
        flags = consistent_many(ring, img_rows, len(img_cols), rhs_list)
        failures = [
            "no preimage within cushion for kernel element "
            f"[{', '.join(ring.format_elem(c) for c in kv)}]; a larger cushion may be needed"
            for kv, flag in zip(ker, flags)
            if not flag
        ]
        record["positions"][name] = {
            "kernel_dimension": len(ker),
            "covered": len(ker) - len(failures),
            "failures": failures,
        }
        record["ok"] = record["ok"] and not failures
    return record
