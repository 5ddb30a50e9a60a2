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
from typing import NamedTuple

from .dp_ring import DPElem, DPRing, unvectorize, v_shift_nonzerodivisor, vectorize
from .linalg import consistent_many, kernel_basis, rank
from .mpoly import MPoly
from .normal_form import DegenerateFormError


class FactorizationError(AssertionError):
    """A construction-time matrix identity failed."""


class EPair(NamedTuple):
    """An element of E = R (+) R in canonical coordinates."""

    first: DPElem
    second: DPElem


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

    @property
    def alpha(self):
        """phi acting on E in canonical coordinates."""
        return mat_map(self.phi, self.dp.reduce)

    @property
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


def _pair_vec(pair, bound):
    return vectorize(pair[0], bound) + vectorize(pair[1], bound)


def _pair_unvec(dp, vec, bound):
    half = len(vec) // 2
    return EPair(unvectorize(dp, vec[:half], bound), unvectorize(dp, vec[half:], bound))


def _pair_basis(dp, bound):
    out = []
    for b in dp.basis(bound):
        out.append(EPair(b, dp.zero))
    for b in dp.basis(bound):
        out.append(EPair(dp.zero, b))
    return out


def _apply_mat(mat, pair):
    return EPair(
        mat[0][0] * pair.first + mat[0][1] * pair.second,
        mat[1][0] * pair.first + mat[1][1] * pair.second,
    )


def _columns_to_rows(cols):
    return [list(row) for row in zip(*cols)] if cols else []


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

    Returns (columns, unknown count) for rho over the canonical basis up to
    rho_bound plus one scalar for the fractional generator; image pairs are
    vectorized at bound rho_bound + 2.
    """
    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)
    big = rho_bound + 2
    cols = []
    for m in dp.basis(rho_bound):
        cols.append(_pair_vec(EPair(m * j1, m * j2), big))
    cols.append(_pair_vec(EPair(e1, e2), big))
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
    vt = j2
    us = j1
    cols = []
    for bas in _pair_basis(dp, bound):
        img = vt * bas.first - us * bas.second
        cols.append(vectorize(img, big + 1))
    rows = _columns_to_rows(cols)
    hom_kernel = kernel_basis(ring, rows, len(cols))

    # span of {mult by rho, mult by rho*eps} intersected with degree <= bound
    span_cols, span_big = _dual_span_map(dp, bound)
    n_unknowns = len(span_cols)
    # rows picking out coordinates of canonical degree > bound
    high_rows = []
    for comp in range(2):
        for block in range(2):  # f part, g part of each component
            for j in range(bound + 1, span_big + 1):
                idx = comp * 2 * (span_big + 1) + block * (span_big + 1) + j
                high_rows.append([span_cols[c][idx] for c in range(n_unknowns)])
    inside = kernel_basis(ring, high_rows, n_unknowns)

    def span_image(coeffs):
        vec = [ring.zero] * (4 * (span_big + 1))
        for c, col in zip(coeffs, span_cols):
            if not c.is_zero:
                vec = [a + c * b for a, b in zip(vec, col)]
        return vec

    span_vecs_big = [span_image(n) for n in inside]

    def project(vec):
        out = []
        for comp in range(2):
            for block in range(2):
                base = comp * 2 * (span_big + 1) + block * (span_big + 1)
                out.extend(vec[base : base + bound + 1])
        return out

    span_vecs = [project(v) for v in span_vecs_big]

    # containment: every span vector satisfies the syzygy
    contained = True
    for v in span_vecs:
        pair = _pair_unvec(dp, v, bound)
        if not (vt * pair.first - us * pair.second).is_zero:
            contained = False
            break

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
    j1, j2 = ideal_j_generators(dp)

    # injectivity
    h_bound = bound + 2
    big = h_bound + 1
    cols = [vectorize(e2, big)]  # coefficient of the scalar r
    for h in dp.basis(h_bound):
        cols.append([-c for c in vectorize(j2 * h, big)])
    rows = _columns_to_rows(cols)
    ker = kernel_basis(ring, rows, len(cols))
    injective = not ker

    # surjectivity over the truncated hom space
    hom = hom_pair_space(dp, bound)
    span_cols, span_big = _dual_span_map(dp, bound)
    rows_phi = _columns_to_rows(span_cols)
    rhs_list = [
        _pair_vec(_pair_unvec(dp, kv, bound), span_big) for kv in hom["kernel"]
    ]
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
    kernel element with no preimage within the cushion is reported as a
    counterexample candidate (a larger cushion may be needed).  The
    composition alpha*beta = beta*alpha = x*I is re-checked identically at
    the polynomial level, and x reduces to zero, so image-in-kernel holds
    automatically.
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
    for name, kmat, imat in (("at_alpha", alpha, beta), ("at_beta", beta, alpha)):
        cols = [
            _pair_vec(_apply_mat(kmat, b), bound + 2) for b in _pair_basis(dp, bound)
        ]
        ker = kernel_basis(ring, _columns_to_rows(cols), len(cols))

        src_bound = bound + cushion
        img_cols = [
            _pair_vec(_apply_mat(imat, b), src_bound + 2)
            for b in _pair_basis(dp, src_bound)
        ]
        img_rows = _columns_to_rows(img_cols)
        rhs_list = [
            _pair_vec(_pair_unvec(dp, kv, bound), src_bound + 2) for kv in ker
        ]
        flags = consistent_many(ring, img_rows, len(img_cols), rhs_list)
        failures = [
            "no preimage within cushion for kernel element; a larger cushion may be needed"
            for flag in flags
            if not flag
        ]
        record["positions"][name] = {
            "kernel_dimension": len(ker),
            "covered": len(ker) - len(failures),
            "failures": failures,
        }
        record["ok"] = record["ok"] and not failures
    return record
