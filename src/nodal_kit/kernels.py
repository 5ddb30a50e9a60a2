"""The coefficient kernels: the loops behind every product of polynomials
and series.

Each kernel serves one data shape.  Sparse polynomials (`MPoly` terms) are
dicts {exponent tuple: nonzero raw value}, and the X-rows of the double-point
ring (`DPElem` parts, in its products, divisions and powers) dicts
{Y-degree: nonzero raw value}; both run the sparse loops.  Dense ones are
lists of raw values indexed by exponent (`Series2` parts, the components
`QuadForm.apply_series` reads, and the normal form's vectors over every base
but Q), or over Q, in the normal form's iteration and solver, integer
numerators over a denominator fixed by their degree.  The loops over the
coefficients of polynomials and series are written here, in four dense paths
and the sparse loops:

- the sparse loops, on raw values combined through the ring's `_vadd` and
  `_vmul` and tested for zero by truth value;
- over Q and F_p, three packed kernels on integer vectors: `_product_sums`,
  each side over one denominator, behind `Series2` products; `_graded_sum`,
  each term of one sum brought to the sum's denominator by one integer
  factor, behind the iteration over Q; and `_form_sums`, whole components of
  x and y packed once, the polar vectors formed on their packed integers and
  a degree unpacked only when it is nonzero, behind `apply_series`;
- over the composite rings, the pair loop on integer numerators, each side
  over one denominator, each coefficient product accumulated by the ring's
  multiply-accumulate `_mac` and each output coefficient normalised once
  (`TruncatedRing._norm`).  `_mac` is straight-line code compiled from the
  ring's index map when the map has at most `rings._COMPILE_MAX_ENTRIES`
  entries, and otherwise a loop over the map that skips zero coefficients.

The loops inside one ring operation are not here: the tower kernels, compiled
and looped, and the rational add and multiply, which are the compiled kernels
of the one-monomial map, live in `rings`.
"""

from __future__ import annotations

import sys
from itertools import islice
from math import lcm
from operator import add

from .rings import PrimeField, RingElem, TruncatedRing


def _sparse_add(ring, x, y):
    """Sum of two sparse polynomials of raw values."""
    vadd = ring._vadd
    out = dict(x)
    for e, c in y.items():
        if e in out:
            c = vadd(out[e], c)
        if c:
            out[e] = c
        else:
            out.pop(e, None)
    return out


def _sparse_mul(ring, x, y):
    """Product of two sparse polynomials of raw values."""
    vadd, vmul = ring._vadd, ring._vmul
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(map(add, e1, e2))
            c = vmul(c1, c2)
            if e in out:
                c = vadd(out[e], c)
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _row_mul_add(ring, out, x, y):
    """out += x * y, in place, for sparse polynomials in one variable: the
    X-rows of `dp_ring`, dicts {Y-degree: nonzero raw value}."""
    vadd, vmul = ring._vadd, ring._vmul
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = e1 + e2
            c = vmul(c1, c2)
            if e in out:
                c = vadd(out[e], c)
            if c:
                out[e] = c
            else:
                out.pop(e, None)


# Over Q and F_p a dense vector is multiplied as one integer (Kronecker
# substitution), as a list of integers over a denominator.  Over F_p that is
# the list of residues over 1.  Over Q, where the coefficients carry their own
# denominators, a set of vectors is lifted over one denominator, the lcm of
# its coefficients' (`_side`, one `Rationals._common` call), and the normal
# form's iteration holds a vector as its image (ints, den, bits): the vector
# ints/den, ints a list of integers and den > 0, with every |x| < 2^bits.
# The image `_images` gives a single vector is canonical: its content is
# divided out, gcd(den, *ints) = 1, with bits that of the largest |x| (the
# zero vector is ([0, ...], 1, 0)).
#
# A packed vector is sum x_k * 2^(w*k), and the product of two such integers
# holds the convolution, one coefficient per w-bit slot; so does an integer
# combination of such products, since packing is linear.  A slot sums at most
# `count` products, each below 2^height in absolute value, so with
#     w >= height + bitlen(count) + 1
# every coefficient c has |c| < 2^(w-1).  Adding 2^(w-1) to every slot then
# leaves each one a digit c + 2^(w-1) in [0, 2^w) with no borrow between
# slots, so the coefficients are read back from the bytes of the sum (w is
# rounded up to whole bytes, and to 1, 2, 4 or 8 of them when it fits a
# machine word, which a memoryview reads in one call).  For the same reason a
# packed sum is 0 exactly when every one of its slots is.  A factor f >= 1 on
# a term whose slots are below 2^bits costs bitlen(f - 1) bits of height
# (|x*f| < 2^bits * f <= 2^(bits + bitlen(f - 1)); a factor of 1 costs no
# bit).  Vectors of length 0 and 1 take the same path: an empty vector packs
# to 0, and a scalar to itself.
#
# Three kernels run on packed integers: `_product_sums` on two sides, each
# over one denominator, behind `Series2` products; `_graded_sum` on one sum
# whose terms are each brought to the sum's denominator, behind the normal
# form's iteration over Q; and `_form_sums` on whole components of x and y,
# with the polar vectors formed on their packed integers, behind
# `QuadForm.apply_series`.

_WORD_FORMATS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}  # slot bytes -> format
_LITTLE_ENDIAN = sys.byteorder == "little"


def _side(ring, vecs):
    """Vectors of raw values over one denominator, as (lists of integers,
    denominator, bits): over Q the numerators over the lcm of every
    coefficient's denominator (`Rationals._common`, one call per side), over
    F_p the residues over 1; every |x| < 2^bits (over F_p bits is that of
    p - 1)."""
    if isinstance(ring, PrimeField):
        return vecs, 1, (ring.p - 1).bit_length()
    nums, den = ring._common(vecs)
    return nums, den, max([abs(x) for v in nums for x in v], default=0).bit_length()


def _tower_side(vecs):
    """A side of the composite pair loop, over one denominator, the lcm of
    its values': each vector of raw values as its nonzero coefficients
    (index, value), each value written over that denominator in the raw
    layout, whose trailing denominator the loop never reads."""
    den = lcm(*{x[-1] for v in vecs for x in v if x})
    return [
        [(k, x if x[-1] == den else [a * (den // x[-1]) for a in x]) for k, x in enumerate(v) if x] for v in vecs
    ], den


def _images(ring, vecs):
    """Images of vectors of RingElem over Q, over one shared denominator
    (see `_side`), each with the side's bits.  The image of a single vector
    is canonical: a prime's highest power in the lcm is some coefficient's
    denominator, whose numerator the prime does not divide."""
    ints, den, bits = _side(ring, [[c.val for c in v] for v in vecs])
    return [(v, den, bits) for v in ints]


def _elements(ring, image):
    """The vector of RingElem an image stands for."""
    ints, den, _ = image
    norm, zero = ring._norm, ring.zero
    return tuple([RingElem(ring, norm((x,), den)) if x else zero for x in ints])


def _pack(ints, w):
    out = 0
    for x in reversed(ints):
        out = (out << w) + x
    return out


def _slot_bytes(height, count):
    """Bytes per slot for sums of at most `count` products, each below
    2^height in absolute value (see above)."""
    wb = (height + count.bit_length() + 8) // 8
    if wb <= 8:
        wb = 1 << (wb - 1).bit_length()
    return wb


def _digits(sums, wb, lengths):
    """The slots of packed sums with wb bytes per slot, one list per sum of
    each length (the sums are stacked into one integer, each at the offset
    of its first slot), each slot as its digit c + 2^(w-1); and that base
    2^(w-1)."""
    total, w = 0, 8 * wb
    for acc, length in zip(reversed(sums), reversed(lengths)):
        total = (total << (w * length)) + acc
    nslots = sum(lengths)
    bias = int.from_bytes((bytes(wb - 1) + b"\x80") * nslots, "little")  # 2^(w-1) in every slot
    buf = (total + bias).to_bytes(wb * nslots, "little")
    if wb in _WORD_FORMATS and _LITTLE_ENDIAN:
        digits = iter(memoryview(buf).cast(_WORD_FORMATS[wb]).tolist())
    else:
        digits = (int.from_bytes(buf[k : k + wb], "little") for k in range(0, wb * nslots, wb))
    return [list(islice(digits, length)) for length in lengths], 1 << (w - 1)


def _form_sums(ring, form, vectors, n_low, right, outputs):
    """The packed kernel behind `QuadForm.apply_series` over Q and F_p: for
    each (length, pairs, minus) in outputs, the `length` coefficients of

        the sum of x_i*p_k + y_i*r_k over (i, k) in pairs, less minus,

    as a tuple of RingElem, or None when they are all zero.  x_j and y_j are
    vectors[2j] and vectors[2j + 1], of length increasing with j, and every
    x_i read is among the first n_low; (p_k, r_k) is, for (j, diagonal) =
    right[k], the pair of polar vectors (2x_j + gamma*y_j,
    gamma*x_j + 2*delta*y_j), or on the diagonal (x_j + gamma*y_j,
    delta*y_j); (gamma, delta) = form, and minus is a vector (None for
    none), all of raw values.

    The first n_low components, the rest and the minuends are lifted as
    three sides (`_side`), over D_0, D_1 and M, and gamma and delta as G/L
    and Delta/L.  Every sum is taken over one denominator E, the lcm of
    D_0*L*D_1 (D_0*L*D_0 when every component is among the first n_low) and
    M: the scalars of the polar and diagonal vectors of a component over D
    carry the factor t = E // (D_0*L*D), so that x_i*p_k is
    (X_i/D_0)*t*(2L*X_j + G*Y_j)/E, and minus's packed integer the factor
    E // M.  Each vector is packed once, at one slot width; each polar and
    diagonal vector is an integer combination of two packed integers; each
    sum is one integer, unpacked only when it is nonzero, and a coefficient
    is normalised only when it is wrapped (over F_p reduced mod p, where a
    nonzero slot may vanish)."""
    ((g, d),), el, _ = _side(ring, [list(form)])
    sets = [_side(ring, vectors[: 2 * n_low]), _side(ring, vectors[2 * n_low :])]
    mints, mden, mbits = _side(ring, [m for _, _, m in outputs if m is not None])
    (_, low_den, low_bits), bound = sets[0], 2 * (el + abs(g) + abs(d))  # bound >= |a| + |b| of each a*x + b*y below
    den = lcm(low_den * el * lcm(*[s[1] for s in sets if s[0]]), mden)
    scales = [den // (low_den * el * set_den) for _, set_den, _ in sets]
    height = max([mbits + (den // mden - 1).bit_length()] + [
        low_bits + bits + (t * bound - 1).bit_length() for (ints, _, bits), t in zip(sets, scales) if ints
    ])
    # at most n_low pairs enter a degree, each x_i*p_k and y_i*r_k putting len(x_i) products into a slot
    wb = _slot_bytes(height, 2 * n_low * max(map(len, vectors[: 2 * n_low]), default=0) + 1)
    w = 8 * wb
    packed = [_pack(v, w) for ints, _, _ in sets for v in ints]
    mpacked = iter([_pack(v, w) * (den // mden) for v in mints])
    combos = []
    for j, diagonal in right:
        x, y, t = packed[2 * j], packed[2 * j + 1], scales[j >= n_low]
        if diagonal:
            combos.append((t * el * x + t * g * y, t * d * y))
        else:
            combos.append((2 * t * el * x + t * g * y, t * g * x + 2 * t * d * y))
    sums = []
    for _, pairs, minus in outputs:
        acc = sum([packed[2 * i] * combos[k][0] + packed[2 * i + 1] * combos[k][1] for i, k in pairs])
        sums.append(acc if minus is None else acc - next(mpacked))
    kept = [k for k, acc in enumerate(sums) if acc]
    cuts, base = _digits([sums[k] for k in kept], wb, [outputs[k][0] for k in kept])
    norm, zero = ring._norm, ring.zero
    out = [None] * len(outputs)
    for k, cut in zip(kept, cuts):
        vals = [norm((c - base,), den) if c != base else zero.val for c in cut]
        if any(vals):
            out[k] = tuple([RingElem(ring, v) if v else zero for v in vals])
    return out


def _graded_sum(length, terms, minus):
    """The packed kernel on images over Q for one sum over a denominator of
    its own, with no content divided out, behind the normal form's iteration
    over Q: an image of the `length` coefficients of

        the sum of s*u*v over (u, v, s) in terms, less minus,

    with s a scalar held as a length-1 image (None for 1) and minus an image
    (None for none), over E, the lcm of the terms' denominators:
    den(u)*den(v)*den(s) for a product, den(minus) for minus.  A term over
    less than E is brought to it by one integer factor on a packed integer
    (u's, or minus's), none on a coefficient.  The slot width follows each
    term's own height, the bits of its vectors and of its factor (a factor
    of 1 costs no bit); the output's bits are exact.  No gcd runs on a
    coefficient, so the output is canonical only where E happens to be the
    least denominator."""
    dens = [u[1] * v[1] * s[1] if s else u[1] * v[1] for u, v, s in terms]
    if minus is not None:
        dens.append(minus[1])
    den = lcm(*set(dens))
    factors, height, count = [], 0, 0
    for (u, v, s), d in zip(terms, dens):
        g = den // d * s[0][0] if s else den // d
        factors.append(g)
        height = max(height, u[2] + v[2] + (abs(g) - 1).bit_length())
        count += min(len(u[0]), len(v[0]))  # products per slot
    if minus is not None:
        mfactor = den // minus[1]
        height = max(height, minus[2] + (mfactor - 1).bit_length())
        count += 1
    wb = _slot_bytes(height, count)
    w = 8 * wb
    acc = 0
    for (u, v, _), g in zip(terms, factors):
        x = _pack(u[0], w)
        acc += (x if g == 1 else x * g) * _pack(v[0], w)
    if minus is not None:
        acc -= _pack(minus[0], w) * mfactor
    (cut,), base = _digits([acc], wb, [length])
    return [d - base for d in cut], den, max(max(cut) - base, base - min(cut)).bit_length()


def _product_sums(ring, left, right, outputs):
    """Dense sums of products of vectors of raw values, behind Series2
    products and the normal form over the composite rings.

    For each (length, pairs) in outputs, the list of the `length` raw values
    of the sum of left[i] * right[j] over (i, j) in pairs; `length` must
    cover every product in the sum.  Over Q and F_p this is the packed
    kernel: each side is lifted over one denominator (`_side`), each sum is
    one integer, and each output coefficient is reduced on its own (over F_p
    inline, mod p).  Over composite rings each side is brought to one
    denominator too (`_tower_side`), each output coefficient's integer
    numerators are accumulated by the ring's `_mac` over the product of the
    two, and each is normalised once, by one `_norm`.
    """
    if isinstance(ring, TruncatedRing):
        mac, size, norm = ring._mac, len(ring._monos), ring._norm
        lnums, lden = _tower_side(left)
        rnums, rden = _tower_side(right)
        den, sums = lden * rden, []
        for length, pairs in outputs:
            acc = [None] * length
            for i, j in pairs:
                nb = rnums[j]
                for k1, x in lnums[i]:
                    for k2, y in nb:
                        out = acc[k1 + k2]
                        if out is None:
                            out = acc[k1 + k2] = [0] * size
                        mac(out, x, y)
            sums.append([norm(nums, den) if nums else () for nums in acc])
        return sums
    (lints, lden, lbits), (rints, rden, rbits) = _side(ring, left), _side(ring, right)
    # each pair puts at most min(len(a), len(b)) products into a slot
    count = max((len(pairs) for _, pairs in outputs), default=0) * min(
        max(map(len, lints), default=0), max(map(len, rints), default=0)
    )
    wb = _slot_bytes(lbits + rbits, count)
    lpacked = [_pack(v, 8 * wb) for v in lints]
    rpacked = [_pack(v, 8 * wb) for v in rints]
    sums = [sum([lpacked[i] * rpacked[j] for i, j in pairs]) for _, pairs in outputs]
    cuts, base = _digits(sums, wb, [length for length, _ in outputs])
    if isinstance(ring, PrimeField):
        p = ring.p
        return [[(d - base) % p for d in cut] for cut in cuts]
    norm, den = ring._norm, lden * rden
    return [[norm((d - base,), den) if d != base else () for d in cut] for cut in cuts]
