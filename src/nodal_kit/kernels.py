"""The coefficient kernels: the loops behind every product of polynomials
and series.

Each kernel serves one data shape.  Sparse polynomials (`MPoly` terms) are
dicts {exponent tuple: nonzero raw value}, and the X-rows of the double-point
ring (`DPElem` parts, in its products, divisions and powers) dicts
{Y-degree: nonzero raw value}; both run the sparse loops.  Dense ones are
lists of raw values indexed by exponent (`Series2` parts and the normal
form's vectors over every base but Q), multiplied by `_product_sums`, or over
Q, in the normal form, integer images of such lists: canonical ones,
multiplied by `_packed_sums`, in `apply_series`, and numerators over a
denominator fixed by their degree, multiplied by `_graded_sum`, in the
iteration.  The loops over the coefficients of
polynomials and series are written here, in three kernels:

- the sparse loops, on raw values combined through the ring's `_vadd` and
  `_vmul` and tested for zero by truth value;
- over Q and F_p, the packed kernel on integer vectors, each side over one
  denominator (`_packed_sums`, `_product_sums`) or each term of a sum
  brought to the sum's denominator by one integer factor (`_graded_sum`);
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
from math import gcd, lcm
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
# denominators, the normal form holds a vector as its image (ints, den, bits):
# the vector ints/den, ints a list of integers and den > 0, with every
# |x| < 2^bits.  An image is canonical when its content is divided out,
# gcd(den, *ints) = 1 with bits that of the largest |x| (the zero vector is
# ([0, ...], 1, 0)); two canonical images of one vector are equal.  The image
# `_images` gives a single vector and every image `_packed_sums` returns are
# canonical; the kernel reads any image, a slice of one too.  `_graded_sum`
# reads images too, but brings each term of its sum to the sum's denominator
# on its own, with its own height, and divides no content out of its output.
#
# Each side is brought to one denominator, the lcm L of its images' dens, by
# multiplying each packed integer once by its scale factor f = L // den: one
# big-integer product per vector, none per coefficient.  The slots then hold
# x*f, and |x*f| < 2^bits * f <= 2^(bits + bitlen(f - 1)), so a side's height
# h is the largest bits + bitlen(f - 1) over its images (a factor of 1 costs
# no bit).  A packed vector is sum x_k*f * 2^(w*k), and the product of two
# such integers holds the convolution, one coefficient per w-bit slot.  A slot
# sums at most `count` products, each below 2^(h_left + h_right) in absolute
# value, so with
#     w >= h_left + h_right + bitlen(count) + 1
# every coefficient c has |c| < 2^(w-1).  Adding 2^(w-1) to every slot then
# leaves each one a digit c + 2^(w-1) in [0, 2^w) with no borrow between
# slots, so the coefficients are read back from the bytes of the sum (w is
# rounded up to whole bytes, and to 1, 2, 4 or 8 of them when it fits a
# machine word, which a memoryview reads in one call), each over
# L_left * L_right.
#
# A side is held as one record (ints, L, scale factors, h): `_common_denominator`
# makes it from images, `_side` straight from vectors of raw values over one
# shared denominator (over F_p the residues over 1, h the bit length of
# p - 1).  Vectors of length 0 and 1 take the same path: an empty vector
# packs to 0, and a scalar to itself.

_WORD_FORMATS = {memoryview(bytes(8)).cast(f).itemsize: f for f in "BHIQ"}  # slot bytes -> format
_LITTLE_ENDIAN = sys.byteorder == "little"


def _side(ring, vecs):
    """A side of the kernel straight from vectors of raw values, as
    `_common_denominator` gives it: one record over the lcm of every
    coefficient's denominator, so no scale factor applies (over Q
    `Rationals._common`, one call per side)."""
    if isinstance(ring, PrimeField):
        return vecs, 1, None, (ring.p - 1).bit_length()
    nums, den = ring._common(vecs)
    return nums, den, None, max([abs(x) for v in nums for x in v], default=0).bit_length()


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
    ints, den, _, bits = _side(ring, [[c.val for c in v] for v in vecs])
    return [(v, den, bits) for v in ints]


def _canonical(ints, den):
    """The canonical image of the vector ints/den over Q (den > 0), given as
    a list it may keep."""
    g = gcd(den, *ints)
    if g != 1:
        ints, den = [x // g for x in ints], den // g
    return ints, den, max(map(abs, ints)).bit_length() if ints else 0


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


def _common_denominator(images):
    """A side of the kernel from its images: its integer vectors, its
    denominator L, each image's scale factor L // den (None when all are 1),
    and its height (see above)."""
    if not images:
        return (), 1, None, 0
    ints, dens, bits = zip(*images)
    if dens.count(dens[0]) == len(dens):
        return ints, dens[0], None, max(bits)
    den = lcm(*set(dens))
    scales = [den // d for d in dens]
    return ints, den, scales, max([b + (f - 1).bit_length() for b, f in zip(bits, scales)])


def _slot_bytes(height, count):
    """Bytes per slot for sums of at most `count` products, each below
    2^height in absolute value (see above)."""
    wb = (height + count.bit_length() + 8) // 8
    if wb <= 8:
        wb = 1 << (wb - 1).bit_length()
    return wb


def _digits(total, wb, lengths):
    """The slots of `total`, sums stacked one after another with wb bytes per
    slot, one list per sum of each length, each slot as its digit
    c + 2^(w-1); and that base 2^(w-1)."""
    nslots = sum(lengths)
    bias = int.from_bytes((bytes(wb - 1) + b"\x80") * nslots, "little")  # 2^(w-1) in every slot
    buf = (total + bias).to_bytes(wb * nslots, "little")
    if wb in _WORD_FORMATS and _LITTLE_ENDIAN:
        digits = iter(memoryview(buf).cast(_WORD_FORMATS[wb]).tolist())
    else:
        digits = (int.from_bytes(buf[k : k + wb], "little") for k in range(0, wb * nslots, wb))
    return [list(islice(digits, length)) for length in lengths], 1 << (8 * wb - 1)


def _slots(left, right, outputs):
    """For sides `left` and `right` (see `_common_denominator`), the
    coefficients of each sum, one list per output, each as a packed slot's
    digit d = c + 2^(w-1); the base 2^(w-1); and the denominator of every
    value."""
    lints, lden, lscales, lbits = left
    rints, rden, rscales, rbits = right
    llen, rlen = max(map(len, lints), default=0), max(map(len, rints), default=0)
    # each pair puts at most min(len(a), len(b)) products into a slot
    count = max((len(pairs) for _, pairs in outputs), default=0) * min(llen, rlen)
    wb = _slot_bytes(lbits + rbits, count)
    w = 8 * wb
    lpacked = [_pack(v, w) for v in lints]
    rpacked = [_pack(v, w) for v in rints]
    if lscales:
        lpacked = [x * f for x, f in zip(lpacked, lscales)]
    if rscales:
        rpacked = [x * f for x, f in zip(rpacked, rscales)]
    # every sum, stacked into one integer at the offset of its first slot
    total = 0
    for length, pairs in reversed(outputs):
        acc = 0
        for i, j in pairs:
            acc += lpacked[i] * rpacked[j]
        total = (total << (w * length)) + acc
    cuts, base = _digits(total, wb, [length for length, _ in outputs])
    return cuts, base, lden * rden


def _packed_sums(ring, left, right, outputs):
    """The packed kernel on images over Q: for each (length, pairs) in
    outputs, the canonical image of the `length` coefficients of the sum of
    left[i] * right[j] over (i, j) in pairs; `length` must cover every
    product in the sum."""
    cuts, base, den = _slots(_common_denominator(left), _common_denominator(right), outputs)
    return [_canonical([d - base for d in cut], den) for cut in cuts]


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
    (cut,), base = _digits(acc, wb, [length])
    return [d - base for d in cut], den, max(max(cut) - base, base - min(cut)).bit_length()


def _product_sums(ring, left, right, outputs):
    """Dense sums of products of vectors of raw values, behind Series2
    products and the normal form over every base but Q.

    For each (length, pairs) in outputs, the list of the `length` raw values
    of the sum of left[i] * right[j] over (i, j) in pairs; `length` must
    cover every product in the sum.  Over Q and F_p this is the packed
    kernel: each side is one record over one denominator (`_side`), so no
    scale factor applies, and each output coefficient is reduced on its own
    (over F_p inline, mod p), so no output image is made canonical.  Over
    composite rings each side is brought to one denominator too
    (`_tower_side`), each output coefficient's integer numerators are
    accumulated by the ring's `_mac` over the product of the two, and each
    is normalised once, by one `_norm`.
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
    cuts, base, den = _slots(_side(ring, left), _side(ring, right), outputs)
    if isinstance(ring, PrimeField):
        p = ring.p
        return [[(d - base) % p for d in cut] for cut in cuts]
    norm = ring._norm
    return [[norm((d - base,), den) if d != base else () for d in cut] for cut in cuts]
