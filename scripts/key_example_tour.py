#!/usr/bin/env python3
"""Walk through the double-point quotient for one parameter choice.

Prints the factorization matrices, the canonical-form arithmetic, the dual
fractional action, and the chart presentations, so the objects the test
suite checks can be inspected by eye.
"""

import argparse
import sys

from nodal_kit.dp_ring import DPElem, DPRing, x_power_decompositions
from nodal_kit.mf import (
    build_factorization,
    dual_action,
    dual_generator_images,
    hom_pair_space,
    ideal_j_generators,
    two_periodic_exactness,
)
from nodal_kit.mpoly import MPoly
from nodal_kit.normal_form import QuadForm
from nodal_kit.rings import make_ring
from nodal_kit.stabilize import build_charts, fiber_at_origin


def mat_str(m, names=("X", "Y")):
    rows = []
    for row in m:
        rows.append("[" + ", ".join(e.format(names) for e in row) + "]")
    return "[" + "; ".join(rows) + "]"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ring", default="q")
    ap.add_argument("--gamma", default="3")
    ap.add_argument("--delta", default="2")
    ap.add_argument("--s", default="1")
    ap.add_argument("--t", default="0")
    args = ap.parse_args()

    ring = make_ring(args.ring)
    q = QuadForm.make(ring, ring.parse_elem(args.gamma), ring.parse_elem(args.delta))
    s, t = ring.parse_elem(args.s), ring.parse_elem(args.t)
    dp = DPRing(ring, q, s, t)

    print(f"ring: {ring.descriptor()},  q = X^2 + ({q.gamma})XY + ({q.delta})Y^2,  s={s}, t={t}")
    print(f"relation x = q(X,Y) - q(s,t) = {dp.relation.format(('X', 'Y'))}")
    print(f"discriminant: {q.discriminant}")
    print()

    m = build_factorization(dp)
    print("phi  =", mat_str(m.phi))
    print("psi  =", mat_str(m.psi))
    print("phi*psi = psi*phi = x*I, pairing conjugates the pair to its transposes")
    print()

    X = MPoly.var(ring, 2, 0)
    f, g, _ = x_power_decompositions(dp, 6)
    print("canonical forms of X^n (division route = recursion route):")
    for n in range(2, 7):
        reduced = dp.reduce(X**n)
        print(f"  X^{n} = {reduced}")
        recursed = DPElem(dp, f[n], g[n - 1])
        if reduced != recursed:
            sys.exit(f"X^{n}: the recursion route gives {recursed}")
    print()

    j1, j2 = ideal_j_generators(dp)
    e1, e2 = dual_generator_images(dp)
    print(f"marked-point ideal J = ({j1}, {j2})")
    print(f"fractional action:  eps*(u-s) = {e1},  eps*(v-t) = {e2}")
    print(f"overlap identity: {dual_action(dp, j2, dp.zero) == dual_action(dp, dp.zero, j1)}")
    if ring.is_field:
        hom = hom_pair_space(dp, 6)
        print(f"hom space at bound 6: dimension {hom['hom_dimension']} = span dimension {hom['span_dimension']}")
        ex = two_periodic_exactness(m, 6)
        dims = {k: v["kernel_dimension"] for k, v in ex["positions"].items()}
        print(f"two-periodic exactness: {ex['ok']} (kernel dimensions {dims})")
    print()

    chart0, chart1 = build_charts(ring, q, s, t)
    print(f"chart 0 relation in (v, y): {chart0.format_relation()}")
    print(f"chart 1 relation in (u, x): {chart1.format_relation()}")
    if s.is_zero and t.is_zero and ring.is_field:
        try:
            rep = fiber_at_origin(ring, q, (chart0, chart1))
            print(f"central fiber components: {rep.components}, roots {rep.roots}")
        except Exception as e:
            print(f"central fiber: {e}")


if __name__ == "__main__":
    main()
