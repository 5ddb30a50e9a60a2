"""Per-layer microbenchmarks of the traced run, untraced and normalised.

Ring mul+add cost per ring kind, on operands drawn from the workload's ring
of that kind (or, where the workload has none, from that kind built over the
workload's base field), and the four layer rows of the ROADMAP Baseline
table, all over fp:101.
"""

from __future__ import annotations

import random
import statistics
import time

from timing import gap_index

KINDS = ("q", "fp", "dual", "loc")
OP_PAIRS = {"q": 5000, "fp": 10000, "dual": 3000, "loc": 800}


def _timed(fn, reps, ref):
    """Median seconds of fn() over reps, normalised by reference runs around them."""
    before = ref.index()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / gap_index([before, ref.index()], 0)


def kind_rings(descriptors):
    """Ring descriptor to benchmark for each kind, preferring the workload's own."""
    if any("q" in d.split(":") for d in descriptors):
        base = "q"
    else:
        base = next(d for d in descriptors if d.startswith("fp:"))
    fallback = {"q": "q", "fp": "fp:101", "dual": f"dual:{base}", "loc": f"loc:{base}:s,t:3"}
    out = {}
    for kind in KINDS:
        own = [d for d in descriptors if d.split(":")[0] == kind]
        out[kind] = own[0] if own else fallback[kind]
    return out


def ring_op_ns(nk, descriptors, seed, ref):
    """ns per (mul, add) pair on random operands of each ring kind."""
    rings = kind_rings(descriptors)
    out = {}
    for kind in KINDS:
        ring = nk["rings"].make_ring(rings[kind])
        rng = random.Random(f"{kind}:{seed}")
        pool = [ring.random_element(rng) for _ in range(64)]
        n = OP_PAIRS[kind]
        triples = [(pool[i % 64], pool[(7 * i + 3) % 64], pool[(13 * i + 5) % 64]) for i in range(n)]

        def loop():
            for a, b, c in triples:
                a * b + c

        out[f"rings.{kind}.op_ns"] = (_timed(loop, 5, ref) / n * 1e9, "ns")
    return out, rings


def baseline_rows(nk, seed, ref):
    """The ROADMAP Baseline layer rows, over fp:101."""
    F = nk["rings"].make_ring("fp:101")
    rng = random.Random(f"baseline:{seed}")
    q = nk["normal_form"].QuadForm(F, F(3), F(2))
    dp = nk["dp_ring"].DPRing(F, q, F(rng.randrange(101)), F(rng.randrange(101)), degree_bound=40)
    a, b = dp.random_element(rng, degree=15), dp.random_element(rng, degree=15)
    x30 = nk["mpoly"].MPoly.var(F, 2, 0) ** 30
    Series2 = nk["series"].Series2

    def series(rng):
        terms = [(i, n - i, F(rng.randrange(1, 101))) for n in range(1, 13) for i in range(n + 1)
                 if rng.random() < 0.35]
        return Series2.from_terms(F, terms, 12)

    f, g = series(rng), series(rng)
    matrix = [[F(rng.randrange(101)) for _ in range(120)] for _ in range(120)]
    rref = nk["linalg"].rref
    return {
        "dp_ring.mul.deg15_ms": (_timed(lambda: a * b, 21, ref) * 1e3, "ms"),
        "dp_ring.reduce.x30_ms": (_timed(lambda: dp.reduce(x30), 3, ref) * 1e3, "ms"),
        "series.mul.prec12_ms": (_timed(lambda: f * g, 21, ref) * 1e3, "ms"),
        "linalg.rref.fp101_n120_s": (_timed(lambda: rref(F, matrix, 120), 1, ref), "s"),
    }
