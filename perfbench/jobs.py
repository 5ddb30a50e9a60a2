"""Workload definitions: the job cycle each workload runs, drawn from a seed.

A job is the keyword arguments of one ``nodal_kit.cli.RunConfig``; the
program sees nothing else.  Sizes (subcommand, ring, precision, degree
bound) follow a fixed schedule per workload, so every seed runs the same
mix of work; the seed draws the coefficients (gamma, delta, s, t), the
normal-form series and the per-job ``RunConfig.seed`` that drives the
program's own random inputs.
Runs cover whole cycles, which keeps the job mix of a run exact.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

DEFAULT_SEED = 1

WHY = {
    "nf-deep": (
        "normal-form over q at precision 12 on a generated series: series.mul on Fractions "
        "is most of the time; no linalg, dp_ring, mf or stabilize code runs"
    ),
    "cert-fp": (
        "dual, exactness, factorize and division over fp:101 at degree bound 20-30: "
        "elimination on ints mod p and DPElem mul; no series or normal_form code runs"
    ),
    "check-all-mixed": (
        "check-all over every ring kind (q, fp:5/7/10007, loc, dual): elimination over Q and "
        "F_p, shallow series, composite-ring dispatch, charts and fiber"
    ),
}

# Which end-to-end metric each per-layer metric should move, on which workload.
PREDICTIONS = [
    {"layer": "rings", "metrics": "rings.{q,fp,dual,loc}.ops, rings.*.op_ns",
     "moves": "jobs_per_s on all; q on nf-deep, fp on cert-fp, dual/loc on check-all-mixed"},
    {"layer": "mpoly", "metrics": "mpoly.mul.{calls,time_s,term_products}",
     "moves": "check-all-mixed (charts, division)"},
    {"layer": "series", "metrics": "series.mul.*, series.substitute.*",
     "moves": "job_p50_s and job_tail_s on nf-deep"},
    {"layer": "normal_form", "metrics": "normal_form.iteration.*, steps, useful_coeff_ratio, right_inverse",
     "moves": "nf-deep"},
    {"layer": "dp_ring", "metrics": "dp_ring.mul.*, dp_ring.reduce.*, dp_ring.nzd.time_s",
     "moves": "cert-fp, check-all-mixed"},
    {"layer": "linalg", "metrics": "linalg.calls, linalg.{fp,q}.time_s, cells, nonzero_ratio, rank_ratio, dense_ops, q.max_entry_bits",
     "moves": "fp on cert-fp; q on check-all-mixed"},
    {"layer": "mf", "metrics": "mf.{exactness,hom_space,quotient_iso}.{time_s,self_s}, build_factorization.repeat_ratio",
     "moves": "cert-fp"},
    {"layer": "stabilize", "metrics": "stabilize.build_charts.*, reduce_chart0.*, flatness, split_tangent_roots",
     "moves": "check-all-mixed"},
    {"layer": "cli/reporting", "metrics": "cli.run.self_s, reporting.to_json.time_s, cli.report_bytes",
     "moves": "setup_s and jobs_per_s on check-all-mixed"},
]


def _job(rng, subcommand, ring, gamma, delta, s="0", t="0", **sizes):
    job = {
        "subcommand": subcommand,
        "ring": ring,
        "gamma": str(gamma),
        "delta": str(delta),
        "s": str(s),
        "t": str(t),
        "seed": rng.randrange(1, 2**31),
        "fmt": "structured",
    }
    job.update(sizes)
    return job


# Forms X^2 + gamma*X*Y + delta*Y^2 over Q of like normal-form cost, so that
# the seed changes the inputs but not the amount of work; gamma's sign is
# drawn as well.
Q_FORMS = ("1", "1"), ("2", "3"), ("2", "-1"), ("3/2", "1"), ("3", "-2"), ("2", "-3")


def _q_form(rng):
    """(gamma, delta) over Q with gamma^2 != 4*delta, from Q_FORMS."""
    g, d = rng.choice(Q_FORMS)
    return (g if rng.random() < 0.5 else f"-{g}"), d


def _fp_form(rng, p):
    """(gamma, delta) over F_p with a unit discriminant."""
    while True:
        g, d = rng.randrange(p), rng.randrange(p)
        if (g * g - 4 * d) % p:
            return g, d


def _fp_split_form(rng, p):
    """(gamma, delta) = (a + b, a*b) for distinct roots a, b of y^2 - gamma*y + delta."""
    a, b = rng.sample(range(p), 2)
    return (a + b) % p, (a * b) % p


def _nonzero_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))


SERIES_COEFFS = ("1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2")


def _series_literal(rng, g, d, precision):
    """q plus a third of the monomials of each degree 3 .. precision + 2, small coefficients.

    A fixed density and height keep the cost of one precision steady across seeds.
    """
    terms = [[2, 0, "1"], [1, 1, g], [0, 2, d]]
    for n in range(3, precision + 3):
        for i in sorted(rng.sample(range(n + 1), (n + 2) // 3)):
            terms.append([i, n - i, rng.choice(SERIES_COEFFS)])
    return json.dumps(terms)


def _nf_deep(rng):
    jobs = []
    for precision in (12,) * 8:
        g, d = _q_form(rng)
        jobs.append(_job(rng, "normal-form", "q", g, d, precision=precision,
                         series=_series_literal(rng, g, d, precision)))
    return jobs


def _cert_fp(rng):
    p = 101
    jobs = []
    sizes = [("dual", 28), ("dual", 30), ("exactness", 22), ("exactness", 24), ("exactness", 26),
             ("factorize", 20), ("division", 30)]
    for sub, bound in sizes:
        g, d = _fp_form(rng, p)
        s, t = rng.randrange(p), rng.randrange(p)
        jobs.append(_job(rng, sub, f"fp:{p}", g, d, s, t, degree_bound=bound))
    return jobs


def _check_all_mixed(rng):
    # Sizes bring every ring kind's job to 1-2 s, so no kind sits alone at the median.
    jobs = []
    for bound in (8, 10):
        g, d = _q_form(rng)
        jobs.append(_job(rng, "check-all", "q", g, d, _nonzero_rational(rng), _nonzero_rational(rng),
                         degree_bound=bound, precision=5))
    for p in (5, 7, 10007):
        g, d = _fp_split_form(rng, p)
        jobs.append(_job(rng, "check-all", f"fp:{p}", g, d, degree_bound=24, precision=5))
    g, d = _fp_form(rng, 7)
    jobs.append(_job(rng, "check-all", "loc:fp:7:s,t:3", g, d, "s", "t", degree_bound=16, precision=5))
    g, d = _q_form(rng)
    jobs.append(_job(rng, "check-all", "loc:q:s,t:3", g, d, "s", "t", precision=5))
    g, d = _q_form(rng)
    d_eps = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    jobs.append(_job(rng, "check-all", "dual:q", g, f"{d}+({d_eps})*eps",
                     _nonzero_rational(rng), f"({_nonzero_rational(rng)})*eps", precision=5))
    g, d = _q_form(rng)
    jobs.append(_job(rng, "check-all", "dual:loc:q:s,t:2", g, d, "s", "t", precision=5))
    return jobs


_CYCLES = {"nf-deep": _nf_deep, "cert-fp": _cert_fp, "check-all-mixed": _check_all_mixed}
WORKLOADS = tuple(_CYCLES)

# Normalised seconds one cycle took at the commit that defined the benchmark.
# A run covers round(--seconds / NOMINAL_CYCLE_S) cycles, so every run of a
# workload has the same jobs count and job mix, and so the same tail level.
NOMINAL_CYCLE_S = {"nf-deep": 3.35, "cert-fp": 4.95, "check-all-mixed": 11.25}


def cycles_for(workload, seconds):
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def job_cycle(workload, seed, cycle=0):
    """Cycle number `cycle` of a workload's job stream for a seed: a list of RunConfig kwargs.

    Every cycle has the same sizes; each draws fresh coefficients and job seeds.
    """
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    return _CYCLES[workload](rng)


def _kind(descriptor):
    return descriptor.split(":")[0]


def _primes(descriptor):
    parts = descriptor.split(":")
    return [int(parts[i + 1]) for i, part in enumerate(parts) if part == "fp"]


def traffic(jobs, seed):
    """The input dimensions a run covers, for the result's context."""
    return {
        "seed": seed,
        "jobs_per_cycle": len(jobs),
        "subcommands": sorted({j["subcommand"] for j in jobs}),
        "rings": sorted({j["ring"] for j in jobs}),
        "ring_kinds": sorted({_kind(j["ring"]) for j in jobs}),
        "primes": sorted({p for j in jobs for p in _primes(j["ring"])}),
        "degree_bounds": sorted({j["degree_bound"] for j in jobs if "degree_bound" in j}),
        "precisions": sorted({j["precision"] for j in jobs if "precision" in j}),
        "s_t_zero": sorted({j["s"] == "0" and j["t"] == "0" for j in jobs}),
    }
