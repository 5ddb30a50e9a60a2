"""Command-line driver binding the modules into verification pipelines.

Every check the command can run is listed once, in ``REGISTRY``: an ordered
tuple of suites.  A suite names the subcommand that runs it alone (or none,
for the suites only ``check-all`` runs), the parameters it adds to its
records, an optional skip rule under which a single ``*.applicability``
record stands in for it, and its checks.  ``check-all`` runs every suite in
registry order; each other subcommand runs its own suite.  The parser's
subcommands are read from the registry as well.

Exit status is 0 when every check passes, 1 when a check fails, and 2 for
invalid configurations; structured reports are byte-reproducible for a
fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property
from typing import Callable

from . import dp_ring, mf, normal_form, stabilize
from .dp_ring import DPElem, DPRing
from .mpoly import MPoly, random_poly2
from .normal_form import QuadForm
from .reporting import CheckRecord, Report
from .rings import (
    CoeffParseError,
    DualNumbers,
    LocalTruncation,
    Rationals,
    RingConstructionError,
    _quote,
    make_ring,
)
from .series import Series2, substitute_all

DEFAULT_SEED = 20240801

# Y-degree headroom of the double-point ring above degree_bound (the dual's maps reach + 3)
_DP_HEADROOM = 8

# Size bounds, so that every configuration ends in bounded time.  At them the
# slowest runs measured over Q (wall time with interpreter start, best of 3,
# on a shared 2-vCPU x86 box) are normal-form at precision 64: 1.4 s with
# gamma = 1, delta = 0, 6.8 s with gamma = 3, delta = 2 and 22 s with
# gamma = 3/7, delta = 5/11 (2.3 s at precision 40; its time grows with the
# height of gamma and delta, which these bounds do not cap).  Exactness at
# degree bound 96, over Q, F_2 or F_3, takes 0.11-0.20 s, about as long as
# starting the interpreter and importing the package, and dual 0.14-0.20 s
# (7-12 ms in process; gamma = 3, delta = 2, s = 1/2, t = 4; 35 and 20 runs).
# CI runs each at the bounds; the tests and the benchmark stay below them.
_MAX_PRECISION = 64
_MAX_DEGREE_BOUND = 96
_MAX_CUSHION = 16


class ConfigError(ValueError):
    """An invalid configuration, named after the violated precondition."""


@dataclass
class RunConfig:
    subcommand: str
    ring: str = "q"
    gamma: str = "1"
    delta: str = "0"
    s: str = "0"
    t: str = "0"
    precision: int = 6
    degree_bound: int = 6
    cushion: int = 2
    seed: int = DEFAULT_SEED
    series: str = None
    fmt: str = "text"

    def echo(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = v if isinstance(v, (int, bool)) or v is None else str(v)
        return out


class Resolved:
    """Parsed configuration objects, validated for the selected subcommand."""

    def __init__(self, cfg):
        if cfg.subcommand not in SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand {cfg.subcommand!r}")
        try:
            self.ring = make_ring(cfg.ring)
        except RingConstructionError as e:
            raise ConfigError(f"ring descriptor: {e}") from None
        if cfg.subcommand == "check-all":  # only its square-zero and axiom checks run over it
            try:
                self.dual = DualNumbers(self.ring)
            except RingConstructionError as e:
                raise ConfigError(
                    f"ring descriptor: {_quote('dual:' + self.ring.descriptor())}, which the checks build: {e}"
                ) from None
        try:
            self.gamma = self.ring.parse_elem(cfg.gamma)
            self.delta = self.ring.parse_elem(cfg.delta)
            self.s = self.ring.parse_elem(cfg.s)
            self.t = self.ring.parse_elem(cfg.t)
        except CoeffParseError as e:
            raise ConfigError(f"coefficient literal: {e}") from None
        self.q = QuadForm(self.ring, self.gamma, self.delta)
        for what, size, bound in (
            ("precision", cfg.precision, _MAX_PRECISION),
            ("degree bound", cfg.degree_bound, _MAX_DEGREE_BOUND),
            ("cushion", cfg.cushion, _MAX_CUSHION),
        ):
            if size < 1:
                raise ConfigError(f"{what} must be >= 1")
            if size > bound:
                raise ConfigError(f"{what} must be <= {bound}, the size bound")
        # The division checks hold for any discriminant; every other suite needs a unit.
        if cfg.subcommand != "division" and not self.q.discriminant.is_unit:
            raise ConfigError(
                "discriminant gamma^2 - 4*delta must be a unit for this subcommand"
            )
        if cfg.subcommand == "fiber" and self.fiber_problem is not None:
            raise ConfigError(self.fiber_problem)
        self.cfg = cfg

    @cached_property
    def fiber_problem(self):
        """Why the central-fiber suite cannot run on this configuration, or None."""
        if not self.s.is_zero or not self.t.is_zero:
            return "the fiber computation requires s = t = 0"
        try:
            roots = stabilize.split_tangent_roots(self.ring, self.q)
        except stabilize.UnsupportedConfigurationError as e:
            return str(e)
        if roots is None:
            return "y^2 - gamma*y + delta must split with distinct roots over the base field"
        return None

    # Neither builder draws from the checks' rng.  An exception is not cached,
    # so a failing construction fails every check that needs it.
    @cached_property
    def factorization(self):
        """The matrix factorization, built once; raises unless its identities hold."""
        return mf.build_factorization(self.dp())

    @cached_property
    def charts(self):
        """Both chart presentations, built once; raises on any drift from the closed forms."""
        return stabilize.build_charts(self.ring, self.q, self.s, self.t)

    def dp(self):
        return DPRing(
            self.ring,
            self.q,
            self.s,
            self.t,
            degree_bound=self.cfg.degree_bound + _DP_HEADROOM,
        )


def _base_params(cfg, **extra):
    out = {
        "ring": cfg.ring,
        "gamma": cfg.gamma,
        "delta": cfg.delta,
        "s": cfg.s,
        "t": cfg.t,
        "seed": cfg.seed,
    }
    out.update(extra)
    return out


def _run_check(records, name, params, fn):
    t0 = time.perf_counter()
    try:
        details = fn() or {}
        passed = bool(details.pop("ok", True))
        counterexample = details.pop("counterexample", None)
    except Exception as e:  # a crashed check is a failed check
        details = {}
        passed = False
        counterexample = f"{type(e).__name__}: {e}"
    records.append(
        CheckRecord(
            name=name,
            params=params,
            passed=passed,
            details=details,
            counterexample=counterexample,
            elapsed=time.perf_counter() - t0,
        )
    )


def _from_record(rec, *keys):
    """Check details from a library record: its ``ok``, the given keys it has,
    and its first failure, if any, as the counterexample."""
    out = {"ok": rec["ok"], **{k: rec[k] for k in keys if k in rec}}
    if rec.get("failures"):
        out["counterexample"] = rec["failures"][0]
    return out


# --- suites ------------------------------------------------------------------
#
# Each function does its suite's set-up and returns the checks as
# (name, thunk) pairs.  The thunks run in order and share ``rng``.


def _factorize(res, cfg, rng):
    def build():
        res.factorization  # raises unless the identities hold
        return {"ok": True, "entries_degree_at_most_1": True}

    def witnesses():
        rec = mf.witness_identities(res.factorization)
        out = _from_record(rec, "nzd_kernel_dimension")
        if rec["failures"]:
            out["counterexample"] = "; ".join(rec["failures"])
        return out

    return [("mf.construction-identities", build), ("mf.witness-identities", witnesses)]


def _division_n_max(cfg):
    return max(4, min(12, cfg.degree_bound + 6))


def _division(res, cfg, rng):
    n_max = _division_n_max(cfg)
    dpr = DPRing(res.ring, res.q, res.s, res.t, degree_bound=n_max + 4)

    def powers():
        f, g, h = dp_ring.x_power_decompositions(dpr, n_max)
        x = MPoly.var(res.ring, 2, 0)
        for n in range(2, n_max + 1):
            elem = dpr.reduce(x**n)
            expected = DPElem(dpr, f[n], g[n - 1])
            if elem != expected:
                why = f"recursion and division disagree at n={n}: {expected} by the recursion, {elem} by the division"
                return {"ok": False, "counterexample": why}
        return {"ok": True, "verified_up_to": n_max}

    def roundtrip():
        for k in range(30):
            a = dpr.random_element(rng, degree=3)
            back = dpr.reduce(a.expand())
            if back != a:
                why = f"reduce(expand) != id at trial {k}: a = {a}, reduce(a.expand()) = {back}"
                return {"ok": False, "counterexample": why}
            # reduce certifies p = rem + h * relation on every call
            dpr.reduce(random_poly2(res.ring, rng, max_deg=3))
        return {"ok": True, "trials": 30}

    return [("dp.power-identities", powers), ("dp.canonical-roundtrip", roundtrip)]


def _random_series(ring, rng, degrees, density=0.3, precision=None):
    """A series whose coefficient at each index of each degree in `degrees` is,
    with probability `density`, a random ring element (zeros are skipped)."""
    terms = []
    for n in degrees:
        for i in range(n + 1):
            if rng.random() < density:
                c = ring.random_element(rng)
                if not c.is_zero:
                    terms.append((i, n - i, c))
    return Series2.from_terms(ring, terms, precision)


def _final_residual(q, f, xs, ys, n_steps):
    """q(xs, ys) - f, multiplied out afresh from the returned coordinates and
    known through degree n_steps + 2, the order the check asserts.

    Since x and y have order >= 1, the components of q(x, y) through that
    degree depend only on those of x and y through degree n_steps + 1, so
    truncating x and y leaves the verdict and the reported order as they are.
    """
    top = n_steps + 2
    return q.apply_series(xs.truncated(top), ys.truncated(top), f)


def _normal_form(res, cfg, rng):
    n_steps = cfg.precision
    if cfg.series is not None:
        try:
            triples = json.loads(cfg.series)
            # the residual order asserted is n_steps + 2; terms above it cannot matter
            f = Series2.from_triples(res.ring, triples, n_steps + 2)
        except (ValueError, TypeError) as e:
            raise ConfigError(f"series literal: {e}") from None
        if any(n < 2 for n in f.parts):
            raise ConfigError("series literal: parts of degree < 2 must vanish")
        if f.homogeneous_part(2) != res.q.series().homogeneous_part(2):
            raise ConfigError(
                "series literal: degree-2 part must equal X^2 + gamma*X*Y + delta*Y^2"
            )
        candidates = [f]
    else:
        candidates = [
            res.q.series() + _random_series(res.ring, rng, range(3, n_steps + 3), 0.35) for _ in range(4)
        ]

    def residuals():
        for idx, f in enumerate(candidates):
            steps = normal_form.normal_form_iteration(f, res.q, n_steps)
            residual = _final_residual(res.q, f, *steps[-1], n_steps)
            if not residual.order_at_least(n_steps + 2):
                return {
                    "ok": False,
                    "counterexample": f"series {idx}: residual order {residual.order()}",
                }
            for n in range(len(steps) - 1):
                for name, before, after in zip("xy", steps[n], steps[n + 1]):
                    if not after.agrees_below(before, n + 2):
                        what = f"series {idx}: step {n + 1} correction too low"
                        return _unequal_series(what, f"{name}_{n + 1}", after, f"{name}_{n}", before)
        return {
            "ok": True,
            "series_count": len(candidates),
            "residual_order_at_least": n_steps + 2,
        }

    def right_inverse():
        h = Series2(res.ring, {n: [res.ring.random_element(rng) for _ in range(n + 1)] for n in range(1, 10)})
        # certifies L(mu, nu) = h in every degree, raising at the least one it fails
        normal_form.solve_linearized_increment(res.q, h)
        return {"ok": True, "degrees": "1..9"}

    return [("nf.residual-order", residuals), ("nf.right-inverse", right_inverse)]


def _square_zero(res, cfg, rng):
    dring = res.dual
    qd = QuadForm(dring, dring.embed(res.gamma), dring.embed(res.delta))
    tau = dring.eps

    def identity():
        for k in range(6):
            f = _random_series(dring, rng, range(1, 9), precision=8)
            change = normal_form.square_zero_change(qd, tau, f)
            lhs = qd.apply_series(change.xs, change.ys).truncated(8)
            rhs = (qd.series() + f.scale(tau)).truncated(8)
            if lhs != rhs:
                return _unequal_series(f"identity failed at trial {k}", "q(x', y')", lhs, "q(X, Y) + tau*f", rhs)
        return {"ok": True, "trials": 6, "precision": 8}

    def repair():
        for _ in range(4):
            f0 = _random_series(dring, rng, range(1, 7), precision=6)
            defect = f0.scale(tau)
            u = Series2.x(dring) + _random_series(dring, rng, range(1, 7), precision=6).scale(tau)
            v = Series2.y(dring) + _random_series(dring, rng, range(1, 7), precision=6).scale(tau)
            # certifies q(u', v') = q(u, v) - defect, raising at the first degree it fails
            normal_form.repair_small_lift(qd, tau, u, v, dring.zero, dring.zero, defect)
        return {"ok": True, "trials": 4}

    return [("nf.square-zero-identity", identity), ("nf.square-zero-repair", repair)]


def _dual(res, cfg, rng):
    dpr = res.dp()

    @cache  # one hom space for both checks; an exception is not cached, so it fails both
    def hom():
        return mf.hom_pair_space(dpr, cfg.degree_bound)

    def iso():
        rec = mf.dual_quotient_iso(dpr, hom())
        return _from_record(rec, "injective_kernel_dimension", "covered_homs", "total_homs")

    def independence():
        j1, j2 = mf.ideal_j_generators(dpr)
        diff = mf.dual_action(dpr, j2, dpr.zero) - mf.dual_action(dpr, dpr.zero, j1)
        if diff.is_zero:
            return {"ok": True}
        return {"ok": False, "counterexample": f"(v-t)*eps(u-s) = (u-s)*eps(v-t) fails, off by {diff}"}

    return [
        ("dual.hom-space", lambda: _from_record(hom(), "hom_dimension", "span_dimension")),
        ("dual.quotient-iso", iso),
        ("dual.presentation-independence", independence),
    ]


def _exactness(res, cfg, rng):
    def run(transposed):
        rec = mf.two_periodic_exactness(res.factorization, cfg.degree_bound, transposed=transposed)
        out = {"ok": rec["ok"], "compositions_ok": rec["compositions_ok"]}
        for pos, data in rec["positions"].items():
            out[f"{pos}_kernel_dimension"] = data["kernel_dimension"]
            out[f"{pos}_covered"] = data["covered"]
            if data["failures"]:
                out["counterexample"] = data["failures"][0]
        return out

    return [
        ("exactness.periodic", lambda: run(False)),
        ("exactness.transposed", lambda: run(True)),
    ]


def _charts(res, cfg, rng):
    def build():
        res.charts  # raises on any coefficient drift
        return {"ok": True}

    def confluence():
        chart0, _ = res.charts
        for k in range(20):
            p = random_poly2(res.ring, rng, max_deg=4)
            base = stabilize.reduce_chart0(chart0, p)
            for _ in range(3):
                if (other := stabilize.reduce_chart0(chart0, p, rng)) != base:
                    e = (other - base).terms_sorted()[0][0]  # the first monomial where they differ
                    names = chart0.var_names
                    mono = MPoly.monomial(res.ring, e).format(names)
                    why = (
                        f"order-dependent normal form, trial {k}: p = {_quote(p.format(names))}, coefficient of "
                        f"{mono} {base.coefficient(e)} in the fixed order, {other.coefficient(e)} in a random one"
                    )
                    return {"ok": False, "counterexample": why}
        return {"ok": True, "trials": 20}

    def flatness():
        chart0, _ = res.charts
        rec = stabilize.flatness_basis_certificate(chart0, cfg.degree_bound)
        return _from_record(rec, "basis_size")

    def det_symbolic():
        sym = LocalTruncation(Rationals(), ("gamma", "delta"), 4)
        qsym = QuadForm(sym, sym.gen("gamma"), sym.gen("delta"))
        rec = stabilize.determinant_and_ideal_basis(sym, qsym)
        return _from_record(rec, "determinant")

    return [
        ("charts.eliminations-match", build),
        ("charts.confluence", confluence),
        ("charts.flatness-basis", flatness),
        (
            "charts.covering-gluing",
            lambda: _from_record(
                stabilize.covering_certificate(res.ring, res.q, res.s, res.t, res.charts),
                "u_numerator",
                "u_denominator",
            ),
        ),
        (
            "charts.det4-numeric",
            lambda: _from_record(
                stabilize.determinant_and_ideal_basis(res.ring, res.q, res.s, res.t),
                "determinant",
                "basis_certificate",
            ),
        ),
        ("charts.det4-symbolic", det_symbolic),
    ]


def _fiber(res, cfg, rng):
    def decomposition():
        rec = asdict(stabilize.fiber_at_origin(res.ring, res.q, res.charts))
        return _from_record(rec, *(k for k in rec if k != "failures"))

    return [("fiber.decomposition", decomposition)]


def _ring_axioms(res, cfg, rng):
    def failure(law, ring, **elems):
        """The law, the ring and the offending elements, each quoted."""
        named = ", ".join(f"{name} = {_quote(str(x))}" for name, x in elems.items())
        return {"ok": False, "counterexample": f"{law} in {ring}: {named}"}

    def axioms():
        rings = [res.ring, res.dual]
        for ring in rings:
            for k in range(25):
                a = ring.random_element(rng)
                b = ring.random_element(rng)
                c = ring.random_element(rng)
                if (a + b) * c != a * c + b * c:
                    return failure("distributivity", ring, a=a, b=b, c=c)
                if (a * b) * c != a * (b * c):
                    return failure("associativity", ring, a=a, b=b, c=c)
                if a * b != b * a:
                    return failure("commutativity", ring, a=a, b=b)
                inv = a.try_invert()
                if a.is_unit:
                    if inv is None or inv * a != ring.one:
                        return failure("inversion", ring, a=a, inverse=inv)
                elif inv is not None:
                    return failure("non-unit inverted", ring, a=a, inverse=inv)
        eps = res.dual.eps
        if not (eps * eps).is_zero:
            return failure("eps^2 = 0", res.dual, eps_squared=eps * eps)
        return {"ok": True, "rings": [r.descriptor() for r in rings]}

    return [("rings.axioms", axioms)]


def _unequal_series(what, left, lhs, right, rhs):
    """The record of a check that found the series lhs and rhs unequal:
    `what`, then the two sides' precisions when they differ, else the least
    degree where the sides differ, with both components quoted."""
    why = f"{left} is known through degree {lhs.precision}, {right} through {rhs.precision}"
    if lhs.precision == rhs.precision:
        n = min(n for n in lhs.parts.keys() | rhs.parts.keys() if lhs.parts.get(n) != rhs.parts.get(n))
        a, b = (_quote(str(side.homogeneous_part(n))) for side in (lhs, rhs))
        why = f"in degree {n}, {left} = {a} but {right} = {b}"
    return {"ok": False, "counterexample": f"{what}: {why}"}


def _series_laws(res, cfg, rng):
    ring = res.ring

    def draw():  # zero constant term, through precision 5
        return _random_series(ring, rng, range(1, 6), precision=5)

    def laws():
        X, Y = Series2.x(ring), Series2.y(ring)
        for k in range(8):
            f = draw() + Series2.const(ring, ring.random_element(rng), 5)
            g = draw()
            sx = draw() + Series2.x(ring, 5)
            sy = draw() + Series2.y(ring, 5)
            if (same := f.substitute(X, Y)) != f:
                return _unequal_series(f"identity law, trial {k}", "f(X, Y)", same, "f", f)
            # one composition with (sx, sy) for all four, the powers of sx and sy formed once
            fs, gs, sums, prods = substitute_all([f, g, f + g, f * g], sx, sy)
            if sums != fs + gs:
                return _unequal_series(
                    f"additivity, trial {k}", "(f + g)(sx, sy)", sums, "f(sx, sy) + g(sx, sy)", fs + gs
                )
            rhs = (fs * gs).truncated(prods.precision)
            if prods != rhs:
                return _unequal_series(
                    f"multiplicativity, trial {k}", "(f*g)(sx, sy)", prods, "f(sx, sy)*g(sx, sy)", rhs
                )
        return {"ok": True, "trials": 8}

    return [("series.substitution-laws", laws)]


# --- the registry ------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    """One entry of the check registry.

    ``subcommand`` runs the suite alone; None means only ``check-all`` runs
    it.  ``params(cfg)`` gives the parameters the suite adds to the base ones
    in each record.  ``skip`` is ``(record name, note, applies(res))``: when
    ``applies`` is false, one passing record with the note stands in for the
    suite.  ``checks(res, cfg, rng)`` returns the checks as (name, thunk)
    pairs, with ``rng = random.Random(cfg.seed)`` fresh for the suite.
    """

    subcommand: str | None
    checks: Callable
    params: Callable = lambda cfg: {}
    skip: tuple | None = None


def _over_field(res):
    return res.ring.is_field


REGISTRY = (
    Suite(None, _ring_axioms),
    Suite(None, _series_laws),
    Suite("normal-form", _normal_form, params=lambda cfg: {"precision": cfg.precision}),
    Suite(
        None,
        _square_zero,
        skip=(
            "nf.square-zero-applicability",
            "skipped: run over a field to lift into dual numbers",
            _over_field,
        ),
    ),
    Suite("division", _division, params=lambda cfg: {"n_max": _division_n_max(cfg)}),
    Suite("factorize", _factorize),
    Suite(
        "dual",
        _dual,
        params=lambda cfg: {"degree_bound": cfg.degree_bound},
        skip=(
            "dual.applicability",
            "skipped: linear-algebra checks need field coefficients",
            _over_field,
        ),
    ),
    Suite(
        "exactness",
        _exactness,
        params=lambda cfg: {"degree_bound": cfg.degree_bound, "cushion": cfg.cushion},
        skip=(
            "exactness.applicability",
            "skipped: exactness checks need field coefficients",
            _over_field,
        ),
    ),
    Suite("charts", _charts, params=lambda cfg: {"degree_bound": cfg.degree_bound}),
    Suite(
        "fiber",
        _fiber,
        skip=(
            "fiber.applicability",
            "skipped: needs s = t = 0 and split tangent roots",
            lambda res: res.fiber_problem is None,
        ),
    ),
)

SUBCOMMANDS = tuple(s.subcommand for s in REGISTRY if s.subcommand) + ("check-all",)


def run(cfg):
    """Execute the configured pipeline and assemble the report."""
    res = Resolved(cfg)
    records = []
    for suite in REGISTRY:
        if cfg.subcommand not in ("check-all", suite.subcommand):
            continue
        params = _base_params(cfg, **suite.params(cfg))
        if suite.skip is not None and not suite.skip[2](res):
            name, note, _ = suite.skip
            checks = [(name, lambda: {"ok": True, "note": note})]
        else:
            checks = suite.checks(res, cfg, random.Random(cfg.seed))
        for name, fn in checks:
            _run_check(records, name, params, fn)
    return Report(subcommand=cfg.subcommand, config=cfg.echo(), records=records)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nodal-kit",
        description="Exact verification toolkit for pointed-node local geometry.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ring", default=RunConfig.ring, help="ring descriptor, e.g. q, fp:7, dual:q, loc:q:s,t:4")
    for name in ("gamma", "delta", "s", "t"):
        common.add_argument(f"--{name}", default=getattr(RunConfig, name), help="coefficient literal")
    helps = {"cushion": "has no effect; echoed in reports and validated (1-16)"}
    for name in ("precision", "degree_bound", "cushion", "seed"):
        common.add_argument(
            f"--{name.replace('_', '-')}", type=int, default=getattr(RunConfig, name), help=helps.get(name)
        )
    common.add_argument("--format", choices=("text", "structured"), default=RunConfig.fmt, dest="fmt")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "normal-form":
            p.add_argument(
                "--series",
                default=None,
                help='series literal [[i, j, "coeff"], ...] meaning coeff*X^i*Y^j',
            )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(**vars(args))
    try:
        report = run(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = report.to_json() if cfg.fmt == "structured" else report.to_text()
    sys.stdout.write(out)
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
