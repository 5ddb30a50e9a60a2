import ast
import contextlib
import io
import json
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corrupt_division, corrupt_power_rows, perturbed_preimage, perturbed_rows, perturbed_step
from nodal_kit import cli, mf, normal_form, rings, stabilize
from nodal_kit.dp_ring import DPElem, DPRing
from nodal_kit.mpoly import MPoly
from nodal_kit.reporting import CheckRecord, Report
from nodal_kit.series import Series2


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factorize_passes(capsys):
    code, out, _ = run_cli(
        capsys, "factorize", "--ring", "fp:5", "--gamma", "1", "--delta", "0", "--s", "0", "--t", "0"
    )
    assert code == 0
    assert "PASS mf.construction-identities" in out
    assert out.strip().endswith("checks passed")


def test_fiber_report(capsys):
    code, out, _ = run_cli(capsys, "fiber", "--ring", "q", "--gamma", "3", "--delta", "2")
    assert code == 0
    assert "fiber.decomposition" in out


def test_normal_form_series_literal(capsys):
    code, out, _ = run_cli(
        capsys,
        "normal-form",
        "--ring", "q", "--gamma", "0", "--delta", "-1", "--precision", "6",
        "--series", '[[2,0,"1"],[0,2,"-1"],[3,0,"1"]]',
    )
    assert code == 0
    assert "residual_order_at_least=8" in out


def test_series_terms_above_the_asserted_order_are_dropped(capsys):
    # degree 2^61 lies far above precision + 2 and must not be allocated
    code, out, _ = run_cli(
        capsys,
        "normal-form",
        "--ring", "q", "--gamma", "1", "--delta", "0",
        "--series", '[[2,0,"1"],[1,1,"1"],[2305843009213693952,0,"1"]]',
    )
    assert code == 0
    assert "residual_order_at_least=8" in out


def test_structured_output_schema(capsys):
    code, out, _ = run_cli(
        capsys, "division", "--ring", "fp:7", "--gamma", "3", "--delta", "2", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["overall"] == "pass"
    names = [c["name"] for c in doc["checks"]]
    assert names == sorted(names)
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_structured_determinism(capsys):
    args = ["check-all", "--ring", "fp:5", "--gamma", "1", "--delta", "0", "--format", "structured"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_changes_nothing_structural(capsys):
    args = ["dual", "--ring", "fp:7", "--gamma", "1", "--delta", "0", "--format", "structured"]
    _, out1, _ = run_cli(capsys, *args, "--seed", "1")
    _, out2, _ = run_cli(capsys, *args, "--seed", "2")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["overall"] == d2["overall"] == "pass"


class TestExitCodes:
    def test_bad_ring_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "factorize", "--ring", "fp:4")
        assert code == 2
        assert "not prime" in err

    def test_degenerate_discriminant_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "factorize", "--ring", "q", "--gamma", "2", "--delta", "1")
        assert code == 2
        assert "discriminant" in err

    def test_fiber_requires_origin(self, capsys):
        code, _, err = run_cli(capsys, "fiber", "--ring", "q", "--gamma", "3", "--delta", "2", "--s", "1")
        assert code == 2
        assert "s = t = 0" in err

    def test_fiber_requires_split_roots(self, capsys):
        code, _, err = run_cli(capsys, "fiber", "--ring", "q", "--gamma", "0", "--delta", "1")
        assert code == 2
        assert "split" in err

    def test_colliding_atom_names_are_config_error(self, capsys):
        code, _, err = run_cli(capsys, "normal-form", "--ring", "dual:dual:q")
        assert code == 2
        assert "collides with eps" in err

    def test_bad_series_literal(self, capsys):
        code, _, err = run_cli(
            capsys, "normal-form", "--ring", "q", "--gamma", "0", "--delta", "-1",
            "--series", '[[2,0,"1"]]',
        )
        assert code == 2
        assert "degree-2" in err

    @pytest.mark.parametrize("term", ['[1,0,"1"]', '[0,1,"-2"]', '[0,0,"3"]'])
    def test_series_with_a_low_degree_part(self, capsys, term):
        code, out, err = run_cli(
            capsys, "normal-form", "--ring", "q", "--gamma", "1", "--delta", "0",
            "--precision", "2", "--series", f'[[2,0,"1"],[1,1,"1"],{term}]',
        )
        assert code == 2
        assert out == ""
        assert "series literal: parts of degree < 2 must vanish" in err

    @pytest.mark.parametrize("term", ['[-1,4,"7"]', '[1.9,1.9,"7"]', '[true,2,"7"]'])
    def test_bad_series_exponent(self, capsys, term):
        code, _, err = run_cli(
            capsys, "normal-form", "--ring", "q", "--gamma", "0", "--delta", "-1",
            "--series", f'[[2,0,"1"],[0,2,"-1"],{term}]',
        )
        assert code == 2
        assert "series literal: exponents must be non-negative integers" in err

    @pytest.mark.parametrize(
        "series, message",
        [
            ('[[2,0,"1"],[3,0]]', 'term 1 must be [i, j, "coeff"], not [3, 0]'),
            ('{"a":1}', "term 0 must be [i, j, \"coeff\"], not 'a'"),
            ('[[2,0,"1"],[0,2,"-1"],[1,1,"1",4]]', 'term 2 must be [i, j, "coeff"], not [1, 1, \'1\', 4]'),
            ('[[2,0,"1"],7]', 'term 1 must be [i, j, "coeff"], not 7'),
        ],
    )
    def test_malformed_series_term_is_named(self, capsys, series, message):
        code, out, err = run_cli(
            capsys, "normal-form", "--ring", "q", "--gamma", "0", "--delta", "-1", "--series", series
        )
        assert code == 2
        assert out == ""
        assert err == f"config error: series literal: {message}\n"

    def test_modulus_beyond_the_primality_bound(self, capsys):
        code, _, err = run_cli(capsys, "division", "--ring", f"fp:{2**89 - 1}")
        assert code == 2
        assert "3317044064679887385961981" in err

    def test_bad_precision(self, capsys):
        code, _, err = run_cli(capsys, "division", "--precision", "0")
        assert code == 2
        assert "precision" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("normal-form", "--precision", "100000000"), "precision must be <= 64"),
            (("exactness", "--ring", "fp:7", "--cushion", "1000000"), "cushion must be <= 16"),
            (("exactness", "--ring", "fp:7", "--degree-bound", "97"), "degree bound must be <= 96"),
        ],
        ids=["precision", "cushion", "degree-bound"],
    )
    def test_sizes_past_their_bounds_exit_2_at_once(self, capsys, argv, message):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert message in err

    def test_sizes_at_their_bounds_are_accepted(self):
        cfg = cli.RunConfig("exactness", ring="fp:7", precision=64, degree_bound=96, cushion=16)
        assert cli.Resolved(cfg).cfg is cfg

    def test_failing_check_maps_to_exit_1(self, capsys, monkeypatch):
        failing = Report(
            subcommand="factorize",
            config={},
            records=[CheckRecord(name="x", params={}, passed=False)],
        )
        monkeypatch.setattr(cli, "run", lambda cfg: failing)
        code, out, _ = run_cli(capsys, "factorize")
        assert code == 1
        assert "FAIL" in out

    def test_a_failing_check_never_reads_ok(self, capsys, monkeypatch):
        failing = Report(
            subcommand="normal-form",
            config={},
            records=[
                CheckRecord(name="a", params={}, passed=False, counterexample="series 0: residual order 1"),
                CheckRecord(name="b", params={}, passed=True),
            ],
        )
        monkeypatch.setattr(cli, "run", lambda cfg: failing)
        code, out, _ = run_cli(capsys, "normal-form")
        assert code == 1
        assert out.splitlines()[:3] == [
            "FAIL a: failed",
            "     counterexample: series 0: residual order 1",
            "PASS b: ok",
        ]


def test_check_all_covers_all_modules(capsys):
    code, out, _ = run_cli(
        capsys, "check-all", "--ring", "fp:5", "--gamma", "1", "--delta", "0",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    prefixes = {c["name"].split(".")[0] for c in doc["checks"]}
    assert {"rings", "series", "nf", "dp", "mf", "dual", "exactness", "charts", "fiber"} <= prefixes


def test_check_all_over_rationals(capsys):
    code, out, _ = run_cli(capsys, "check-all", "--ring", "q", "--gamma", "3", "--delta", "2")
    assert code == 0


def test_truncated_ring_skips_field_only_suites(capsys):
    code, out, _ = run_cli(
        capsys, "dual", "--ring", "loc:q:s,t:3", "--gamma", "3", "--delta", "2",
        "--s", "s", "--t", "t",
    )
    assert code == 0
    assert "dual.applicability" in out


def test_empty_report_is_vacuously_passing():
    rep = Report(subcommand="division", config={}, records=[])
    assert rep.overall_pass
    assert rep.to_structured()["overall"] == "pass"
    assert rep.to_structured()["checks"] == []


def test_report_counterexample_rendering():
    rep = Report(
        subcommand="dual",
        config={"ring": "q"},
        records=[
            CheckRecord(name="b", params={}, passed=True, details={"dim": 3}),
            CheckRecord(name="a", params={}, passed=False, counterexample="witness"),
        ],
    )
    text = rep.to_text()
    assert text.index("FAIL a") < text.index("PASS b")  # sorted by name
    assert "counterexample: witness" in text
    doc = rep.to_structured()
    assert doc["overall"] == "fail"
    assert doc["checks"][0]["counterexample"] == "witness"


def test_fiber_over_a_large_prime_in_bounded_time(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "fiber", "--ring", "fp:1000003", "--gamma", "3", "--delta", "2")
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert "PASS fiber.decomposition" in out


# Coefficient literals are bounded (rings._LITERAL_HEIGHT_BOUND): an exponent
# too long to convert, a power past the bound and nested powers all exit 2 at
# once, with a message naming the bound, instead of a traceback, a false FAIL
# or minutes of bigint arithmetic.
@pytest.mark.parametrize(
    "argv",
    [
        ("factorize", "--ring", "fp:7", "--gamma", "2^" + "9" * 5000),
        ("charts", "--ring", "q", "--gamma", "9^5000"),
        ("factorize", "--ring", "q", "--gamma", "9^99999999"),
        ("factorize", "--ring", "q", "--gamma", "((9^99)^99)^99"),
        ("factorize", "--ring", "loc:q:s,t:3", "--gamma", "(1+s)^" + "9" * 1200),
    ],
    ids=["fp-5000-digit-exponent", "q-9^5000", "q-9^99999999", "q-nested", "loc-nilpotent-growth"],
)
def test_oversized_literal_exits_2_in_bounded_time(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert "bound of 4096 bits" in err


@pytest.mark.parametrize("literal", ["9" * 5000, "9" * 5000 + " mod 7"], ids=["bare", "mod"])
def test_a_number_past_the_digit_limit_exits_2_with_a_short_message(capsys, literal):
    # the interpreter converts at most 4,300 digits; the message echoes 60
    code, out, err = run_cli(capsys, "factorize", "--ring", "fp:7", "--gamma", literal)
    assert code == 2
    assert out == ""
    assert "a number passes the bound of 4096 bits" in err
    assert f"… ({len(literal)} characters)" in err
    assert len(err) < 300


def test_a_refused_dual_extension_prints_a_short_message(capsys):
    # the dual numbers over 600 variables of order 2 pass the monomial bound;
    # their descriptor has 2,902 characters, the message quotes 60
    ring = "loc:q:" + ",".join(f"v{i}" for i in range(600)) + ":2"
    code, out, err = run_cli(capsys, "check-all", "--ring", ring)
    assert code == 2
    assert out == ""
    assert f"… ({len('dual:' + ring)} characters), which the checks build" in err
    assert "passes 1200 monomials, the size bound" in err
    assert len(err) < 300


def test_only_check_all_builds_the_dual_numbers(capsys):
    # loc:q:s:446 is within the pair bound, its dual extension is not; only
    # check-all's square-zero and axiom checks run over the extension
    code, out, _ = run_cli(capsys, "factorize", "--ring", "loc:q:s:446", "--gamma", "3", "--delta", "1")
    assert code == 0
    assert out.strip().endswith("checks passed")
    code, out, err = run_cli(capsys, "check-all", "--ring", "loc:q:s:446", "--gamma", "3", "--delta", "1")
    assert code == 2
    assert out == ""
    assert "ring descriptor: 'dual:loc:q:s:446', which the checks build" in err
    assert "passes 100000 pairs" in err


@pytest.mark.parametrize(
    "ring, literal, message",
    [
        ("q", "1/0", "number '1/0' has denominator 0 in '1/0'"),
        ("fp:7", "1/7", "number '1/7': denominator 7 vanishes mod 7 in '1/7'"),
        ("loc:fp:7:s:2", "1/7", "number '1/7': denominator 7 vanishes mod 7 in '1/7'"),
        ("q", "x", "unknown atom 'x' in 'x'"),
    ],
)
def test_a_bad_denominator_is_named_not_an_unknown_atom(capsys, ring, literal, message):
    code, out, err = run_cli(capsys, "factorize", "--ring", ring, "--gamma", literal)
    assert code == 2
    assert out == ""
    assert err == f"config error: coefficient literal: {message}\n"


@pytest.mark.parametrize(
    "ring, gamma, delta",
    [
        ("fp:7", "3^99999999999", "0"),
        ("loc:q:s,t:3", "s^99999999", "(1+s)^99999999"),
        ("dual:q", "(1+eps)^99999999", "0"),
        ("q", "9^1290", "0"),
    ],
)
def test_cheap_large_powers_still_parse(capsys, ring, gamma, delta):
    code, out, _ = run_cli(capsys, "factorize", "--ring", ring, "--gamma", gamma, "--delta", delta)
    assert code == 0
    assert out.strip().endswith("checks passed")


def test_charts_at_the_literal_bound_pass(capsys):
    code, out, _ = run_cli(capsys, "charts", "--ring", "q", "--gamma", "9^1290", "--delta", "2")
    assert code == 0
    assert "FAIL" not in out


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_check_all_builds_the_factorization_and_the_charts_once(monkeypatch):
    factorizations = _counting(monkeypatch, mf, "build_factorization")
    charts = _counting(monkeypatch, stabilize, "build_charts")
    homs = _counting(monkeypatch, mf, "hom_pair_space")
    cfg = cli.RunConfig("check-all", ring="fp:7", gamma="3", delta="2")
    assert cli.run(cfg).overall_pass
    assert len(factorizations) == 1
    assert len(charts) == 1
    assert len(homs) == 1


def test_both_dual_checks_read_one_hom_space(monkeypatch):
    homs = _counting(monkeypatch, mf, "hom_pair_space")
    isos = _counting(monkeypatch, mf, "dual_quotient_iso")
    assert cli.run(cli.RunConfig("dual", ring="fp:7", gamma="3", delta="2")).overall_pass
    (hom_args,) = homs
    (iso_args,) = isos
    assert iso_args[0] is hom_args[0]
    assert iso_args[1]["bound"] == hom_args[1] == 6


def test_a_failing_hom_space_fails_both_dual_checks(monkeypatch):
    calls = []

    def broken(dp, bound):
        calls.append(bound)
        raise ArithmeticError("broken hom space")

    monkeypatch.setattr(mf, "hom_pair_space", broken)
    report = cli.run(cli.RunConfig("dual", ring="fp:7", gamma="3", delta="2"))
    failed = {r.name: r.counterexample for r in report.records if not r.passed}
    assert failed == {
        "dual.hom-space": "ArithmeticError: broken hom space",
        "dual.quotient-iso": "ArithmeticError: broken hom space",
    }
    assert len(calls) == 2  # the exception is not cached


def _perturb_degree(monkeypatch, module, name, degree):
    """Make `module.name`, a function returning a series, add X^degree to its result."""
    real = getattr(module, name)

    def perturbed(*args):
        out = real(*args)
        ring = out.ring
        return out + Series2(ring, {degree: (ring.zero,) * degree + (ring.one,)})

    monkeypatch.setattr(module, name, perturbed)


def _counterexamples(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "structured")
    checks = json.loads(out)["checks"]
    return code, {c["name"]: c.get("counterexample") for c in checks if c["status"] == "fail"}


@pytest.mark.parametrize("degree", [1, 4, 9])
def test_a_wrong_linearized_increment_fails_the_right_inverse_check(monkeypatch, capsys, degree):
    # the right inverse certifies q_X*mu + q_Y*nu = f on its own vectors, so the fault
    # is planted in mu, where it makes that increment wrong in one degree
    perturbed_preimage(monkeypatch, degree)
    code, failed = _counterexamples(capsys, "normal-form", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert code == 1
    assert failed["nf.right-inverse"] == (
        f"AssertionError: right-inverse identity failed at degree {degree} (internal error)"
    )


def _plain_top_literal(k):
    """X^2 + 3XY + 2Y^2 + X^(k+2) + Y^(k+2), for gamma = 3, delta = 2."""
    return json.dumps([[2, 0, "1"], [1, 1, "3"], [0, 2, "2"], [k + 2, 0, "1"], [0, k + 2, "1"]])


def _normal_form_failures(capsys, *argv):
    return _counterexamples(capsys, "normal-form", "--ring", "fp:7", "--gamma", "3", "--delta", "2", *argv)


@pytest.mark.parametrize("k", [1, 3, 6])
@pytest.mark.parametrize("row,column", [(0, 1), (1, 0)])
def test_a_wrong_composed_scalar_fails_the_residual_check(monkeypatch, capsys, k, row, column):
    perturbed_rows(monkeypatch, row, column)
    code, failed = _normal_form_failures(capsys, "--precision", "8", "--series", _plain_top_literal(k))
    assert code == 1
    assert failed == {
        "nf.residual-order": f"AssertionError: right-inverse identity failed at degree {k + 2} (internal error)"
    }


@pytest.mark.parametrize(
    "row, column",
    [pytest.param(row, column, id=f"{row}-column1" if column else f"{row}") for row in (2, 3, 4, 5) for column in (0, 1)],
)
def test_a_wrong_stored_sum_is_caught_by_the_final_residual(monkeypatch, capsys, row, column):
    # a + gamma*b, delta*b and the polar vectors p = 2a + gamma*b and
    # r = gamma*a + 2*delta*b (rows 4 and 5, read off eps: see
    # `perturbed_rows`) only feed later residuals, which the right
    # inverse then solves faithfully; the final residual q(x, y) - f catches
    # them.  Step 1 corrects degree 2: its a + gamma*b and delta*b enter the
    # diagonal term of degree 4; p and r of degree 2 are never read, those of
    # step 2's degree-3 correction first enter degree 5 (against a_2, b_2)
    perturbed_rows(monkeypatch, row, column)
    code, failed = _normal_form_failures(capsys, "--precision", "8", "--series", _plain_top_literal(1))
    assert code == 1
    assert failed == {"nf.residual-order": f"series 0: residual order {4 if row < 4 else 5}"}


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("which", [0, 1])
def test_a_wrong_stored_correction_fails_the_residual_check(monkeypatch, capsys, k, which):
    perturbed_step(monkeypatch, k, which)
    code, failed = _normal_form_failures(capsys)
    assert code == 1
    assert failed == {
        "nf.residual-order": f"AssertionError: right-inverse identity failed at degree {k + 2} (internal error)"
    }


@pytest.mark.parametrize("ring", ["q", "fp:7", "dual:q", "loc:q:s,t:3"])
def test_the_right_inverse_check_draws_like_the_per_degree_loop(monkeypatch, ring):
    cfg = cli.RunConfig("normal-form", ring=ring, gamma="3", delta="1", precision=4)
    res = cli.Resolved(cfg)
    real, seen = normal_form.solve_linearized_increment, []

    def recorded(q, h):
        seen.append(h)
        return real(q, h)

    monkeypatch.setattr(normal_form, "solve_linearized_increment", recorded)
    rng = random.Random(7)
    checks = dict(cli._normal_form(res, cfg, rng))
    assert checks["nf.right-inverse"]() == {"ok": True, "degrees": "1..9"}
    # the loop it replaced: one component of degree n + 1 per call
    ref = random.Random(7)
    cli._normal_form(res, cfg, ref)  # draws the same candidate series
    ring = res.ring
    components = [Series2(ring, {n + 1: [ring.random_element(ref) for _ in range(n + 2)]}) for n in range(9)]
    assert seen == [sum(components, Series2.zero(ring))]
    assert rng.random() == ref.random()


@pytest.mark.parametrize("degree", [2, 5])
def test_a_wrong_linearized_increment_fails_the_square_zero_repair_check(monkeypatch, capsys, degree):
    # planted in mu, as in the right-inverse check above
    perturbed_preimage(monkeypatch, degree)
    code, failed = _counterexamples(capsys, "check-all", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert code == 1
    assert failed["nf.square-zero-repair"] == (
        f"AssertionError: right-inverse identity failed at degree {degree} (internal error)"
    )


@pytest.mark.parametrize("degree", [2, 5])
def test_a_wrong_repair_fails_the_square_zero_repair_check(monkeypatch, capsys, degree):
    # the defect divided by tau gains X^degree, so the corrected generators
    # repair the wrong defect: the repair identity is off by tau*X^degree
    _perturb_degree(monkeypatch, normal_form, "_divide_by_tau", degree)
    code, failed = _counterexamples(capsys, "check-all", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert code == 1
    assert failed["nf.square-zero-repair"] == (
        f"AssertionError: repair identity failed at degree {degree} (internal error)"
    )


def _faulty_iteration(monkeypatch, fault):
    """Make normal_form.normal_form_iteration hand its steps through fault(steps)."""
    real = normal_form.normal_form_iteration
    monkeypatch.setattr(normal_form, "normal_form_iteration", lambda f, q, n: fault(real(f, q, n)))


@pytest.mark.parametrize("ring", ["q", "fp:7", "loc:q:s,t:3"])
def test_a_dropped_last_correction_fails_the_residual_order_check(monkeypatch, capsys, ring):
    # the returned coordinates stop one correction short: q(x, y) - f keeps
    # its degree-(n_steps + 1) component
    _faulty_iteration(monkeypatch, lambda steps: steps[:-1] + steps[-2:-1])
    code, failed = _counterexamples(
        capsys, "normal-form", "--ring", ring, "--gamma", "3", "--delta", "2", "--precision", "6"
    )
    assert code == 1
    assert failed == {"nf.residual-order": "series 0: residual order 7"}


@pytest.mark.parametrize(
    "k, degree, named",
    [
        (1, 1, "x_1 = '2*X' but x_0 = 'X'"),
        (2, 2, "x_2 = 'X^2' but x_1 = '0'"),
        (4, 2, "x_4 = 'X^2' but x_3 = '0'"),
        (4, 4, "x_4 = '14/3*X*Y^3+2*X^2*Y^2+4*X^3*Y+X^4' but x_3 = '14/3*X*Y^3+2*X^2*Y^2+4*X^3*Y'"),
    ],
    ids=["1-1", "2-2", "4-2", "4-4"],
)
def test_a_correction_below_its_degree_fails_the_step_check(monkeypatch, capsys, k, degree, named):
    # step k corrects x and y in degree k + 1 only; x_k gains X^degree below
    # it, and the counterexample names both components in that degree
    def perturb(steps):
        xs, ys = steps[k]
        ring = xs.ring
        steps[k] = (xs + Series2(ring, {degree: (ring.zero,) * degree + (ring.one,)}), ys)
        return steps

    _faulty_iteration(monkeypatch, perturb)
    code, failed = _counterexamples(
        capsys, "normal-form", "--ring", "q", "--gamma", "3", "--delta", "2", "--precision", "6"
    )
    assert code == 1
    assert failed == {"nf.residual-order": f"series 0: step {k} correction too low: in degree {degree}, {named}"}


def test_a_wrong_quotient_fails_the_canonical_roundtrip_check(monkeypatch, capsys):
    corrupt_division(monkeypatch, "quotient", 1)
    code, failed = _counterexamples(capsys, "division", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert code == 1
    assert failed["dp.canonical-roundtrip"] == "AssertionError: division certificate failed (internal error)"


@pytest.mark.parametrize("ring, shift", [("fp:7", "1"), ("dual:q", "eps")])
def test_a_wrong_remainder_fails_the_canonical_roundtrip_check(monkeypatch, capsys, ring, shift):
    # over dual:q the shift moves only the eps part of the constant coefficient
    corrupt_division(monkeypatch, "remainder", shift)
    code, failed = _counterexamples(capsys, "division", "--ring", ring, "--gamma", "3", "--delta", "2")
    assert code == 1
    assert failed["dp.canonical-roundtrip"] == "AssertionError: division certificate failed (internal error)"


def test_a_wrong_power_decomposition_fails_the_power_identities_check_at_its_degree(monkeypatch, capsys):
    # g_5 and every later g gain 1: the recursion's identity first fails at
    # n = 6, where X*g_5 enters; the division itself is sound
    corrupt_power_rows(monkeypatch, "g", 5)
    code, failed = _counterexamples(capsys, "division", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert code == 1
    assert failed == {"dp.power-identities": "PowerIdentityError: power identity failed at n=6"}


def _failed_by_comparison(capsys, *argv):
    """The counterexamples of a run that exits 1 with nothing on stderr."""
    code, out, err = run_cli(capsys, *argv, "--format", "structured")
    assert code == 1 and err == ""
    return {c["name"]: c.get("counterexample") for c in json.loads(out)["checks"] if c["status"] == "fail"}


def test_a_dropped_index_map_entry_fails_the_ring_axioms_naming_the_elements(monkeypatch, capsys):
    # every compiled product loses the entry m_1 * m_0 -> m_1: over
    # loc:q:s,t:3, 1 * s is s but s * 1 is 0
    compile_kernels = rings._compile_kernels

    def dropped(rows, p):
        rows = [list(row) for row in rows]
        del rows[1][0]
        return compile_kernels(rows, p)

    monkeypatch.setattr(rings, "_COMPILED", {})
    monkeypatch.setattr(rings, "_compile_kernels", dropped)
    argv = ["--ring", "loc:q:s,t:3", "--s", "s", "--t", "t", "--gamma", "3", "--delta", "1"]
    failed = _failed_by_comparison(capsys, "check-all", *argv)
    monkeypatch.undo()
    law, _, named = failed["rings.axioms"].partition(" in loc:q:s,t:3: ")
    ring = rings.make_ring("loc:q:s,t:3")
    elems = [ring.parse_elem(ast.literal_eval(quoted)).val for quoted in re.findall(r"[abc] = ('[^']*')", named)]
    mul, add, _ = dropped(ring._rows, None)
    if law == "associativity":
        a, b, c = elems
        assert mul(mul(a, b), c) != mul(a, mul(b, c))
    elif law == "commutativity":
        a, b = elems
        assert mul(a, b) != mul(b, a)
    else:
        assert law == "distributivity"
        a, b, c = elems
        assert mul(add(a, b), c) != add(mul(a, c), mul(b, c))


def test_an_expand_that_drops_the_x_part_fails_the_roundtrip_naming_both_forms(monkeypatch, capsys):
    real = DPElem.expand
    monkeypatch.setattr(DPElem, "expand", lambda self: real(DPElem(self.dp, self.f, {})))
    failed = _failed_by_comparison(capsys, "division", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert failed == {
        "dp.canonical-roundtrip": "reduce(expand) != id at trial 0: a = 5+4*Y+5*X+6*Y^2+5*X*Y+6*Y^3+3*X*Y^2, "
        "reduce(a.expand()) = 5+4*Y+6*Y^2+6*Y^3"
    }


def test_a_shifted_reduce_fails_both_division_checks_naming_both_forms(monkeypatch, capsys):
    # X^2 = -3XY - 2Y^2 over F_7 at s = t = 0; the division adds 1
    real = DPRing.reduce
    monkeypatch.setattr(DPRing, "reduce", lambda self, poly: real(self, poly) + 1)
    failed = _failed_by_comparison(capsys, "division", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert failed == {
        "dp.power-identities": "recursion and division disagree at n=2: 5*Y^2+4*X*Y by the recursion, "
        "1+5*Y^2+4*X*Y by the division",
        "dp.canonical-roundtrip": "reduce(expand) != id at trial 0: a = 5+4*Y+5*X+6*Y^2+5*X*Y+6*Y^3+3*X*Y^2, "
        "reduce(a.expand()) = 6+4*Y+5*X+6*Y^2+5*X*Y+6*Y^3+3*X*Y^2",
    }


def test_a_presentation_dependent_dual_action_fails_with_the_difference(monkeypatch, capsys):
    # eps*(u-s) planted as e1 + u: the presentations differ by (v-t)*u = XY - 4X
    real = mf.dual_generator_images
    monkeypatch.setattr(mf, "dual_generator_images", lambda dp: (real(dp)[0] + dp.u, real(dp)[1]))
    argv = ("dual", "--ring", "fp:7", "--gamma", "3", "--delta", "2", "--s", "1", "--t", "4")
    failed = _failed_by_comparison(capsys, *argv)
    named = "(v-t)*eps(u-s) = (u-s)*eps(v-t) fails, off by 3*X+X*Y"
    # the hom space's overlap identity is the same one, checked on its own
    assert failed["dual.presentation-independence"] == failed["dual.hom-space"] == named


def test_a_perturbed_relation_fails_the_factorization_and_both_exactness_checks(monkeypatch, capsys):
    class PerturbedDPRing(cli.DPRing):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.relation = self.relation + MPoly.var(self.ring, 2, 1)  # still monic in X

    monkeypatch.setattr(cli, "DPRing", PerturbedDPRing)
    code, failed = _counterexamples(capsys, "exactness", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert code == 1
    # phi*psi and psi*phi are still q(X,Y) - q(s,t) on the diagonal, which now misses the added Y
    named = [f"{p} = x*I fails at entry ({i}, {i}), off by 6*Y" for p in ("phi*psi", "psi*phi") for i in (0, 1)]
    assert failed == dict.fromkeys(
        ["exactness.periodic", "exactness.transposed"],
        "FactorizationError: " + "; ".join(named),
    )


def test_a_wrong_adjugate_minor_fails_the_numeric_determinant_check(monkeypatch):
    real = stabilize._det
    depth, perturbed = [0], []

    def wrong_first_minor(ring, m):
        depth[0] += 1
        try:
            out = real(ring, m)
        finally:
            depth[0] -= 1
        # the first 3x3 minor not taken inside the 4x4 determinant is an adjugate entry
        if depth[0] == 0 and len(m) == 3 and not perturbed:
            perturbed.append(m)
            return out + ring.one
        return out

    monkeypatch.setattr(stabilize, "_det", wrong_first_minor)
    report = cli.run(cli.RunConfig("charts", ring="fp:7", gamma="3", delta="2", s="1", t="2"))
    records = {r.name: r for r in report.records}
    assert perturbed
    assert [name for name, r in records.items() if not r.passed] == ["charts.det4-numeric"]
    assert records["charts.det4-numeric"].details == {
        "determinant": "6 mod 7",
        "basis_certificate": "inverse verification failed",
    }
    assert records["charts.det4-numeric"].counterexample == "(m*inv)[0][0] = 0 mod 7, not 1 mod 7"


def test_a_wrong_determinant_fails_both_determinant_checks_with_its_value(monkeypatch, capsys):
    # every 4x4 determinant gains 2; over F_7 it stays a unit, 1 = 6 + 2
    real = stabilize._det
    monkeypatch.setattr(stabilize, "_det", lambda ring, m: real(ring, m) + 2 if len(m) == 4 else real(ring, m))
    argv = ("charts", "--ring", "fp:7", "--gamma", "3", "--delta", "2", "--s", "1", "--t", "2")
    failed = _failed_by_comparison(capsys, *argv)
    assert failed == {
        "charts.det4-numeric": "det = 1 mod 7, but 4*delta - gamma^2 = 6 mod 7",
        "charts.det4-symbolic": "det = 2+4*delta-gamma^2, but 4*delta - gamma^2 = 4*delta-gamma^2",
    }


def test_a_wrong_root_pair_fails_the_fiber_decomposition_with_the_difference(monkeypatch, capsys):
    # y^2 - 3y + 2 = (y - 1)(y - 2), planted as (y - 1)(y - 3): the lines
    # still meet v transversally and are disjoint, and the product misses
    # the chart-0 relation v*(y^2 - 3y + 2) by v*(1 - y)
    monkeypatch.setattr(stabilize, "split_tangent_roots", lambda ring, q: [ring(1), ring(3)])
    failed = _failed_by_comparison(capsys, "fiber", "--ring", "q", "--gamma", "3", "--delta", "2")
    assert failed == {"fiber.decomposition": "v*(y-a)*(y-b) = chart-0 relation fails, off by v-v*y"}


def _plus_x_squared(series):
    ring = series.ring
    return series + Series2(ring, {2: (ring.zero, ring.zero, ring.one)})


_MIXED = ("check-all", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
_CHARTS = ("charts", "--ring", "fp:7", "--gamma", "3", "--delta", "2", "--s", "1", "--t", "2")


def test_a_wrong_identity_substitution_fails_the_law_check_in_the_least_degree(monkeypatch, capsys):
    # f(X, Y) gains X^2; the composition with (sx, sy) is sound
    real = Series2.substitute
    monkeypatch.setattr(Series2, "substitute", lambda self, xs, ys: _plus_x_squared(real(self, xs, ys)))
    assert _failed_by_comparison(capsys, *_MIXED) == {
        "series.substitution-laws": "identity law, trial 0: in degree 2, f(X, Y) = '2*X^2' but f = 'X^2'"
    }


@pytest.mark.parametrize(
    "which,named",
    [
        (2, "additivity, trial 0: in degree 2, (f + g)(sx, sy) = '6*Y^2+2*X^2' but f(sx, sy) + g(sx, sy) = "
         "'6*Y^2+X^2'"),
        (3, "multiplicativity, trial 0: in degree 2, (f*g)(sx, sy) = '6*Y^2+X^2' but f(sx, sy)*g(sx, sy) = '6*Y^2'"),
    ],
    ids=["additivity", "multiplicativity"],
)
def test_a_wrong_batched_composition_fails_its_law_with_both_components(monkeypatch, capsys, which, named):
    # the law check composes [f, g, f + g, f*g] with (sx, sy) in one call;
    # (f + g)(sx, sy) or (f*g)(sx, sy) gains X^2, and each law names its side
    real = cli.substitute_all

    def planted(series, xs, ys):
        out = real(series, xs, ys)
        out[which] = _plus_x_squared(out[which])
        return out

    monkeypatch.setattr(cli, "substitute_all", planted)
    assert _failed_by_comparison(capsys, *_MIXED) == {"series.substitution-laws": named}


def test_an_order_dependent_division_fails_confluence_naming_the_monomial(monkeypatch, capsys):
    # a division in a random order gains v*y: 5*v*y against 6*v*y over F_7
    real = stabilize.reduce_chart0

    def planted(chart, poly, rng=None):
        out = real(chart, poly, rng)
        return out if rng is None else out + MPoly.monomial(chart.relation.ring, (1, 1))

    monkeypatch.setattr(stabilize, "reduce_chart0", planted)
    failed = _failed_by_comparison(capsys, *_CHARTS)
    assert failed == {
        "charts.confluence": "order-dependent normal form, trial 0: "
        "p = '4*v*y^2+3*v^2*y+y^4+v^3*y+2*v^3*y^2+6*v^2*y^4+4*v^3*y^3+6*v^'… (73 characters), "
        "coefficient of v*y 5 in the fixed order, 6 in a random one"
    }


@pytest.mark.parametrize(
    "chart,named",
    [
        (
            "_chart0_closed_form",
            "ChartMismatchError: chart 0 relation drifted:\n"
            "  derived: 4+2*v+5*y^2+4*v*y+v*y^2\n  closed:  4+y+2*v+5*y^2+4*v*y+v*y^2",
        ),
        (
            "_chart1_closed_form",
            "ChartMismatchError: chart 1 relation drifted:\n"
            "  derived: 6+6*x+u+4*u*x+2*u*x^2\n  closed:  6+x+u+4*u*x+2*u*x^2",
        ),
    ],
    ids=["chart0", "chart1"],
)
def test_a_drifted_closed_form_fails_the_elimination_check_with_both_relations(monkeypatch, capsys, chart, named):
    # the closed form gains the chart's second variable (y, or 2*x in the
    # part free of u); every chart check that needs the charts fails with it
    real = getattr(stabilize, chart)

    def drifted(ring, q, s, t):
        out = real(ring, q, s, t)
        if chart == "_chart0_closed_form":
            return out + MPoly.var(ring, 2, 1)
        return out[0], out[1] + MPoly.var(ring, 2, 1) * 2

    monkeypatch.setattr(stabilize, chart, drifted)
    failed = _failed_by_comparison(capsys, *_CHARTS)
    needs_charts = ["charts.eliminations-match", "charts.confluence", "charts.flatness-basis", "charts.covering-gluing"]
    assert failed == dict.fromkeys(needs_charts, named)


def test_a_non_normal_basis_monomial_fails_the_flatness_check_naming_it(monkeypatch, capsys):
    # the certified basis gains v*y^2, which the relation's leading term divides
    real = stabilize.chart0_basis_monomials
    monkeypatch.setattr(stabilize, "chart0_basis_monomials", lambda bound: sorted(real(bound) + [(1, 2)]))
    failed = _failed_by_comparison(capsys, *_CHARTS)
    assert failed == {"charts.flatness-basis": "basis monomial 9 is v*y^2, where the normal forms have v^2"}


def test_a_wrong_gluing_fails_the_covering_check_with_the_difference(monkeypatch, capsys):
    # x*p(u, v, 1/x) gains u for both presenting pairs; f is checked first
    real = stabilize._glue_via_reciprocal
    monkeypatch.setattr(stabilize, "_glue_via_reciprocal", lambda poly: real(poly) + MPoly.var(poly.ring, 3, 0))
    failed = _failed_by_comparison(capsys, *_CHARTS)
    assert failed == {"charts.covering-gluing": "gluing x*f0|_(y=1/x) = f1 fails, off by u"}


def test_a_wrong_square_zero_change_fails_the_identity_check_with_both_components(monkeypatch, capsys):
    # the change absorbs tau*(f + X) where the check expects tau*f: q(x', y')
    # gains eps*X in degree 1, the least degree where the sides differ
    real = normal_form.square_zero_change
    monkeypatch.setattr(normal_form, "square_zero_change", lambda q, tau, f: real(q, tau, f + Series2.x(f.ring)))
    failed = _failed_by_comparison(capsys, "check-all", "--ring", "fp:7", "--gamma", "3", "--delta", "2")
    assert failed == {
        "nf.square-zero-identity": "identity failed at trial 0: in degree 1, q(x', y') = 'eps*X' but q(X, Y) + tau*f = '0'"
    }


def test_a_failing_factorization_fails_every_check_that_needs_it(monkeypatch):
    def broken(dp):
        raise ArithmeticError("broken identity")

    monkeypatch.setattr(mf, "build_factorization", broken)
    report = cli.run(cli.RunConfig("check-all", ring="fp:7", gamma="3", delta="2"))
    failed = {r.name for r in report.records if not r.passed}
    assert failed == {
        "mf.construction-identities",
        "mf.witness-identities",
        "exactness.periodic",
        "exactness.transposed",
    }
    assert all(
        r.counterexample == "ArithmeticError: broken identity"
        for r in report.records
        if r.name in failed
    )


# --- parser fuzzing -----------------------------------------------------------

# Each strategy mixes well-formed values with malformed ones, so that many
# inputs get past the ring and the coefficients to the series literal.
RING_DESCRIPTORS = st.sampled_from(
    ["q", "fp:2", "fp:7", "dual:q", "dual:fp:5", "loc:q:s,t:2", "loc:fp:7:s:3", "dual:loc:q:s,t:2"]
) | st.recursive(
    st.sampled_from(["q", "fp:7", "fp:9", "fp:0", "fp:", "z", ""]),
    lambda inner: st.one_of(
        st.builds("dual:{}".format, inner),
        st.builds("loc:{}:{}:{}".format, inner, st.sampled_from(["s", "s,t", "eps", "s,s", ""]), st.integers(-1, 3)),
    ),
    max_leaves=3,
)
NUMBERS = st.sampled_from(["0", "1", "-1", "3/2", "2/3", "4"])
# Literals are bounded (rings._LITERAL_HEIGHT_BOUND), so random text may run
# to 24 characters and a power may carry thousands of exponent digits: every
# one must still exit cleanly, and quickly.
POWER_LITERALS = st.builds(
    "{}^{}".format,
    st.sampled_from(["9", "3/2", "s", "(1+s)", "(2+e)", "(1+eps)"]),
    st.builds(lambda d, n: d * n, st.sampled_from("123456789"), st.integers(1, 5000)),
)
COEFF_LITERALS = st.one_of(
    NUMBERS,
    NUMBERS,
    st.sampled_from(["2 mod 7", "s^2*t-3", "1+2*eps", "1/0", "", "(", "x"]),
    st.text(alphabet="0123456789/+-*()^ estp", max_size=24),
    POWER_LITERALS,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False) | COEFF_LITERALS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
SERIES_TERMS = st.lists(
    st.tuples(st.integers(-1, 5), st.integers(-1, 5), COEFF_LITERALS).map(list), max_size=4
)
SERIES_LITERALS = st.one_of(
    st.builds(lambda terms: json.dumps([[2, 0, "1"], [1, 1, "1"]] + terms), SERIES_TERMS),
    st.builds(json.dumps, SERIES_TERMS),
    JSON_VALUES.map(json.dumps) | st.text(max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(ring=RING_DESCRIPTORS, s=COEFF_LITERALS, t=NUMBERS, series=SERIES_LITERALS)
def test_parser_fuzz_exits_cleanly(ring, s, t, series):
    # gamma = 1, delta = 0 has discriminant 1, a unit over every ring, so
    # a well-formed ring and coefficients lead on to the series literal
    argv = [
        "normal-form", f"--ring={ring}", "--gamma=1", "--delta=0", f"--s={s}", f"--t={t}",
        "--degree-bound=1", "--precision=2", f"--series={series}",
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    assert code in (0, 1, 2)
