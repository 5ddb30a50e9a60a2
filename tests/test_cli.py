import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from nodal_kit import cli, mf, stabilize
from nodal_kit.reporting import CheckRecord, Report


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
    cfg = cli.RunConfig("check-all", ring="fp:7", gamma="3", delta="2")
    assert cli.run(cfg).overall_pass
    assert len(factorizations) == 1
    assert len(charts) == 1


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
