#!/usr/bin/env python3
"""Mutation guard: every internal certificate must be load-bearing.

Each entry of MUTANTS is (file under src/nodal_kit, exact source text,
replacement, the pytest node ids that must fail).  The script copies src/ to
a temporary directory once and compiles it there, with bytecode checked
against each source's hash, and checks once that the package is imported
from that copy.  For each entry it copies that compiled tree, replaces the
text, which must occur in the file exactly once (so only that file is
compiled again), and runs the named tests against the copy with `-x -q`, in
the order given: the mutant is killed when one fails, so a quick
deterministic test goes first and a property test, which would shrink its
counterexample, after it.  Two mutants run at a time (one where there is a
single CPU), and their verdicts print in table order.  The unmutated copy
must pass every named test first.  The script exits 1 when the unmutated
tree fails, when a source text is missing or not unique (so a refactor that
moves the code must update the table), or when a mutant survives.  Method: mutation
analysis (DeMillo, Lipton and Sayward, "Hints on test data selection",
Computer, 1978).

    python scripts/mutants.py
"""

import compileall
import os
import py_compile
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NF, KERNELS, DP, MF, STAB, CLI = "normal_form.py", "kernels.py", "dp_ring.py", "mf.py", "stabilize.py", "cli.py"
RINGS = "rings.py"
READ_OFF = "tests/test_normal_form.py::test_the_polar_vectors_read_off_eps_are_those_of_the_correction"
README_NF = "tests/test_report_digests.py::test_report_digest[normal-form-readme]"
LOC_DIGEST = "tests/test_report_digests.py::test_report_digest[check-all-loc-q-p5]"
WRONG_ROW = "tests/test_normal_form.py::test_a_wrong_preimage_row_fails_the_right_inverse_at_the_least_degree"
SIGN_BIT = "tests/test_series.py::test_a_slot_width_with_no_rounding_slack"
ROUNDTRIP = "tests/test_cli.py::test_a_wrong_remainder_fails_the_canonical_roundtrip_check"
NOT_MONIC = "tests/test_dp_ring.py::TestReduce::test_a_relation_not_monic_in_x_squared_is_refused"
POWERS = "tests/test_dp_ring.py::TestPowerDecompositions"
U_SQUARED = "tests/test_dp_ring.py::TestMul::test_u_squared"
ON_ROWS = "tests/test_dp_ring.py::test_dpelem_operations_on_rows_match_coefficient_lists"
FP7_RESIDUAL = "tests/test_normal_form.py::test_a_wrong_stored_sum_or_polar_scalar_fails_the_final_residual[2-0-fp:7]"
DRIFT = "tests/test_cli.py::test_a_drifted_closed_form_fails_the_elimination_check_with_both_relations"
LAW = "tests/test_cli.py::test_a_wrong_batched_composition_fails_its_law_with_both_components"
# the tail of `_sparse_mul`'s inner loop; `_row_mul_add` differs only in its first line
SPARSE_MUL = "e = tuple(map(add, e1, e2))\n            c = vmul(c1, c2)\n            if e in out:\n                c = vadd(out[e], c)\n            if c:"

# name -> (file, source text, replacement, node ids that must fail)
MUTANTS = {
    "the right-inverse certificate's comparison, shared by the solver and the iteration": (
        NF,
        "        if lhs != target:\n",
        "        if False:\n",
        [
            "tests/test_normal_form.py::test_a_wrong_stored_correction_fails_the_right_inverse_at_its_step[0-4-q]",
            "tests/test_normal_form.py::test_a_wrong_stored_correction_fails_the_right_inverse_at_its_step[1-7-fp:7]",
            f"{WRONG_ROW}[0-0-1-q]",
            f"{WRONG_ROW}[1-1-5-fp:7]",
        ],
    ),
    "the s*v[0] term of the in-place rows": (
        NF,
        "    out[0] += s * ints[0]\n",
        "    out[0] += 0 * ints[0]\n",
        [README_NF, READ_OFF],
    ),
    "the s*v[0] term of the in-place rows on raw values": (
        NF,
        "out[0] = ring._vadd(out[0], vmul(s, v[0]))",
        "out[0] = ring._vadd(out[0], vmul(0 * s, v[0]))",  # 0 * s is the zero raw value over F_p and the towers
        [LOC_DIGEST, FP7_RESIDUAL, READ_OFF],
    ),
    "zero products kept by the sparse product": (
        KERNELS,
        SPARSE_MUL,
        SPARSE_MUL.replace("if c:", "if True:"),
        [
            "tests/test_mpoly.py::test_the_public_constructor_checks_terms_and_arithmetic_keeps_them_clean",
            "tests/test_acceptance.py::test_criterion_1_matrix_factorization_suite",
        ],
    ),
    "the shared denominator of the raw tower accumulation": (
        KERNELS,
        "den, sums = lden * rden, []",
        "den, sums = lden, []",
        [LOC_DIGEST, "tests/test_truncated_rings.py::test_product_sums_match_the_pair_loop[dual:q]"],
    ),
    "sign of the read-off p": (
        NF,
        "return ([-x for x in ints[1:]], den, bits), (",
        "return ([x for x in ints[1:]], den, bits), (",
        [README_NF, READ_OFF],
    ),
    "sign of the read-off r": (
        NF,
        "([-ints[0]] + [0] * (len(ints) - 2), den, bits)",
        "([ints[0]] + [0] * (len(ints) - 2), den, bits)",
        [README_NF, READ_OFF],
    ),
    "sign of the read-off p and r on raw values": (
        NF,
        "return [vneg(c) for c in eps[1:]], [vneg(eps[0])]",
        "return [c for c in eps[1:]], [eps[0]]",
        [LOC_DIGEST, FP7_RESIDUAL, READ_OFF],
    ),
    "apply_series's -1 against minus": (
        NF,
        "lift([(-one,)]) + low",
        "lift([(one,)]) + low",
        [README_NF, "tests/test_normal_form.py::test_polar_apply_series_matches_the_ordered_double_loop"],
    ),
    "packed kernel's bias": (
        KERNELS,
        '(bytes(wb - 1) + b"\\x80") * nslots',
        '(bytes(wb - 1) + b"\\x40") * nslots',
        [SIGN_BIT],
    ),
    "packed kernel's sign bit in the slot width": (
        KERNELS,
        "wb = (lbits + rbits + count.bit_length() + 8) // 8",
        "wb = (lbits + rbits + count.bit_length() + 7) // 8",
        [SIGN_BIT],
    ),
    "the division certificate's row comparison": (
        DP,
        "        if check != rows:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_a_wrong_quotient_fails_the_canonical_roundtrip_check", f"{ROUNDTRIP}[fp:7-1]"],
    ),
    "the refusal of a relation not monic in X^2": (
        DP,
        "        if len(rel) != 3 or rel[2] != {0: ring.one.val}:\n",
        "        if len(rel) != 3:\n",
        [f"{NOT_MONIC}[lead-2]",
         "tests/test_mf.py::test_a_relation_with_x_squared_coefficient_2_fails_exactness_and_names_the_lead_term"],
    ),
    "the power identity's comparison": (
        DP,
        "        if rhs != x_rows:\n",
        "        if False:\n",
        [f"{POWERS}::test_a_wrong_decomposition_raises_at_its_degree", f"{POWERS}::test_a_wrong_h_raises_at_its_first_use"],
    ),
    "the X^2*g1*g2 term of a DPElem product's f part": (
        DP,
        "_row_mul_add(ring, f, gg, x2f)",
        "_row_mul_add(ring, f, {}, x2f)",
        [U_SQUARED, f"{ON_ROWS}[fp:7]"],
    ),
    "the X^2*g1*g2 term of a DPElem product's g part": (
        DP,
        "_row_mul_add(ring, g, gg, x2g)",
        "_row_mul_add(ring, g, {}, x2g)",
        [U_SQUARED, f"{ON_ROWS}[fp:7]"],
    ),
    "the lift hypotheses' comparison of phi*psi and psi*phi with x*I": (
        MF,
        "                    if not diff.is_zero:\n",
        "                    if False:\n",
        ["tests/test_mf.py::test_a_perturbed_phi_entry_fails_exactness_and_names_phi_psi"],
    ),
    "the leading-coefficient comparison of the non-zero-divisor v - t": (
        MF,
        "    if j2.g or j2.degree() != 1 or j2.f[1] != j2.dp.ring.one.val:\n",
        "    if j2.g or j2.degree() != 1:\n",
        ["tests/test_dp_ring.py::TestNonZeroDivisor::test_a_leading_coefficient_other_than_1_is_named"],
    ),
    "the X-part comparison of u + s + gamma*t": (
        MF,
        "    if e2.g != {0: e2.dp.ring.one.val}:\n",
        "    if len(e2.g) != 1:\n",
        ["tests/test_mf.py::test_an_x_part_other_than_1_is_named_by_both_dual_records"],
    ),
    "the hom space's overlap identity": (
        MF,
        "failures = [] if overlap.is_zero else [",
        "failures = [] if True else [",
        [
            "tests/test_mf.py::test_a_failed_overlap_identity_takes_the_per_vector_route",
            "tests/test_cli.py::test_a_presentation_dependent_dual_action_fails_with_the_difference",
        ],
    ),
    "the 2x2-minor test of the degree count": (
        MF,
        "    if all((l1[i] * l2[j] - l1[j] * l2[i]).is_zero for i in range(4) for j in range(i)):\n",
        "    if False:\n",
        [
            "tests/test_mf.py::test_dependent_leading_vectors_fail_exactness_and_name_both",
            "tests/test_mf.py::test_generators_planted_as_their_own_images_fail_the_hom_space_and_name_both_leads",
        ],
    ),
    "the fiber's product identity": (
        STAB,
        "failures = [] if off.is_zero else [",
        "failures = [] if True else [",
        [
            "tests/test_cli.py::test_a_wrong_root_pair_fails_the_fiber_decomposition_with_the_difference",
            "tests/test_stabilize.py::TestFiber::test_a_wrong_root_pair_fails_the_fiber_relation",
        ],
    ),
    "the flatness basis comparison with the normal-form monomials": (
        STAB,
        "        if got != want:\n",
        "        if False:\n",
        [
            "tests/test_stabilize.py::TestFlatnessBasis::test_a_planted_basis_fault_names_the_first_differing_monomial[adds-vy2]",
            "tests/test_cli.py::test_a_non_normal_basis_monomial_fails_the_flatness_check_naming_it",
        ],
    ),
    "the covering certificate's gluing comparison": (
        STAB,
        "        if (glued := _glue_via_reciprocal(low)) != high:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_a_wrong_gluing_fails_the_covering_check_with_the_difference"],
    ),
    "the chart-0 closed-form comparison": (STAB, "    if rel0 != closed0:\n", "    if False:\n", [f"{DRIFT}[chart0]"]),
    "the chart-1 closed-form comparison": (STAB, "    if rel1 != closed1:\n", "    if False:\n", [f"{DRIFT}[chart1]"]),
    "the reduction mod p of the compiled tower product": (
        RINGS,
        'mul = [f"n{k} = ({s}) % p" for k, s in enumerate(sums)]',
        'mul = [f"n{k} = {s}" for k, s in enumerate(sums)]',
        [
            "tests/test_report_digests.py::test_report_digest[check-all-loc-fp7]",
            "tests/test_truncated_rings.py::test_values_over_fp_are_canonical[dual:fp:7]",
        ],
    ),
    "the substitution law check's additivity comparison": (
        CLI,
        "            if sums != fs + gs:\n",
        "            if False:\n",
        [f"{LAW}[additivity]"],
    ),
    "the substitution law check's multiplicativity comparison": (
        CLI,
        "            if prods != rhs:\n",
        "            if False:\n",
        [f"{LAW}[multiplicativity]"],
    ),
}


def _env(src):
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def run_tests(src, ids):
    """Run the node ids against the package under `src`; True when they pass."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *ids]
    return subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True).returncode == 0


def run_mutant(tmp, pristine, name, path, text, replacement, ids):
    """(verdict line, killed) of one mutant, on its own copy of the compiled tree."""
    src = os.path.join(tmp, name.replace(" ", "-").replace("/", "-"))
    shutil.copytree(pristine, src)
    target = os.path.join(src, "nodal_kit", path)
    with open(target) as fh:
        code = fh.read()
    if code.count(text) != 1:
        return f"FAIL {name}: the source text occurs {code.count(text)} times in {path}", False
    with open(target, "w") as fh:
        fh.write(code.replace(text, replacement))
    began = time.perf_counter()
    if run_tests(src, ids):
        return f"FAIL {name}: the mutant survives {len(ids)} tests", False
    return f"killed {name} ({time.perf_counter() - began:.1f} s)", True


def main():
    start, bad = time.perf_counter(), 0
    all_ids = sorted({i for *_, ids in MUTANTS.values() for i in ids})
    with tempfile.TemporaryDirectory() as tmp:
        # src/ compiled once, with bytecode checked against each source's hash:
        # a mutant's copy keeps it, and only its mutated file, whose hash
        # differs, is compiled again by each interpreter
        pristine = os.path.join(tmp, "pristine")
        shutil.copytree(os.path.join(ROOT, "src"), pristine, ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(pristine, quiet=1, invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
        where = subprocess.run(
            [sys.executable, "-c", "import nodal_kit; print(nodal_kit.__file__)"],
            env=_env(pristine), capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not where.startswith(pristine):
            sys.exit(f"nodal_kit was imported from {where}, not from the copy {pristine}")
        if not run_tests(pristine, all_ids):
            print("FAIL the unmutated tree fails the named tests")
            return 1
        # two mutants at a time: each test run is one single-threaded process
        with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(run_mutant, tmp, pristine, name, *entry) for name, entry in MUTANTS.items()]
            for future in futures:
                line, killed = future.result()
                print(line, flush=True)
                bad += not killed
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
