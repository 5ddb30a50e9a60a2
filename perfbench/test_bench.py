"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json

import pytest

from gate import Tally, digest
from jobs import WORKLOADS, job_cycle
from run import import_nodal_kit, run_job
from timing import betainc, quantile, self_times, tail_level
from tracing import Tracer

SMALL_JOBS = [
    {"subcommand": "check-all", "ring": "fp:5", "gamma": "3", "delta": "2", "s": "0", "t": "0",
     "precision": 3, "degree_bound": 3, "seed": 7, "fmt": "structured"},
    {"subcommand": "check-all", "ring": "dual:q", "gamma": "1", "delta": "-1", "s": "1/2", "t": "eps",
     "precision": 3, "degree_bound": 3, "seed": 8, "fmt": "structured"},
]


@pytest.fixture(scope="module")
def nk():
    return import_nodal_kit()


def _sizes(jobs):
    return [{k: v for k, v in j.items() if k in ("subcommand", "ring", "precision", "degree_bound")}
            for j in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_jobs_and_not_the_sizes(workload):
    assert job_cycle(workload, 5) == job_cycle(workload, 5)
    assert job_cycle(workload, 5) != job_cycle(workload, 6)
    assert _sizes(job_cycle(workload, 5)) == _sizes(job_cycle(workload, 6))


def test_wrapping_changes_no_report_and_uninstall_restores(nk):
    originals = {
        "mf.kernel_basis": nk["mf"].kernel_basis,
        "dp_ring.kernel_basis": nk["dp_ring"].kernel_basis,
        "RingElem.__rmul__": vars(nk["rings"].RingElem)["__rmul__"],
        "Series2.__rmul__": vars(nk["series"].Series2)["__rmul__"],
        "cli.run": nk["cli"].run,
    }
    cli = nk["cli"]
    plain = [run_job(cli, job)[0] for job in SMALL_JOBS]
    tracer = Tracer(nk)
    tracer.install()
    assert nk["mf"].kernel_basis is not originals["mf.kernel_basis"]
    assert nk["dp_ring"].kernel_basis is not originals["dp_ring.kernel_basis"]
    try:
        traced = []
        for i, job in enumerate(SMALL_JOBS):
            tracer.begin_job(i)
            traced.append(run_job(cli, job)[0])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert nk["mf"].kernel_basis is originals["mf.kernel_basis"]
    assert nk["dp_ring"].kernel_basis is originals["dp_ring.kernel_basis"]
    assert vars(nk["rings"].RingElem)["__rmul__"] is originals["RingElem.__rmul__"]
    assert vars(nk["series"].Series2)["__rmul__"] is originals["Series2.__rmul__"]
    assert nk["cli"].run is originals["cli.run"]
    assert [run_job(cli, job)[0] for job in SMALL_JOBS] == plain


def _traced_counts(nk):
    tracer = Tracer(nk)
    cli = nk["cli"]
    times = {}
    tracer.install()
    try:
        for i, job in enumerate(SMALL_JOBS):
            tracer.begin_job(i)
            times[i] = run_job(cli, job)[1]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics({i: 1.0 for i in times})
    return tracer, times, {k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes", "ratio", "bits")}


def test_counts_repeat_and_self_times_fit_in_the_job(nk):
    tracer, times, counts = _traced_counts(nk)
    _, _, again = _traced_counts(nk)
    assert counts == again
    for kind in ("fp", "q", "dual"):
        assert counts[f"rings.{kind}.ops"] > 0
    for name in ("linalg.calls", "linalg.dense_ops", "series.mul.calls", "dp_ring.reduce.division_steps",
                 "mpoly.mul.term_products", "stabilize.build_charts.calls"):
        assert counts[name] > 0, name
    for job, seconds in times.items():
        assert 0 < tracer.job_self_total(job) <= seconds


def test_linalg_rank_is_counted_from_pivot_inversions(nk):
    F = nk["rings"].make_ring("fp:7")
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    tracer = Tracer(nk)
    tracer.begin_job(0)
    tracer.install()
    try:
        basis = nk["mf"].kernel_basis(F, rows, 3)
    finally:
        tracer.uninstall()
    assert len(basis) == 1
    assert tracer.stats["linalg.calls"] == 1  # the nested rref is not a second call
    assert tracer.stats["linalg.rank"] == 2
    assert tracer.stats["linalg.cells"] == 9
    assert tracer.stats["linalg.dense_ops"] == 2 * 3 * 3


def test_tail_level_keeps_ten_samples_beyond():
    assert tail_level(10) is None
    assert tail_level(11) == 9
    assert tail_level(20) == 50
    assert tail_level(100) == 90
    assert tail_level(1000) == 99
    for n in range(11, 300):
        level = tail_level(n)
        rank = -(-level * n // 100)
        assert n - rank >= 10
        assert level == 99 or n - -(-(level + 1) * n // 100) < 10


def test_harrell_davis_quantile():
    assert abs(betainc(2, 3, 0.4) - 0.5248) < 1e-12  # sum of binomial terms, exact
    assert abs(betainc(1, 1, 0.3) - 0.3) < 1e-12
    assert abs(betainc(2.5, 7.5, 0.2) + betainc(7.5, 2.5, 0.8) - 1) < 1e-12
    assert abs(quantile(list(range(1, 22)), 0.5) - 11) < 1e-9  # symmetric sample
    assert abs(quantile([4.0] * 30, 0.9) - 4.0) < 1e-9
    low, high = quantile(list(range(100)), 0.25), quantile(list(range(100)), 0.75)
    assert 23 < low < 26 and 73 < high < 76


def test_self_time_arithmetic():
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (5.0, 9.0, 0), (6.0, 7.0, 2), (11.0, 12.0, None)]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0, 1.0]
    assert sum(self_times(spans[:4])) == 10.0


def _report(nk):
    return run_job(nk["cli"], SMALL_JOBS[0])[0]


def test_a_good_report_passes_the_gate(nk):
    text = _report(nk)
    tally = Tally()
    tally.report("good", text, SMALL_JOBS[0], digest(text))
    assert tally.failed == 0 and tally.attempted > 1 and tally.fail_ratio == 0.0


@pytest.mark.parametrize("corrupt", ["overall", "exactness", "digest", "residual", "failed-check"])
def test_a_corrupted_report_counts_in_fail_ratio(nk, corrupt):
    text = _report(nk)
    report = json.loads(text)
    checks = {c["name"]: c for c in report["checks"]}
    expected = digest(text)
    if corrupt == "overall":
        report["overall"] = "fail"
    elif corrupt == "exactness":
        checks["exactness.periodic"]["details"]["at_alpha_covered"] -= 1
    elif corrupt == "residual":
        checks["nf.residual-order"]["details"]["residual_order_at_least"] += 1
    elif corrupt == "failed-check":
        checks["charts.confluence"]["status"] = "fail"
    corrupted = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if corrupt == "digest":
        corrupted = corrupted.replace('"trials": 20', '"trials": 21')
    tally = Tally()
    tally.report("corrupted", corrupted, SMALL_JOBS[0], expected)
    assert tally.failed >= 1
    assert tally.fail_ratio > 0.0


def test_a_raising_job_counts_in_fail_ratio():
    tally = Tally()
    tally.job_raised("job", ValueError("boom"))
    assert (tally.attempted, tally.failed) == (1, 1)
