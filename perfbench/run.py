"""nodal-kit benchmark: time to a verified report, end to end and per layer.

    python3 perfbench/run.py --workload nf-deep --seed 3 --seconds 30 --trace 0

One process, one thread, one client in a closed loop: each job is a
generated ``RunConfig`` run through ``nodal_kit.cli.run`` and
``Report.to_json`` in-process, and the next job starts when the previous
one has been checked.  A run covers round(--seconds / nominal cycle time)
whole cycles of the workload's jobs (jobs.py), about --seconds of
normalised job time (timing.py); it starts no new cycle once wall time
passes 1.5 x --seconds.  Every report passes the correctness gate (gate.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the microbenchmarks,
then each job of one cycle untraced and traced (alternating which goes
first), and prints the per-layer metrics from the traced runs.  The last
line of stdout is the result JSON; the line before it holds the run's
context.  Both are also written, with the spans of a traced run, under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Tally, load_digests
from jobs import DEFAULT_SEED, PREDICTIONS, WHY, WORKLOADS, cycles_for, job_cycle, traffic
from micro import baseline_rows, ring_op_ns
from timing import NOMINAL_S, Reference, gap_index, quantile, tail_level
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7


def import_nodal_kit():
    sys.path.insert(0, str(SRC))
    nk = {name: importlib.import_module(f"nodal_kit.{name}") for name in LAYERS}
    nk["package"] = importlib.import_module("nodal_kit")
    return nk


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def setup_seconds(workload, seed):
    """Median normalised set-up time over fresh processes, with the raw figures."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(proc.stdout))
    normalised = [p["raw_s"] / p["speed_index"] for p in probes]
    return statistics.median(normalised), probes


def run_job(cli, job):
    """One job: run + to_json, returning (report json, raw seconds)."""
    t0 = time.perf_counter()
    text = cli.run(cli.RunConfig(**job)).to_json()
    return text, time.perf_counter() - t0


def timed_run(nk, workload, seed, seconds, expected):
    cli = nk["cli"]
    tally = Tally()
    setup_s, probes = setup_seconds(workload, seed)
    ref = Reference()
    raw, gaps, refs = [], [], [ref.index()]
    verified = 0
    planned = cycles_for(workload, seconds)
    wall0 = time.perf_counter()
    cycles = 0
    while cycles < planned and time.perf_counter() - wall0 < 1.5 * seconds:
        want = expected[cycles] if cycles < len(expected) else None
        for i, job in enumerate(job_cycle(workload, seed, cycles)):
            where = f"cycle {cycles} job {i}"
            bad_before = tally.failed
            try:
                text, dt = run_job(cli, job)
            except Exception as exc:  # a raised job is a bad outcome, not a crash of the benchmark
                tally.job_raised(where, exc)
                text = None
            refs.append(ref.index())
            if text is None:
                continue
            tally.report(where, text, job, want and want[i])
            raw.append(dt)
            gaps.append(len(refs) - 2)
            verified += tally.failed == bad_before
        cycles += 1
    norm = [dt / gap_index(refs, g) for dt, g in zip(raw, gaps)]
    level = tail_level(len(norm)) or 50
    metrics = {
        "jobs_per_s": (verified / sum(norm) if norm else 0.0, "jobs/s"),
        "job_p50_s": (quantile(norm, 0.5) if norm else 0.0, "s"),
        "job_tail_s": (quantile(norm, level / 100) if norm else 0.0, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_ratio": (1.0 - tally.fail_ratio, "ratio"),
    }
    context = {
        "cycles_planned": planned,
        "cycles": cycles,
        "jobs": len(norm),
        "job_tail_level": level,
        "job_tail_samples_beyond": len(norm) - (len(norm) * level + 99) // 100,
        "fail_ratio": tally.fail_ratio,
        "raw_job_s": raw,
        "normalised_job_s": norm,
        "speed_index": refs,
        "wall_s": time.perf_counter() - wall0,
        "setup_probes": probes,
    }
    return tally, metrics, context


def traced_run(nk, workload, jobs, seed, expected):
    cli = nk["cli"]
    tally = Tally()
    ref = Reference()
    metrics, op_rings = ring_op_ns(nk, [j["ring"] for j in jobs], seed, ref)
    metrics.update(baseline_rows(nk, seed, ref))
    tracer = Tracer(nk)
    traced_gap = {}
    untraced_total = traced_total = 0.0
    refs = [ref.index()]
    for i, job in enumerate(jobs):
        where = f"job {i}"
        timings = {}
        texts = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.begin_job(i)
                tracer.install()
            try:
                texts[traced], timings[traced] = run_job(cli, job)
            except Exception as exc:  # counted as a bad outcome
                tally.job_raised(f"{where} traced={traced}", exc)
            finally:
                if traced:
                    tracer.uninstall()
            refs.append(ref.index())
            if traced:
                traced_gap[i] = len(refs) - 2
        if len(texts) < 2:
            continue
        got = tally.report(where, texts[False], job, expected[0][i] if expected else None)
        tally.same(where, tally.report(f"{where} traced", texts[True], job), got,
                   "traced report differs from the untraced one")
        untraced_total += timings[False]
        traced_total += timings[True]
        tally.same(where, tracer.job_self_total(i) <= timings[True] + 1e-6, True,
                   "summed self times exceed the job time")
    job_scale = {i: 1 / gap_index(refs, g) for i, g in traced_gap.items()}
    metrics.update(tracer.metrics(job_scale))
    metrics["trace.overhead_ratio"] = (traced_total / untraced_total if untraced_total else 0.0, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)
    context = {
        "op_ns_rings": op_rings,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_job_s": untraced_total,
        "traced_job_s": traced_total,
        "speed_index": refs,
    }
    return tally, metrics, context


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nodal_kit" / "__init__.py").is_file():
        print(f"benchmark: no nodal_kit sources under {SRC}", file=sys.stderr)
        return 2
    nk = import_nodal_kit()
    jobs = job_cycle(args.workload, args.seed)
    expected = load_digests(args.workload) if args.seed == DEFAULT_SEED else []
    if args.trace:
        tally, metrics, run_context = traced_run(nk, args.workload, jobs, args.seed, expected)
    else:
        tally, metrics, run_context = timed_run(nk, args.workload, args.seed, args.seconds, expected)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    context = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "default_seed_digest_cycles": len(expected),
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "reference_loops_nominal_s": NOMINAL_S,
        "traffic": traffic(jobs, args.seed),
        "predictions": PREDICTIONS,
        "problems": tally.problems[:20],
        **run_context,
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
