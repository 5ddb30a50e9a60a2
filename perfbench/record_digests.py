"""Record the default-seed report digests that the correctness gate requires.

    python3 perfbench/record_digests.py

Covers every cycle a run of BENCHMARK.json's run_seconds makes.  Run it
only when a change alters reports on purpose; the benchmark then measures
against the new reports.  Writes perfbench/digests.json.
"""

import json

from gate import DIGESTS, digest
from jobs import DEFAULT_SEED, WORKLOADS, cycles_for, job_cycle
from run import ROOT, import_nodal_kit, run_job


def main():
    cli = import_nodal_kit()["cli"]
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {
        w: [[digest(run_job(cli, job)[0]) for job in job_cycle(w, DEFAULT_SEED, c)]
            for c in range(cycles_for(w, seconds))]
        for w in WORKLOADS
    }
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
