"""Set-up cost of a fresh process: import nodal_kit and build a workload's objects.

Run by run.py as ``python3 probe_setup.py <src dir> <workload> <seed>``.
Prints one JSON object: the raw set-up seconds and the reference speed
index measured right after, in this process.
"""

import json
import statistics
import sys
import time

from jobs import job_cycle
from timing import Reference


def main(src, workload, seed):
    jobs = job_cycle(workload, int(seed))
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from nodal_kit import cli

    for job in jobs:
        cli.Resolved(cli.RunConfig(**job)).dp()
    raw = time.perf_counter() - t0
    ref = Reference()
    print(json.dumps({"raw_s": raw, "speed_index": statistics.median(ref.index() for _ in range(3))}))


if __name__ == "__main__":
    main(*sys.argv[1:])
