"""Count the minor page faults of one study replication, and fail above a limit.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python ci/replication_faults.py

Runs two warm-up replications and then 20 direct ``harness.run_replication``
calls of P1 (rho 1, Brownian) at 300+300 curves on a 100-point grid, all six
indexes, one after another on the calling thread.  It prints the minor page
faults per timed replication (``ru_minflt`` of ``resource.getrusage``) and
exits 1 when they exceed 150.

A replication draws and centers its curves in float64 buffers that its
thread keeps.  When each replication allocated those 240 KB n x m arrays
afresh, glibc trimmed the freed heap top after it and the next one faulted
the pages back in: 283-322 faults per replication on a 2-vCPU Linux host
(glibc 2.36, Python 3.11, numpy 2.4).  With the kept buffers the same host
reads 68: the pooled eigensolve's m x m temporaries and numpy's ``eigh``
workspace are still trimmed off the heap top in a process this small, and
how much of that happens depends on the process's allocation history (a
benchmark ``mc-acceptance`` pass of 10 replications faults 10-33 times).
The limit lies between the two, and still fails when a replication again
allocates its centered curves afresh (185 on that host).  Run it with BLAS
on one thread, as above: a multithreaded BLAS faults in buffers of its own.
"""

from __future__ import annotations

import resource
import sys

from funcroc.harness import RunConfig, run_replication
from funcroc.simulation import ScenarioSpec

WARM_UP, TIMED, LIMIT = 2, 20, 150


def main() -> int:
    config = RunConfig(ScenarioSpec(name="P1", n_d=300, n_h=300, seed=1, rho=1.0))
    for replication in range(WARM_UP):
        run_replication(config, replication)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for replication in range(WARM_UP, WARM_UP + TIMED):
        run_replication(config, replication)
    faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / TIMED
    print(f"minor page faults per replication: {faults:.1f} (limit {LIMIT})")
    return 1 if faults > LIMIT else 0


if __name__ == "__main__":
    sys.exit(main())
