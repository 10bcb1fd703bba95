"""Digest every op of the bench's default op pools with one checkout's package.

Imports that checkout's `bench/workloads.py` as it stands and runs each
workload's full default pool (72 transient, 7,200 tracking and 2,160 certify
ops) once, in order, at each seed; the bench's own trace0 digest covers only
the first `trace_ops` ops.  One line per workload and seed:
`<workload> seed<seed> ops=<count> <sha256 over the op digests>`.

    python .github/pool_digests.py CHECKOUT [SEED ...]      (default seeds: 7 11 23)
"""

import hashlib
import os
import sys
from pathlib import Path

# As bench/run.py does: one BLAS thread, set before numpy loads.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

checkout = Path(sys.argv[1]).resolve()
seeds = [int(s) for s in sys.argv[2:]] or [7, 11, 23]
sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
import workloads  # noqa: E402

if not Path(workloads.lqr.__file__).resolve().is_relative_to(checkout / "src"):
    sys.exit(f"adaptive_lqr was imported from {workloads.lqr.__file__}, not from {checkout / 'src'}")

for name, cls in workloads.WORKLOADS.items():
    for seed in seeds:
        workload = cls(seed)
        h = hashlib.sha256()
        for i in range(workload.size):
            h.update(workload.digest(workload.op(i)))
        print(f"{name} seed{seed} ops={workload.size} {h.hexdigest()}", flush=True)
