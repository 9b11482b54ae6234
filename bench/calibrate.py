"""A fixed calibration kernel: how fast the machine runs at this moment.

On a shared machine other tenants slow everything a process does, by up to
2x, in phases that last tens of seconds to minutes; the fastest or median
pass of a 35 s run then still moves by 25-30% from one run to the next. The
benchmark therefore runs this kernel between the workload's operations, in
the same process, and reports the workload's times scaled by how much slower
the kernel ran than ``REF_S``. Slowdowns that hit both cancel; a change to
shorsim does not touch the kernel, so it shows in full.

The kernel does not use shorsim. It has the two kinds of work the workloads
are made of: an interpreter loop of integer arithmetic and dict stores (the
trial loop, the auditor's pair counting, formatting), and numpy arithmetic,
``sin`` and ``where`` on freshly allocated 8 MB arrays (the spectrum build).
"""

import time

import numpy as np

# The kernel's time on the 2-core machine the benchmark was written on, at a
# quiet moment; scaled times are in seconds on that machine.
REF_S = 0.040

_N = 1 << 20


def kernel() -> float:
    """Run the kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc, seen = 0, {}
    for i in range(100_000):
        acc = (acc * 31 + i) % 1_000_003
        seen[acc & 4095] = i
    c = np.arange(_N, dtype=np.int64)
    t = 12345 * c % _N
    s = np.where(2 * t > _N, t - _N, t)
    float((np.sin(np.pi * np.abs(s) / _N) ** 2).sum())
    return time.perf_counter() - t0
