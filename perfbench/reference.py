"""References that calibrate the benchmark's times to machine speed.

On a shared machine the speed of a core drifts by tens of percent over
minutes, so raw times of two runs disagree by more than any useful
regression bound.  Each op is therefore bracketed, on the same core, by a
fixed reference, and its time is scaled by ``nominal / reference time``:
every reported time is in reference seconds, the time the op takes on a
core where the reference takes its nominal time.  Neither reference runs
gammasym code, so no change to gammasym can move them.

- SPAWN, a fresh interpreter importing a few standard modules, for CLI
  ops: process start, unmarshalling and module set-up, as in the op.
- The kernel, exact rational Gaussian elimination, for library ops, in the
  same thread: the same kind of work as gammasym's algebra.

References run after every op for about 3 % of its time, and an op is
scaled by the median of the references run just before and just after it.

Measured on a 2-core VM shared with other tenants, these pairings cut the
quartile spread of the median op time over five seeded runs from 18 % to
6 % on partition-sweep-n8; the kernel, tried for CLI ops, did not follow
process start and imports (10 % against 4.5 % for SPAWN, as the
coefficient of variation over windows of 12 calls).
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# Median CPU seconds of each reference on an idle 2-core Intel Xeon VM with
# Python 3.11.7.
KERNEL_S = 0.00105
SPAWN_S = 0.065
SPAWN = [sys.executable, "-c", "import argparse, dataclasses, fractions, hashlib, json"]

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(9)] for i in range(9)]


def rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            f = work[i][c] / work[r][c]
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        r += 1
    return r


def kernel_time() -> float:
    """CPU seconds of one run of the kernel."""
    start = time.thread_time()
    rank(_MATRIX)
    return time.thread_time() - start


def sample(after_s: float) -> list[float]:
    """Kernel times of as many runs as take 3 % of ``after_s``, one at least."""
    times = [kernel_time()]
    while sum(times) < 0.03 * after_s:
        times.append(kernel_time())
    return times
