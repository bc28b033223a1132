"""Machine-speed reference: a fixed kernel timed next to the measured work.

The shared CPUs the benchmark runs on change speed over seconds to minutes,
by up to 2x, with the load of other tenants.  Raw times then say more about
the host than about the program.  So the harness times this kernel, which
calls nothing of the package, right after every op and every set-up probe,
and reports times scaled to a machine on which the kernel takes
REFERENCE_MS:

    scaled time = measured time * REFERENCE_MS / reference time nearby

A change to the package moves the measured time and not the reference, so
scaled times compare two commits on the same host; the raw times are printed
beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

# A fixed round figure.  On the host the benchmark was built on (2 shared
# vCPUs, Python 3.11, numpy 2.4, one BLAS thread) the kernel takes about 6 ms
# on its own and about 8 ms right after an op, so scaled op times read some
# 15 % above raw ones there.
REFERENCE_MS = 7.0
# Each op's scale factor uses the median of this many references around it.
WINDOW = 9

# The size of the 8-qubit transform.
_MATRIX = ((np.arange(256 * 256).reshape(256, 256) % 7) - 3) * (1 + 0.5j) / 256


def _kernel() -> None:
    """An interpreter loop, a dict of ints sorted through a key function, and
    one complex 256 x 256 matrix product: the kinds of work the package's ops
    are made of.

    Slow phases of the host do not slow each kind by the same factor, so the
    kernel mixes all three.  It allocates no objects the cyclic garbage
    collector tracks: a collection in the kernel would cost time that depends
    on what the op left on the heap, and would shift collections out of the
    op that follows.
    """
    total = 0
    for i in range(20_000):
        total += i * i
    table = {i * 7919 % 100_003: i for i in range(6_000)}
    sorted(table, key=table.__getitem__)
    _MATRIX @ _MATRIX


def reference_ns() -> int:
    """Wall time of one kernel call."""
    start = perf_counter_ns()
    _kernel()
    return perf_counter_ns() - start


def settled_reference_ns(calls: int = 5) -> float:
    """Median of ``calls`` kernel calls, for a process that has not run it yet."""
    return statistics.median(reference_ns() for _ in range(calls))


def scale(samples_ns, references_ns) -> list[float]:
    """Each sample scaled by the median reference of the WINDOW ops around it."""
    half = WINDOW // 2
    out = []
    for i, sample in enumerate(samples_ns):
        nearby = references_ns[max(0, i - half):i + half + 1]
        out.append(sample * REFERENCE_MS * 1e6 / statistics.median(nearby))
    return out
