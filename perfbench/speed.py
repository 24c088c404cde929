"""Fixed kernels that measure how fast the machine runs right now.

On the shared 2-vCPU KVM guest where this benchmark was defined, the same
code ran up to 1.6 times slower for minutes at a time, as the host's load
changed; raw wall times of one commit spread by more than 30% across runs,
which hides any regression smaller than that.  So every timing is taken
next to one of these kernels and scaled by REFERENCE_S / kernel time: the
result is the time the work would take at the speed where the kernel takes
REFERENCE_S seconds.  The kernels are benchmark code, so they run the same
on every commit of sqdepth.

"python" is interpreter work (integer arithmetic, a set, a sort), like the
skeleton, link and rank loops; "numpy" is the upward closure of a 2^19
boolean table, like `ideals.membership_table`, which is bound by memory
rather than by the interpreter.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About each kernel's median time on the machine the benchmark was defined
# on, so that scaled times read close to the wall times seen there.
REFERENCE_S = {"python": 1.5e-3, "numpy": 6.5e-3}


def _python_kernel() -> None:
    acc, seen = 0, set()
    for j in range(10000):
        acc = (acc * 31 + j) & 0xFFFFF
        seen.add(acc & 0xFFF)
    sorted(seen)


def _numpy_kernel() -> None:
    n = 19
    table = np.zeros(1 << n, dtype=bool)
    table[[3, 17, 100, 1000, 5000]] = True
    for b in range(n):
        view = table.reshape(-1, 2, 1 << b)
        view[:, 1, :] |= view[:, 0, :]


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def scale(kernel: str, repeats: int = 1) -> float:
    """REFERENCE_S over the kernel's time now (median of `repeats` runs);
    multiply a time measured next to it by this factor."""
    fn = _KERNELS[kernel]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return REFERENCE_S[kernel] / statistics.median(times)
