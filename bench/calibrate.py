"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same Python code runs up to 30% faster or slower
from one minute to the next.  The benchmark runs this kernel before every
unit and scales each measured time by REFERENCE_S / (mean kernel time), so
that a change in machine speed during a run cancels out.  The kernel fills
a list of ints by the subset-lcm recurrence, the package's most
memory-bound pattern; of the kernels tried on a shared 2-core VM, it
tracked the package's slowdowns best.  It shares no code with the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.07  # kernel time that counts as nominal machine speed
LIST_BITS = 18

_lcms = [0] * (1 << LIST_BITS)


def reference_kernel() -> int:
    lcms = _lcms
    for s in range(1, 1 << LIST_BITS):
        lcms[s] = lcms[s & (s - 1)] | (s * 2654435761 & 1023)
    return lcms[-1]


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
