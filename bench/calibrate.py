"""How fast the machine is running right now, from a fixed workload.

The reference machine, a virtual machine, shares its cores: the same pass
ran up to 1.7x slower from one second to the next, and the median pass
of a 20-second run moved by 18-41% between runs.  The benchmark therefore
times this calibration before and after every pass and scales the pass's
wall time by ``NOMINAL_S / measured``.  The reported seconds are seconds
on a machine that runs the calibration in its nominal time.  The
calibration does not use skn, so a change to skn moves the scaled
figures exactly as it moves the raw ones.

The mix is interpreter work: loops over dicts, building and walking
deep tuple trees and formatting strings (as parsing, checking and
emission do), and many small numpy calls (as the evaluator's per-goal
bookkeeping does).  It leaves out large, memory-bound array work: under
the neighbours' load its slowdown differed most from the workloads'.
Over three 20-second runs of each workload, the scaled median moved by
at most 5%.  Set-up time is not scaled:
importing is file and loader work that this mix does not track.
"""
import time

import numpy as np

# Median of machine_seconds() on the reference machine: a 2-core Intel
# Xeon virtual machine with CPython 3.11.7 and numpy 2.4.6.
NOMINAL_S = 0.020


def _walk(tree) -> int:
    return 0 if tree is None else 1 + _walk(tree[1])


def machine_seconds() -> float:
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(60000):
        d[i & 255] = s
        s += (i * 7) % 13
    for _ in range(120):
        tree = None
        for i in range(120):
            tree = (i, tree)
        s += _walk(tree)
        s += len(" ".join(f"(right {i})" for i in range(80)))
    a = np.arange(64.0)
    for _ in range(3000):
        a = np.minimum(a, a[::-1] + 1.0)
    return time.perf_counter() - t0
