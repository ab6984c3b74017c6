"""The reference loop that the benchmark's times are scaled by.

The CPU speed of a shared machine drifts: on a shared 2-core Xeon virtual
machine, identical passes took from 0.8x to 1.5x their usual time for seconds
at a stretch, in CPU time as well as wall time.  So the benchmark runs this
fixed loop between operations and reports every time multiplied by
``NOMINAL_NS / <the loop's time around that operation>``: a time on a machine
where the loop takes ``NOMINAL_NS``.  The loop mixes interpreter arithmetic
and small numpy calls, as bicorr's kernels do, with vectorised sampling, as
its shot simulator does.  It never calls bicorr, so a change to bicorr cannot
change it.  Do not change what it computes: every recorded result depends on
it.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

NOMINAL_NS = 6_700_000

_A = np.eye(4, dtype=complex) * (0.3 + 0.1j)
_EDGES = np.array([0.1, 0.4, 0.8, 1.0])


def loop_ns() -> int:
    """Run the reference loop once and return its wall time in ns."""
    t0 = perf_counter_ns()
    s = 0j
    for i in range(2000):
        z = complex(i, 1.0) * (0.5 - 0.25j)
        s += z * z.conjugate() / (abs(z) + 1.0)
        if i % 8 == 0:
            s += np.einsum("ij,ji->", _A, _A)
            s += float(np.abs(_A - _A.conj().T).max())
    rng = np.random.default_rng(0)
    for _ in range(10):
        cells = np.searchsorted(_EDGES, rng.random(10_000), side="right")
        s += np.bincount(np.minimum(cells, 3), minlength=4)[0]
    return perf_counter_ns() - t0
