"""Host-speed probe: a fixed pure-Python computation whose time tells how
fast the shared host runs at the moment (see README.md, Steadiness).

The probe is taken just before and just after a timed call; the call's time
is then scaled to a host on which the probe takes REFERENCE_S.
"""

from __future__ import annotations

import time

# probe seconds on the reference machine (2-CPU Xeon VM, Python 3.11) when
# its host is idle
REFERENCE_S = 0.030


def host_probe() -> float:
    """Seconds of a fixed dict-update loop."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(300_000):
        k = i & 1023
        counts[k] = counts.get(k, 0) + i
    return time.perf_counter() - t0


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` on a host that runs the probe in REFERENCE_S, given the
    probes taken just before and just after."""
    return seconds * 2 * REFERENCE_S / (before + after)
