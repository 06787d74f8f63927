"""Host-speed calibration, so that runs made minutes apart compare.

The benchmark shares its machine with other tenants.  On a 2-vCPU virtual
machine their load moved the wall time of the same workload by 20-40 %
between runs a few minutes apart, more than any bound a regression check
can use.  CPU time moved the same way, so the slowdown is in the hardware
the tenants share, not in scheduling.

`calibrate()` times a fixed pure-Python loop: integer products, tuple keys
and dict updates, the operations the library spends its time in.  A run
calls it before every request and once at the end, and reports each
request latency `t` as `t * NOMINAL_S / c`, where `c` is the mean of the
calibrations just before and just after the request: the time the request
would take on a host where the loop takes NOMINAL_S.  README.md gives the
spreads measured with and without this scaling.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Duration of calibrate() on a quiet 2-vCPU virtual machine.  A fixed unit:
# changing it rescales every reported time.
NOMINAL_S = 0.0125


def calibrate() -> float:
    """Seconds the fixed calibration loop takes now.  The cyclic garbage
    collector is off while it runs, so that the size of the library's live
    heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(75000):
            total += i * i
        table = {}
        for i in range(20000):
            key = (i % 97, i % 89, i)
            table[key] = table.get(key, 0) + i * i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(calibrations) -> float:
    """Factor from wall seconds to reference seconds, for times measured
    beside these calibration samples."""
    return NOMINAL_S / statistics.median(calibrations)


def to_reference(latencies, calibrations) -> list[float]:
    """Each latency in reference seconds, scaled by the calibrations taken
    just before and just after it; needs one calibration more than there
    are latencies, all in the order they were taken."""
    if len(calibrations) != len(latencies) + 1:
        raise ValueError("need one calibration before each latency and "
                         "one after the last")
    return [t * 2 * NOMINAL_S / (before + after)
            for t, before, after in zip(latencies, calibrations,
                                        calibrations[1:])]
