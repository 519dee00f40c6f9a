"""Timing helpers: a machine-speed probe and the statistics the benchmark reports.

The benchmark runs on small shared VMs whose speed drifts by ±15–50% over
tens of seconds, as neighbours contend for the same cores and caches.  A
fixed probe runs between ops, in the same process, and measures that drift.
Op times are divided by a power of the median slow-down of the probes after
the ops, relative to :data:`PROBE_NOMINAL_S`, and each set-up by that of the
probes just before and after it.  That turns wall time into
*reference-speed* time.

The probe is an interpreted loop of strided reads over a 4 MB byte string,
timed after one untimed pass has pulled the string into cache (so its time
does not depend on how much of it the previous op evicted).  Of the probes
tried (pure arithmetic, strided reads, a small allocating parser), it is the
one that tracks the workloads' own slow-down without touching the program's
heap: it allocates no garbage-collected object, so it neither triggers nor
shifts a collection, and it never runs inside a timed region.  Dividing all
ops by one factor, not each op by a factor of its own, keeps the probe's
jitter out of the percentiles.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Sequence

from repro.eval.stats import median, percentile

# Probe time that defines reference speed (its typical value on the 2-vCPU
# VM the benchmark was tuned on).
PROBE_NOMINAL_S = 0.15e-3
# The workloads' times move by about three quarters of the probe's own
# slow-down.  Over nine sets of 5-10 seeded runs, this exponent left the
# smallest worst-case spreads: at 1.0 the correction overshot whenever the VM
# was fast, and at 0.5 it left half the drift in.
PROBE_EXPONENT = 0.75

_PROBE_BYTES = 1 << 22
_PROBE_STRIDES = ((0, 4099), (7, 4111))
_probe_data: Optional[bytes] = None


def _probe_once(data: bytes) -> int:
    acc = 0
    for start, stride in _PROBE_STRIDES:
        for i in range(start, len(data), stride):
            acc ^= data[i]
    return acc


def probe(times: List[float], count: int) -> None:
    """Run the speed probe ``count`` times after one untimed warm-up pass,
    appending each duration."""
    global _probe_data
    if _probe_data is None:
        _probe_data = random.Random(0).randbytes(_PROBE_BYTES)
    _probe_once(_probe_data)
    for _ in range(count):
        started = time.perf_counter()
        _probe_once(_probe_data)
        times.append(time.perf_counter() - started)


def slowdown(probe_times: Sequence[float]) -> float:
    """The median probe time relative to :data:`PROBE_NOMINAL_S`."""
    return median(probe_times) / PROBE_NOMINAL_S


def speed_factor(probe_times: Sequence[float]) -> float:
    """What to divide a wall time by to get reference-speed time."""
    return slowdown(probe_times) ** PROBE_EXPONENT


def beyond(values: Sequence[float], fraction: float) -> int:
    """How many samples lie strictly above the ``fraction`` percentile."""
    cut = percentile(values, fraction)
    return sum(1 for value in values if value > cut)
