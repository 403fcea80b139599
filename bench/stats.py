"""Order statistics for the benchmark's latency samples.

Percentiles are held in basis points (9990 is p99.9) so that the count of
samples beyond one is exact integer arithmetic.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter_ns
from typing import Dict, List, Sequence, Tuple

#: Percentiles the tail metric may report, lowest first, in basis points.
TAIL_LADDER = (5000, 7500, 9000, 9500, 9900, 9990, 9999)

#: A percentile is only reported when at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: Sequence[float], bp: int) -> float:
    """Nearest-rank percentile: the smallest sample with bp/100 % at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = -(-len(ordered) * bp // 10000)
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int) -> int:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples beyond it.

    Raises ValueError when even the median leaves fewer than that many.
    """
    fitting = [bp for bp in TAIL_LADDER if n * (10000 - bp) >= TAIL_MIN_BEYOND * 10000]
    if not fitting:
        raise ValueError(f"{n} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median")
    return fitting[-1]


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) of the tail metric for these samples."""
    bp = tail_percentile(len(samples))
    return bp / 100, percentile(samples, bp)


def per_input_medians(groups: Dict[object, Sequence[float]]) -> list:
    """One latency per distinct input: the median of its repeats."""
    return [statistics.median(v) for v in groups.values() if v]


#: Nanoseconds the calibration loop takes on the host the bounds were set
#: on; scaled times read as if the host ran at that speed.
REFERENCE_LOOP_NS = 1_000_000

_SPAN = 1 << 19
_pool: List[int] = []


def reference_loop() -> int:
    """A fixed pure-Python loop, of the same kinds of work as balancedq.

    It slices 16 tuples of 2048 symbols out of a 4 MB list and scans them,
    as the codecs do with their words.  Its duration tracks the speed the
    shared host gives this process, caches included.
    """
    if not _pool:
        _pool.extend((i * 7919) % 7 - 3 for i in range(_SPAN))
    acc = 0
    for start in range(0, _SPAN, _SPAN // 16):
        chunk = tuple(_pool[start : start + 2048])
        acc += sum(x for x in chunk if x > 0)
    return acc


def host_speed() -> float:
    """One timing of the calibration loop over its reference time.

    Above 1 the host runs slower than the reference; latencies divided by
    it read as if it ran at the reference speed.
    """
    if not _pool:
        reference_loop()  # the first call builds the loop's data
    t0 = perf_counter_ns()
    reference_loop()
    return (perf_counter_ns() - t0) / REFERENCE_LOOP_NS


#: Nanoseconds a bare interpreter start (``python -S -c pass``) takes on the
#: host the bounds were set on.
REFERENCE_START_NS = 12_000_000


def start_speed() -> float:
    """One timing of a bare interpreter start over its reference time.

    CLI queries are mostly process start and import, whose cost tracks this
    and not the in-process loop.
    """
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return (perf_counter_ns() - t0) / REFERENCE_START_NS
