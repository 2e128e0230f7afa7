"""A reference kernel, sampled all through a run, that measures machine speed.

On a shared virtual machine the speed of a core swings by up to 1.8x from
one tenth of a second to the next, and the share of slow periods drifts over
minutes, so two runs of identical code can differ by more than any useful
regression bound.  While the clock runs, a timer signal interrupts the
process every ``INTERVAL_S`` seconds and times one call of a fixed kernel.
Each measured pass is then reported in *reference seconds*:

    reference seconds = measured seconds * REFERENCE_S / mean kernel seconds

with the mean over the samples taken inside that pass (for set-up, inside
the import of decfem and all set-up repeats together).  The mean, not
the median, is used because a workload's time is the sum of its slow and
fast periods, and the samples are taken uniformly in time, so they see the
same mix of periods as the work around them.  The kernel is
the benchmark's own code, not the library's, so a change to ``decfem``
cannot move it; it is pure interpreter work (integer arithmetic, list and
dict lookups, calls), which dominates every workload.  The time spent in the
kernel is counted in ``spent()`` and taken out of every measured interval.
"""

from __future__ import annotations

import signal
import statistics
import time

# Mean kernel time on the reference machine (2-core x86-64 VM at 2.1 GHz,
# Python 3.11.7); any constant would do, this one keeps reference seconds
# close to the seconds measured there.
REFERENCE_S = 0.002
INTERVAL_S = 0.025

_TABLE = {i: (i * 7919) % 10007 for i in range(4096)}
_LIST = [(i * 104729) % 65521 for i in range(4096)]
_samples: list = []
_spent = [0.0]


def _step(acc: int, value: int) -> int:
    return (acc * 31 + value) % 1_000_003


def kernel() -> int:
    table, items = _TABLE, _LIST
    acc = 0
    for i in range(6144):
        value = table[i & 4095] + items[i & 4095]
        acc = _step(acc, value)
        if value & 1:
            acc ^= i
    return acc


def _tick(signum, frame) -> None:
    start = time.perf_counter()
    kernel()
    elapsed = time.perf_counter() - start
    _samples.append(elapsed)
    _spent[0] += time.perf_counter() - start


def start() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def spent() -> float:
    """Seconds spent in the kernel so far; subtract it from measured intervals."""
    return _spent[0]


def mark() -> int:
    """The number of kernel samples so far; pass it to ``factor`` to start a window."""
    return len(_samples)


def factor(since: int = 0) -> float:
    """Multiplier from measured to reference seconds over the samples taken since ``since``.

    It falls back to every sample of the run when the window holds none,
    and is 1 when the clock never ran, so that untimed runs report
    measured seconds.
    """
    window = _samples[since:] or _samples
    return REFERENCE_S / statistics.fmean(window) if window else 1.0
