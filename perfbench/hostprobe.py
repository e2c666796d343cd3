"""Host speed probe for timing on a shared machine.

On a shared 2-core VM the same pass runs 1.5 to 2 times slower from one
second to the next while neighbours load the host, and process CPU time
slows with it, so no statistic over a few long passes is steady.  During a pass a timer signal (no thread) interrupts the
program every ``INTERVAL_S`` seconds to time a fixed pure-Python loop that
never calls pblocks.  The median of those probes tells how fast the host ran
during that pass; multiplying a time by ``factor`` rescales it to a host on
which the probe takes ``REFERENCE_PROBE_S`` (such a VM when it is quiet).  A
change to pblocks cannot move the probe, so the rescaled time still moves
with the program.
"""

import signal
import statistics
import time

INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.00025

_A = tuple((7 * i + 3) % 64 for i in range(64))
_B = tuple((5 * i + 1) % 64 for i in range(64))


def probe() -> float:
    """Time one fixed loop of tuple permutations."""
    started = time.perf_counter()
    x = _A
    for _ in range(100):
        x = tuple(x[i] for i in _B)
    return time.perf_counter() - started


class HostProbe:
    """Context manager that samples ``probe()`` through the pass it encloses."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "HostProbe":
        self.samples.append(probe())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(probe())

    def factor(self) -> float:
        """Return the factor that rescales times measured under this probe."""
        return reference_factor(self.samples)


def reference_factor(samples: list) -> float:
    """Return REFERENCE_PROBE_S over the median of some probe durations."""
    return REFERENCE_PROBE_S / statistics.median(samples)
