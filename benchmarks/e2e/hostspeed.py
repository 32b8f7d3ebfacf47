"""How fast the host runs while a section is timed.

The boxes this benchmark runs on are a few cores of a shared host.
Neighbours slow the program down by 1.3–1.8× for a second to a minute
at a time, about a third of the time, and the guest sees none of it
(no steal time; CPU time equals wall time).  A 5 s build then reads
4.9–8.9 s, and ten runs of the same code spread 25 %.

So the host's speed is sampled *while* the sections run: an interval
timer interrupts the program every ``INTERVAL`` seconds and times a
fixed scrap of Python that works the way the program does (strings,
tuples, a dict of lists, a sort).  A section's wall time is then
reported at the reference speed: multiplied by the mean, over the
samples that fell into it, of ``REFERENCE_S / scrap time`` — work done
is the integral of speed over time, hence the mean of speeds, not of
slowdowns.  Sixty builds under that noise: raw 26 % between quartiles
and 1.81× between extremes, normalised 3.6 % and 1.19×.  (Probes taken
before and after a section instead do not work: the host changes state
inside it.  A pure arithmetic scrap slows down less than the program.)

The time the sampler itself takes is kept in ``busy`` and taken out of
every timing, so the sampler costs the sections nothing.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

__all__ = ["HostSampler"]

now = time.perf_counter

#: Seconds the scrap takes on the sizing box when the host leaves it
#: alone.  Only sets the scale: parent and change share it.
REFERENCE_S = 0.00038

#: Seconds between samples (the scrap is ~1.5 % of it).
INTERVAL = 0.025

#: A section also takes the samples this close to its ends, so that a
#: 4 ms read block has some; the host holds a state for a second or more.
MARGIN = 0.1


def _scrap() -> None:
    rows = [(f"s{i % 97:03d}", f"p{i % 13}", i * 0.5) for i in range(300)]
    index: dict = {}
    for subject, predicate, value in rows:
        index.setdefault((subject, predicate), []).append(value)
    sorted(index, key=lambda item: (len(index[item]), item))


class HostSampler:
    """Samples the host's speed on ``SIGALRM`` between ``start``/``stop``.

    Main thread only (signal handlers run there).  Not started, it
    reports speed 1 and takes no time: traced runs leave it off.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # when each sample ended
        self.speed: list[float] = []  # REFERENCE_S / scrap seconds
        #: Seconds spent in the handler so far.
        self.busy = 0.0
        self.running = False

    def _tick(self, _signum, _frame) -> None:
        entered = now()
        collecting = gc.isenabled()
        gc.disable()  # a collection walks the program's heap
        started = now()
        _scrap()
        ended = now()
        if collecting:
            gc.enable()
        self.speed.append(REFERENCE_S / (ended - started))
        self.at.append(ended)
        self.busy += now() - entered

    def start(self) -> None:
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        """Stop sampling; does nothing when not running."""
        if not self.running:
            return
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # Not SIG_DFL: an alarm already on its way would end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def speed_over(self, started: float, ended: float) -> float:
        """Mean host speed between two ``perf_counter`` readings."""
        if not self.at:
            return 1.0
        low = bisect.bisect_left(self.at, started - MARGIN)
        high = bisect.bisect_right(self.at, ended + MARGIN)
        if low == high:  # a gap in the samples: take the nearest one
            low = max(0, min(low, len(self.at) - 1))
            high = low + 1
        return statistics.fmean(self.speed[low:high])

    def median_speed(self) -> float:
        return statistics.median(self.speed) if self.speed else 1.0

