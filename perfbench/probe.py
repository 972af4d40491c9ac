"""Host-speed probe: scales measured seconds to a reference host speed.

The hosts this benchmark runs on share their cores with other tenants, and
their speed drifts by 20% and more within a minute; CPU time drifts with
wall time, so neither can be compared between runs as measured.  The probe
times a fixed burst of pure-Python complex arithmetic ten times a second,
from a SIGALRM handler in the measured process itself, so it sees the core
the workload runs on at the moment it runs.  A measured interval is then
reported as

    (wall seconds - seconds spent in bursts) * mean(REF_BURST_S / burst)

that is, the seconds the same work takes on a host where one burst takes
REF_BURST_S (an idle 2-core Xeon, Python 3.11).  On that host, ten passes
of one workload spread by 16-20% in wall time and by 2-4% once scaled.
The probe reads nothing of the program under test, so a change to the
program moves the scaled seconds exactly as it moves the wall seconds.
"""

import signal
import statistics
import time

REF_BURST_S = 0.0015   # one burst on the reference host
PERIOD_S = 0.1         # seconds between bursts inside a measured interval
BRACKET = 5            # bursts before and after every interval
BURST_ITERS = 2000


class _Map:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d


_G = _Map(0.9 + 0.1j, 0.2j, -0.1 + 0.05j, 1.1 - 0.1j)


def burst() -> float:
    """Seconds taken by a fixed chain of 2x2 complex products."""
    start = time.perf_counter()
    m, g = _Map(1 + 0j, 0j, 0j, 1 + 0j), _G
    for _ in range(BURST_ITERS):
        m = _Map(m.a * g.a + m.b * g.c, m.a * g.b + m.b * g.d,
                 m.c * g.a + m.d * g.c, m.c * g.b + m.d * g.d)
        if abs(m.a) > 1e6:
            m = _Map(1 + 0j, 0j, 0j, 1 + 0j)
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that times one interval, in wall seconds (``wall``)
    and in reference-speed seconds (``scaled()``).

    ``span`` (optional) is called with the span name around every burst
    inside the interval, so a tracer can charge the bursts to a span of
    their own instead of to the layer they interrupt.
    """

    def __init__(self, span=None):
        self.span = span
        self.bursts = []      # every burst, bracketing ones included
        self.inside = 0.0     # seconds of bursts inside the interval
        self.wall = 0.0

    def _tick(self, signum, frame):
        if self.span is None:
            took = burst()
        else:
            with self.span("probe"):
                took = burst()
        self.bursts.append(took)
        self.inside += took

    def __enter__(self):
        self.bursts += [burst() for _ in range(BRACKET)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.bursts += [burst() for _ in range(BRACKET)]

    def factor(self) -> float:
        """Reference speed over measured speed, averaged over the bursts."""
        return statistics.fmean(REF_BURST_S / b for b in self.bursts)

    def scaled(self) -> float:
        """Reference-speed seconds of the interval."""
        return (self.wall - self.inside) * self.factor()
