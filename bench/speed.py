"""Machine-speed probe: reported times are scaled to a fixed reference speed.

The host this benchmark runs on is shared, and its speed for one process
drifts by up to about 1.5x within a minute and between minutes, far more than
a change worth measuring; longer runs do not average it out.  So every run
times a fixed pure-Python loop (the probe) between operations, once for every
PROBE_EVERY_S seconds that have passed, in the process doing the work, and
scales each measured time by the speed factor of the probes taken around it:

    speed factor = REFERENCE_PROBE_S / median time of those probes

A probe runs only standard-library code (Fraction and dict) with the garbage
collector off and frees what it builds before it returns, so no change to the
engine can move it; a faster engine lowers the scaled times exactly as it
lowers the raw ones.  A probe of plain integer arithmetic tracked the
engine's operations less well.  Probe time is left out of every timing,
and each run's detail record keeps the raw times next to the scaled ones.
"""

import gc
import statistics
from fractions import Fraction

PROBE_STEPS = 2000
_ZERO = Fraction(0)
# median probe time on the machine the benchmark was written on (2-vCPU VM,
# Intel Xeon at 2.1 GHz, Python 3.11.7); a constant, so that scaled times of
# two commits stay comparable
REFERENCE_PROBE_S = 0.0065
PROBE_EVERY_S = 0.25
MAX_PROBES_AT_ONCE = 8
# an operation's factor comes from this many probes before it and as many after
OP_WINDOW = 3


def probe_once(clock):
    """Fraction sums into a dict keyed by tuples, like the engine's
    coefficient arithmetic, with the garbage collector off so that no
    collection of the engine's heap lands in the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        acc = {}
        for i in range(PROBE_STEPS):
            key = (i % 97, i % 89)
            acc[key] = acc.get(key, _ZERO) + Fraction(i, 7)
        return clock() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedProbe(object):
    """The probes of one run.  `samples` are the probe times; `marks` has one
    entry per operation: the number of probes taken before it."""

    def __init__(self, clock):
        self.clock = clock
        self.samples = []
        self.marks = []
        self.last = None

    def take(self):
        """Probe now; returns the time spent, for the caller to leave out."""
        start = self.clock()
        self.samples.append(probe_once(self.clock))
        self.last = self.clock()
        return self.last - start

    def due(self):
        """Called before each operation: probes once for every PROBE_EVERY_S
        that has passed since the last probe (up to MAX_PROBES_AT_ONCE), so
        that long operations get as many probes per second as short ones."""
        owed = 1 if self.last is None else int((self.clock() - self.last) / PROBE_EVERY_S)
        spent = sum(self.take() for _ in range(min(owed, MAX_PROBES_AT_ONCE)))
        self.marks.append(len(self.samples))
        return spent


def factor(samples, lo, hi):
    """Speed factor of the probes samples[lo:hi] (clipped to the run)."""
    return REFERENCE_PROBE_S / statistics.median(samples[max(0, lo):max(hi, 1)])


def scale_ops(times, samples, marks):
    """Scale per-operation times, each by the OP_WINDOW probes before it and
    the OP_WINDOW after it."""
    return [t * factor(samples, m - OP_WINDOW, m + OP_WINDOW) for t, m in zip(times, marks)]


def scale_passes(walls, times, samples, marks):
    """Scale pass wall times, each by the mean factor of its operations
    (scale_ops), weighted by their times."""
    scaled = scale_ops(times, samples, marks)
    per_pass = len(times) // len(walls)
    return [w * sum(scaled[i * per_pass:(i + 1) * per_pass])
            / sum(times[i * per_pass:(i + 1) * per_pass]) for i, w in enumerate(walls)]
