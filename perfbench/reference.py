"""A fixed reference loop that gauges how fast the machine runs Python now.

On a shared host the same op can take 40% longer from one minute to the
next, with no change in the code: neighbours take cache, memory bandwidth
and turbo headroom.  The benchmark therefore times this loop next to every
op and set-up, and reports each timing at reference speed: the measured
wall time times ``REFERENCE_S`` over the loop's time at that moment.  A
change to cachelab changes the op but not this loop, which imports nothing
from cachelab, so it shows in full; a slow spell on the host slows both and
cancels.

The loop does the kinds of work the workloads do: ``Fraction`` credits in a
size-aware cache with a rent scan, dict and list churn, a sort, string
formatting and hashing.  Its inputs come from a fixed linear congruential
sequence, so every call does exactly the same work.
"""

import hashlib
from fractions import Fraction
from statistics import median
from time import perf_counter

# nominal time of one reference_work() call: the median on an Intel Xeon
# 2.1 GHz vCPU under Python 3.11 when the host was calm; a timing at
# reference speed is what it would have taken there and then
REFERENCE_S = 0.0045
SAMPLES = 3
# a long op is cut into segments of about this many seconds, each bracketed
# by the reference loop, so a slow spell in the middle of the op is caught
CUT_EVERY_S = 0.2


def reference_work():
    """Serve a fixed request sequence through a small rent-scan cache."""
    state, capacity, used = 12345, 48, 0
    credit, size, order, lines = {}, {}, [], []
    for i in range(90):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = f"r{state % 97}"
        if key in credit:
            credit[key] = Fraction(state % 20 + 1, state % 4 + 1)
            continue
        need = state % 8 + 1
        while used + need > capacity:
            rent = min(credit[k] / size[k] for k in order)
            for k in order:
                credit[k] -= rent * size[k]
            victim = next(k for k in order if credit[k] == 0)
            order.remove(victim)
            used -= size.pop(victim)
            del credit[victim]
        order.append(key)
        size[key], used = need, used + need
        credit[key] = Fraction(state % 20 + 1, state % 4 + 1)
        lines.append(f"{i},{key},{need},{credit[key]}")
    lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reference_time():
    """The median time of SAMPLES reference_work() calls, in seconds."""
    times = []
    for _ in range(SAMPLES):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return median(times)


def scale(before, after):
    """The factor that takes a wall time measured between two reference
    times to reference speed."""
    return REFERENCE_S / ((before + after) / 2)


def timed(fn, *args):
    """Call ``fn(*args)``; return its result, its wall time and its time at
    reference speed, all in seconds."""
    before = reference_time()
    start = perf_counter()
    result = fn(*args)
    wall = perf_counter() - start
    return result, wall, wall * scale(before, reference_time())


class ReferenceClock:
    """Times the ops of a loop at reference speed.

    The clock runs in segments; ``cut()`` closes the current one, times the
    reference loop and adds the segment's wall time, and that time scaled by
    the reference times on either side of it, to the running totals.  The
    reference loop itself is never in a segment.  The clock has the
    ``NullTracer`` call interface and cuts at a call into cachelab once the
    segment is ``CUT_EVERY_S`` long, so a long op is scaled piece by piece.
    """

    enabled = False

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self.references = []
        self.before = self._reference()
        self.start = perf_counter()

    def _reference(self):
        value = reference_time()
        self.references.append(value)
        return value

    def resume(self):
        """Start a segment now, leaving out the time since the last cut."""
        self.start = perf_counter()

    def cut(self):
        wall = perf_counter() - self.start
        after = self._reference()
        self.wall += wall
        self.scaled += wall * scale(self.before, after)
        self.before = after
        self.start = perf_counter()

    def totals(self):
        return self.wall, self.scaled

    def call(self, name, fn, *args, **kwargs):
        if perf_counter() - self.start >= CUT_EVERY_S:
            self.cut()
        return fn(*args, **kwargs)
