"""In-memory spans around the calls the benchmark makes into cachelab.

A span records the name of the called function (``<layer>.<function>``),
its start and end on ``time.perf_counter``, the span it is nested in, and
the round of ops it belongs to.  Spans are kept in a list and only
aggregated after the timed loop ends.

``NullTracer`` has the same ``call`` interface and records nothing; the
untraced run uses it, so both runs execute the same benchmark code.
"""

from statistics import median
from time import perf_counter

LAYERS = ("trace", "core", "paging", "offline", "analysis", "advgen", "reports", "cli")


class NullTracer:
    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1, round)
        self.round = 0
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.round)

    def add(self, name, start, end):
        """Record a span timed by the caller (a whole op run untraced)."""
        self.spans.append((name, start, end, -1, self.round))


def layer_of(name):
    return name.split(".", 1)[0]


class SpanSummary:
    """Per-round busy and self time by layer and by span name.

    Busy time of a layer counts a span only when no enclosing span belongs
    to the same layer, so nested calls are not counted twice.  Self time of
    a span is its duration minus the durations of the spans directly nested
    in it.  Every figure is the median over rounds of the round's total.
    """

    def __init__(self, spans, rounds):
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.rounds = rounds
        self._busy = {}
        self._self = {}
        self._by_name = {}
        self._self_by_name = {}
        for i, (name, start, end, parent, rnd) in enumerate(spans):
            layer = layer_of(name)
            duration = end - start
            self._add(self._by_name, name, rnd, duration)
            self._add(self._self, layer, rnd, duration - child[i])
            self._add(self._self_by_name, name, rnd, duration - child[i])
            if not self._has_ancestor_in(spans, parent, layer):
                self._add(self._busy, layer, rnd, duration)

    @staticmethod
    def _add(table, key, rnd, value):
        per_round = table.setdefault(key, {})
        per_round[rnd] = per_round.get(rnd, 0.0) + value

    @staticmethod
    def _has_ancestor_in(spans, parent, layer):
        while parent >= 0:
            if layer_of(spans[parent][0]) == layer:
                return True
            parent = spans[parent][3]
        return False

    def _median(self, table, key):
        per_round = table.get(key, {})
        return median(per_round.get(r, 0.0) for r in range(self.rounds))

    def busy(self, layer):
        return self._median(self._busy, layer)

    def self_time(self, layer):
        return self._median(self._self, layer)

    def named(self, *names):
        """Median per-round total of the spans with any of these names."""
        return median(sum(self._by_name.get(n, {}).get(r, 0.0) for n in names)
                      for r in range(self.rounds))

    def self_of(self, name):
        """Median per-round self time of the spans with this name."""
        return self._median(self._self_by_name, name)
