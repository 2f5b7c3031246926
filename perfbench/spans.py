"""Spans and counters recorded from outside the package.

A traced pass swaps the public names a job calls for wrappers that record
a span (name, start, end, parent) around each call; nothing inside the
package is edited, and `Patches.restore` puts the originals back. Hot leaf
calls (`ZechTable.resolve`, one step of a generator) are summed per
(name, parent) instead of kept one span each, so a pass with a million
lookups stays small in memory.
"""

import collections
import functools
import time


class Tracer:
    """In-memory spans, leaf totals and integer counters of one pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # [name, start, end, parent index or -1, child seconds]
        self.stack = []        # indices of the open spans
        self.leaves = {}       # (name, parent index) -> [calls, seconds]
        self.counts = collections.Counter()
        self.deferred = []     # counting callbacks run after the pass

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span; results and exceptions pass through."""
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self.stack.pop()
            if parent >= 0:
                self.spans[parent][4] += span[2] - span[1]

    def leaf(self, name, fn, *args, **kwargs):
        """Like `call` for a leaf: time is summed per (name, parent)."""
        parent = self.stack[-1] if self.stack else -1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            took = self.clock() - start
            rec = self.leaves.get((name, parent))
            if rec is None:
                self.leaves[(name, parent)] = [1, took]
            else:
                rec[0] += 1
                rec[1] += took
            if parent >= 0:
                self.spans[parent][4] += took

    def finish(self):
        """Run the counting deferred out of the timed pass."""
        for fn in self.deferred:
            fn()
        self.deferred.clear()

    def self_times(self):
        """Seconds per span name, each span's duration less its children's."""
        out = collections.Counter()
        for name, start, end, _, child in self.spans:
            out[name] += end - start - child
        for (name, _), (_, seconds) in self.leaves.items():
            out[name] += seconds
        return out

    def leaf_calls(self, name):
        return sum(calls for (leaf, _), (calls, _) in self.leaves.items() if leaf == name)

    def to_json(self):
        return {
            "spans": [{"name": name, "start": start, "end": end, "parent": parent}
                      for name, start, end, parent, _ in self.spans],
            "leaves": [{"name": name, "parent": parent, "calls": calls, "seconds": s}
                       for (name, parent), (calls, s) in self.leaves.items()],
            "counts": dict(sorted(self.counts.items())),
        }


def traced(tracer, name, fn, after=None):
    """Wrap fn so each call is a span named `name`.

    `after(result, *args, **kwargs)` runs once the span has closed; it
    should only count, or defer work to `tracer.deferred`.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result
    return wrapper


def traced_generator(tracer, name, fn):
    """Wrap a generator function: each step of the generator is a leaf."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = tracer.leaf(name, fn, *args, **kwargs)
        while True:
            try:
                item = tracer.leaf(name, next, it)
            except StopIteration:
                return
            yield item
    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    _ABSENT = object()

    def __init__(self):
        self.saved = []

    def set(self, obj, attr, value):
        self.saved.append((obj, attr, obj.__dict__.get(attr, self._ABSENT)))
        setattr(obj, attr, value)

    def restore(self):
        while self.saved:
            obj, attr, old = self.saved.pop()
            if old is self._ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
