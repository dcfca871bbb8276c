"""Spans recorded from the benchmark side, around calls into cubemill.

A span has a name, start and end (``perf_counter_ns``), a parent span and the
item it belongs to. Spans stay in memory until the run ends. Calls made by
the benchmark go through :meth:`Tracer.call`; calls that cubemill makes to
itself are reached by :meth:`Tracer.wrap`, which swaps a module attribute for
a recording wrapper for the duration of the traced phase only.

The untraced phase uses :func:`direct`, which has the same signature as
``Tracer.call`` and records nothing.
"""

import json
from contextlib import contextmanager
from time import perf_counter_ns


def direct(_name, fn, *args):
    return fn(*args)


class Span:
    __slots__ = ("sid", "parent", "item", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, item, name, start):
        self.sid = sid
        self.parent = parent
        self.item = item
        self.name = name
        self.start = start
        self.end = None
        self.attrs = None

    def to_row(self):
        row = {
            "id": self.sid,
            "parent": self.parent,
            "item": self.item,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
        }
        if self.attrs:
            row["attrs"] = self.attrs
        return row


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.item = None
        self.absent = []  # span names whose target attribute does not exist

    def _open(self, name):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, self.item, name, perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args):
        span = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(span)

    @contextmanager
    def wrap(self, module, attr, name, note=None):
        """Record a span around every call of ``module.attr`` while active.

        ``note(args, result)`` may return a dict of attributes for the span.
        A missing attribute is recorded in ``absent`` and left alone.
        """
        original = getattr(module, attr, None)
        if original is None:
            if name not in self.absent:
                self.absent.append(name)
            yield
            return

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.attrs = note(args, result)
            return result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    # -- summaries -------------------------------------------------------

    def self_ns(self):
        """Per span id, its duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self, name):
        """(calls, inclusive ns, self ns) over all spans of one name."""
        own = self.self_ns()
        calls = incl = excl = 0
        for s in self.spans:
            if s.name == name:
                calls += 1
                incl += s.end - s.start
                excl += own[s.sid]
        return calls, incl, excl

    def by_item(self, name):
        """Per item, (calls, inclusive ns) of the spans of one name."""
        out = {}
        for s in self.spans:
            if s.name == name:
                calls, incl = out.get(s.item, (0, 0))
                out[s.item] = (calls + 1, incl + s.end - s.start)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.to_row(), sort_keys=True) + "\n")
