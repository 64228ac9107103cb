"""In-memory spans around the benchmark's calls into the package.

A span is (name, start, end, parent) plus free-form counts recorded at
the same boundary (states spent, nodes handled, bytes parsed). Spans are
kept in a list and written once, when the run ends. With tracing off,
`span` hands out one shared inert object and records nothing.
"""

import json
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, sid, name, parent, attrs):
        self.id = sid
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    @property
    def seconds(self):
        return self.end - self.start


class _Inert:
    @property
    def attrs(self):
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_INERT = _Inert()


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    def span(self, name, **attrs):
        if not self.enabled:
            return _INERT
        return _Open(self, name, attrs)

    def write(self, path):
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                **s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, name, attrs):
        parent = tracer._stack[-1].id if tracer._stack else None
        self.tracer = tracer
        self.span = Span(len(tracer.spans), name, parent, attrs)

    def __enter__(self):
        self.tracer.spans.append(self.span)
        self.tracer._stack.append(self.span)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False
