"""In-memory span tracing from outside the program.

``Tracer.wrap`` replaces a function attribute (on ``opinionnet.cli`` or on a
class) with a wrapper that records a span around each call and restores the
original on ``restore``. Spans carry a name, start, end, parent and counts
taken from the call's arguments and result. Parents come from a per-thread
stack; a span opened on a thread with no open span (a worker thread) takes
the innermost open span of the thread that created the tracer.

``self_times`` subtracts from each span the part of its interval that its
children cover, so overlapping children from worker threads count once.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # the lock also guards the owner's stack, which worker threads read
        with self._lock:
            outer = stack or self._owner_stack
            parent = outer[-1].id if outer else None
            span = Span(len(self.spans) + 1, name, parent, time.perf_counter())
            self.spans.append(span)
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        with self._lock:
            stack.remove(span)

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls to owner.attr; count(args, kwargs, result) returns span counts."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out
