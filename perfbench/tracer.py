"""Outside-in span tracer.

The tracer wraps functions of the program from outside it: each wrapped
attribute is replaced by a function that records a span around the original
call and, optionally, work counts taken from the call's arguments.  Nothing
in the program is edited; ``restore`` puts every original object back.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends.  Self time is computed afterwards on the wall clock: a span's self
intervals are its interval minus the union of its children's intervals, and
where self intervals of spans on different threads overlap, the overlapping
time is shared equally between them.  The self times of all spans therefore
add up to the wall time the spans cover and never exceed it.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "failed")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = None
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; wraps and restores attributes of program objects."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._patches = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.get_ident()

    # -- span recording -----------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span belongs to whatever the main
            # thread is waiting in (e.g. the executor map of a Monte Carlo run)
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), parent))
        stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own passes)."""
        idx = self.open(name)
        try:
            yield
        except BaseException:
            self.close(idx, failed=True)
            raise
        self.close(idx)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> bool:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``count(args, kwargs)`` returns a dict of work counts for the call.
        Only attributes defined on ``owner`` itself are wrapped; a missing
        one is recorded in ``missing`` and skipped, so a renamed function
        shows up as a listed gap rather than a crash.
        """
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            span = tracer.close(idx)
            if count is not None:
                span.counts = count(args, kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _merge(intervals):
    """Union of (start, end) intervals as a sorted disjoint list."""
    out = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            if b > out[-1][1]:
                out[-1][1] = b
        else:
            out.append([a, b])
    return out


def self_times(spans) -> list[float]:
    """Wall-clock self time of every span (see the module docstring)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    events = []
    for i, s in enumerate(spans):
        cur = s.start
        covered = _merge((spans[c].start, spans[c].end) for c in children[i])
        for a, b in covered:
            a, b = max(a, s.start), min(b, s.end)
            if a > cur:
                events.append((cur, 1, i))
                events.append((a, 0, i))
            cur = max(cur, b)
        if s.end > cur:
            events.append((cur, 1, i))
            events.append((s.end, 0, i))
    # sweep: closing events sort before opening ones at equal times
    events.sort()
    out = [0.0] * len(spans)
    active = set()
    last = None
    for t, opening, i in events:
        if active and t > last:
            share = (t - last) / len(active)
            for j in active:
                out[j] += share
        last = t
        if opening:
            active.add(i)
        else:
            active.discard(i)
    return out
