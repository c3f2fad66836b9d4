"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own files: around the calls
the workloads make into each repo module, and around public bound methods
of the components the workloads construct (replaced on the instance, so no
repo source changes).  A span holds its layer name, start and end on the
host clock, the index of the span that was open when it started, and the
workload batch it belongs to.  Spans stay in memory until the run ends.

The untraced passes use a :class:`NullTracer`, whose spans cost one
``nullcontext`` and which wraps nothing, so the end-to-end metrics are
measured without the recorder in the path.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed call into a layer."""

    __slots__ = ("name", "start", "end", "parent", "batch")

    def __init__(self, name: str, start: float, parent: int, batch: Optional[int]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.batch = batch

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "batch": self.batch,
        }


class Tracer:
    """Records nested spans; reports busy and self time per layer name."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.batch: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, self.clock(), parent, self.batch)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable[..., object]) -> Callable[..., object]:
        """``fn`` with every call recorded as a ``name`` span."""

        @functools.wraps(fn)
        def traced(*args: object, **kwargs: object) -> object:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self, obj: object, name: str, *methods: str) -> None:
        """Shadow public bound methods of ``obj`` with traced wrappers."""
        for method in methods:
            setattr(obj, method, self.wrap(name, getattr(obj, method)))

    def busy_and_self(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per layer name: host time inside its spans, and that time minus
        the time covered by its direct child spans.

        A span nested inside a span of the same name (a layer re-entering
        itself) adds nothing to busy time, so busy time is never counted
        twice.
        """
        busy: Dict[str, float] = {}
        own: Dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        for index, span in enumerate(self.spans):
            own[span.name] = own.get(span.name, 0.0) + span.duration - child_time[index]
            if not self._has_ancestor(span, span.name):
                busy[span.name] = busy.get(span.name, 0.0) + span.duration
        return busy, own

    def busy_under(self, name: str, ancestor: str) -> float:
        """Host time in ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span in self.spans:
            if span.name == name and self._has_ancestor(span, ancestor):
                total += span.duration
        return total

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent >= 0:
            above = self.spans[parent]
            if above.name == name:
                return True
            parent = above.parent
        return False


class NullTracer:
    """Stand-in for untraced passes: records nothing, wraps nothing."""

    enabled = False

    def __init__(self) -> None:
        self.batch: Optional[int] = None

    def span(self, name: str) -> "contextlib.nullcontext[None]":
        return contextlib.nullcontext()

    def instrument(self, obj: object, name: str, *methods: str) -> None:
        return None
