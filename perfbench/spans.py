"""Spans recorded around calls into the program, kept in memory.

A span is the list ``[sid, name, start, end, parent, rid, size]``:

* ``sid`` — unique id within one process;
* ``start``/``end`` — ``time.perf_counter()`` readings.  On Linux that
  is ``CLOCK_MONOTONIC``, one clock for every process on the host, so
  spans from the server and the client share a time line;
* ``parent`` — the ``sid`` of the span open on the same thread when this
  one began (``None`` for a root);
* ``rid`` — the request id: the index of the input text the span serves,
  a list of indices for a span over a batch of texts, or ``None``;
  a span without its own rid inherits its parent's;
* ``size`` — how many texts the call handled, where that is known.

:class:`Recorder` keeps spans in a list and writes them once, with
:meth:`Recorder.dump`, when the traced process exits.  The analysis
helpers below work on the loaded lists.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence

SID, NAME, START, END, PARENT, RID, SIZE = range(7)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid=None, size: int | None = None) -> list:
        """Open a span on this thread; close it with :meth:`end`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[RID]
        span = [
            next(self._ids),
            name,
            time.perf_counter(),
            None,
            None if parent is None else parent[SID],
            rid,
            size,
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().remove(span)
        self.spans.append(span)

    def open_span(self, name: str) -> list | None:
        """The innermost span called ``name`` still open on this thread."""
        for span in reversed(self._stack()):
            if span[NAME] == name:
                return span
        return None

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        rid: Callable[[tuple], object] | None = None,
        size: Callable[[tuple], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``rid(args)`` and ``size(args)`` derive the span's request id and
        text count from the positional arguments.
        """
        original = getattr(owner, attr)
        static = inspect.getattr_static(owner, attr)

        def timed(*args, **kwargs):
            span = self.begin(
                name,
                None if rid is None else rid(args),
                None if size is None else size(args),
            )
            try:
                return original(*args, **kwargs)
            finally:
                self.end(span)

        functools.update_wrapper(timed, original)
        # getattr already bound a classmethod; keep it bound.
        setattr(owner, attr, staticmethod(timed) if isinstance(static, classmethod) else timed)

    def dump(self, path: str, **extra: object) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def duration(span: Sequence) -> float:
    return span[END] - span[START]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[list]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return {
        span[SID]: duration(span)
        - covered(children.get(span[SID], ()), span[START], span[END])
        for span in spans
    }


def queue_waits(admits: Iterable[list], calls: Iterable[list]) -> list[float]:
    """Seconds from each text's admission to the engine call that holds it.

    ``admits`` are spans around one text's ``submit`` (rid = the text's
    index); ``calls`` are engine-call spans whose rid lists the indices
    of their texts.  Texts are unique, so the index joins the two.
    """
    call_start: dict[int, float] = {}
    for call in calls:
        for rid in call[RID] or ():
            if rid is not None:
                call_start.setdefault(rid, call[START])
    return [
        call_start[span[RID]] - span[END]
        for span in admits
        if span[RID] in call_start
    ]


def transport_gaps(round_trips: dict[int, float], handlers: Iterable[list]) -> list[float]:
    """Client round trip minus the server handler span of the same request."""
    return [
        round_trips[span[RID]] - duration(span)
        for span in handlers
        if span[RID] in round_trips
    ]
