"""Span tracing from outside the program, by wrapping its layer entry points.

The benchmark records where time goes without changing anything under
``src/``: :meth:`Tracer.wrap` replaces a function or method *at the place its
callers look it up* (for example ``repro.engine.sweep.batched_dense_lu``) with
a wrapper that records one span per call.  Spans keep their name, start, end,
parent and thread; self time is a span's duration minus the part of it that
its children cover, so nested and threaded layers are not counted twice.

Only the process that installed the tracer records.  Code running in a
forked worker process still calls the wrappers but they pass straight
through, because that process's spans could not be collected.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import threading
import time
from typing import Callable, Dict, List, Optional


@dataclasses.dataclass
class Span:
    """One call into a traced layer."""

    ident: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int


def _union_length(intervals) -> float:
    """Total length covered by a collection of ``(start, end)`` intervals."""
    covered = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


class Tracer:
    """Collects spans and counters; installs and removes layer wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = collections.defaultdict(int)
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._stacks: Dict[int, List[int]] = {}
        self._main = threading.main_thread().ident
        self._next = 0
        self._patches = []

    # -------------------------------------------------------------- spans

    def _stack(self) -> List[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span belongs to whatever the main thread
            # is doing when the work is handed over.
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        with self._lock:
            ident = self._next
            self._next += 1
        stack.append(ident)
        return ident, parent, time.perf_counter()

    def _close(self, name, ident, parent, start):
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(Span(ident, name, start, end, parent,
                                   threading.get_ident()))

    def count(self, name, amount=1) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counts[name] += amount

    # ----------------------------------------------------------- wrapping

    def wrap(self, owner, attribute, name,
             counter: Optional[Callable] = None) -> None:
        """Record a ``name`` span around every call of ``owner.attribute``.

        ``owner`` is a module or a class.  ``counter(args, kwargs, result)``,
        when given, returns ``{counter_name: amount}`` added after each call.
        Class-, static- and plain methods are all handled.
        """
        raw = (owner.__dict__[attribute] if isinstance(owner, type)
               else getattr(owner, attribute))
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        function = raw.__func__ if kind is not None else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            token = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(name, *token)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    tracer.count(key, amount)
            return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = getattr(function, "__name__", attribute)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, kind(wrapper) if kind else wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # ----------------------------------------------------------- analysis

    def _children(self):
        """Spans by parent ident; roots are listed under ``None``."""
        children = collections.defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        return children

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus covered children)."""
        children = self._children()
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            covered = _union_length(
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(span.ident, ())
                if child.end > span.start and child.start < span.end)
            totals[span.name] += (span.end - span.start) - covered
        return totals

    def total_times(self) -> Dict[str, float]:
        """Summed durations per span name."""
        totals: Dict[str, float] = collections.defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return totals

    def busy_seconds(self) -> float:
        """Time covered by spans, per thread, summed over threads."""
        by_thread = collections.defaultdict(list)
        for span in self.spans:
            by_thread[span.thread].append((span.start, span.end))
        return sum(_union_length(intervals)
                   for intervals in by_thread.values())

    def root_seconds(self) -> float:
        """Time covered by spans that have no parent."""
        return _union_length((span.start, span.end)
                             for span in self._children()[None])

    def overlap_seconds(self) -> float:
        """Seconds of sibling spans that ran at the same time, counted extra.

        With it the books balance: the self times of all spans plus the
        time no root span covers, minus this overlap, equal the traced wall
        time.  It is 0 when every span runs on one thread.
        """
        overlap = 0.0
        for siblings in self._children().values():
            overlap += (sum(span.end - span.start for span in siblings)
                        - _union_length((span.start, span.end)
                                        for span in siblings))
        return overlap
