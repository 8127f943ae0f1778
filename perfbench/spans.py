"""In-memory spans around the program's public functions.

The program's source is not instrumented: a ``Tracer`` replaces module
attributes with timing wrappers while it is active and puts the
originals back when it closes. A function may be imported under the
same name into several ``motifgcn`` modules (``model`` imports
``mix_matrices`` from ``motifs``), so every alias is replaced.

A span holds its name, start, end, parent span and thread. Parents are
tracked per thread; work a thread pool runs has no parent span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover.

    Children of one span can overlap only if they ran on other threads,
    so the covered part is the union of their intervals, clipped to the
    parent's.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Context manager that wraps named functions and collects spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.missing: list[str] = []   # wrapped names that no longer exist
        self.calls: dict[str, int] = {}  # calls per wrapped function
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- recording -----------------------------------------------------

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its count dict."""
        span = self._open(name)
        try:
            yield span.counts
        finally:
            self._close(span)

    def _open(self, name):
        stack = self._stack()
        span = Span(next(self._ids), name, self.clock(), 0.0,
                    stack[-1].id if stack else None, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span):
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)

    # -- wrapping ------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Time every call of ``owner.attr``.

        ``name`` is a span name, or a function of the call's bound
        arguments returning one. ``count(bound_args, result)`` returns a
        dict of counts added to the span. A missing attribute is recorded
        in ``self.missing`` rather than raising, so the benchmark still
        runs after the program drops a function.
        """
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        static = inspect.getattr_static(owner, attr, None)
        if static is None:
            self.missing.append(label)
            return
        self.calls[label] = 0
        is_classmethod = isinstance(static, classmethod)
        original = static.__func__ if is_classmethod else static
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.calls[label] += 1
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = self._open(name(bound.arguments) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(bound.arguments, result)
            return result

        if is_classmethod:
            self._replace(owner, attr, static, classmethod(wrapper))
            return
        # Replace the function under every module that imported it.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("motifgcn")
                    and module.__dict__.get(attr) is original):
                self._replace(module, attr, original, wrapper)
        if owner.__dict__.get(attr) is original:
            self._replace(owner, attr, original, wrapper)

    def _replace(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def close(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- reporting -----------------------------------------------------

    def summary(self) -> dict:
        """name -> {"calls", "self_s", counts...}."""
        own = self_times(self.spans)
        out = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[s.id]
            for key, value in s.counts.items():
                row[key] = row.get(key, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

