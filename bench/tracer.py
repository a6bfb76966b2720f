"""In-memory span tracer that times a program from outside.

The tracer replaces attributes of the program's modules and classes (the
names callers look up at call time) with wrappers that record one span per
call.  A span holds its name, start and end (``time.perf_counter_ns``), the
thread it ran on, its cause and a work count.  The cause is the enclosing
span on the same thread; the first span on a pool thread instead carries the
span that submitted the work, so that worker time is never booked as the
submitter's self time.  Spans stay in memory until :func:`save` writes them.
"""
from __future__ import annotations

import itertools
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "id name start end thread cause work")


class Tracer:
    """Collects spans from wrapped attributes; use as a context manager.

    Leaving the ``with`` block (or calling :meth:`uninstall`) puts every
    original attribute back, so code run afterwards is untraced.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name, fn, args=(), kwargs=None, cause=None, work=None, submits=None):
        """Call ``fn`` inside a span.

        ``cause`` is used only when this thread has no open span (the first
        span of a pool task).  ``work(result)`` gives the span's work count.
        With ``submits=child_name`` the first positional argument is a
        callable handed to a pool; each of its calls becomes a ``child_name``
        span caused by this one, on whatever thread runs it.
        """
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else cause
        if submits is not None:
            task = args[0]
            args = (lambda *a, **k: self.run(submits, task, a, k, cause=sid),) + tuple(args[1:])
        stack.append(sid)
        count = 0
        start = time.perf_counter_ns()
        try:
            out = fn(*args, **(kwargs or {}))
            if work is not None:
                count = work(out)
            return out
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, threading.get_ident(), parent, count))

    def wrap(self, owner, attr, name, work=None, submits=None):
        """Replace ``owner.attr`` by a wrapper that records ``name`` spans."""
        original = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.run(name, original, args, kwargs, work=work, submits=submits)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        """Restore every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Self time in ns of each span id: its duration minus same-thread children.

    Spans caused from another thread (pool tasks) are not subtracted: the
    submitter's thread was waiting, not running them.
    """
    by_id = {s.id: s for s in spans}
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        parent = by_id.get(s.cause)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.end - s.start
    return own


def totals(spans):
    """Per span name: calls, inclusive ns, self ns and summed work."""
    own = self_times(spans)
    out = {}
    for s in spans:
        calls, incl, self_ns, work = out.get(s.name, (0, 0, 0, 0))
        out[s.name] = (calls + 1, incl + s.end - s.start, self_ns + own[s.id], work + s.work)
    return out


def save(spans, path):
    """Write spans as tab-separated lines: id, name, start, end, thread, cause, work."""
    with open(path, "w") as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tthread\tcause\twork\n")
        for s in spans:
            fh.write(f"{s.id}\t{s.name}\t{s.start}\t{s.end}\t{s.thread}\t{s.cause or 0}\t{s.work}\n")
