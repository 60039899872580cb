"""Call tracing for the traced run, recorded from outside the program.

Every public function of the antiflex package is wrapped in each package
module namespace that holds it: a name bound by ``from .linalg import f``
is a separate reference, so wrapping only the defining module would miss
every call made through it.  Each call adds to its function's call count,
total time and self time (its time minus the time of the traced calls it
made), and records a span (name, start, end, parent).  Fraction arithmetic
is counted by wrapping the operator methods of ``fractions.Fraction``.

Spans, counts and times are kept in memory and written to one JSON file at
the end.  Spans deeper than SPAN_DEPTH below a job, and all spans after the
first MAX_SPANS, are left out of the file; the counts and times still cover
every call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from fractions import Fraction

SPAN_DEPTH = 5
MAX_SPANS = 100_000

FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.fraction_ops = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_left_out = 0
        self._stack = []
        self._undo = []
        self._origin = time.perf_counter()

    # -- bookkeeping --------------------------------------------------------

    def _id(self, name):
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return fid

    def _enter(self, fid):
        self.calls[fid] += 1
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        idx = -1
        if len(stack) < SPAN_DEPTH and (parent >= 0 or not stack) \
                and len(self.span_name) < MAX_SPANS:
            idx = len(self.span_name)
            self.span_name.append(fid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.spans_left_out += 1
        frame = [idx, 0.0, fid, time.perf_counter()]
        stack.append(frame)
        return frame

    def _leave(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        idx, child, fid, start = frame
        dur = end - start
        self.self_s[fid] += dur - child
        self.total_s[fid] += dur
        if self._stack:
            self._stack[-1][1] += dur
        if idx >= 0:
            self.span_start[idx] = start - self._origin
            self.span_end[idx] = end - self._origin

    def span(self, name):
        """A span opened by the benchmark itself, e.g. around one job."""
        return _Span(self, self._id(name))

    # -- installing and removing the wrappers ---------------------------------

    def _wrap(self, fn, fid):
        enter, leave = self._enter, self._leave

        def traced(*args, **kwargs):
            frame = enter(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self):
        package = {id(m) for m in self.modules}
        wrappers = {}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = sys.modules.get(obj.__module__)
                if home is None or id(home) not in package:
                    continue
                if obj not in wrappers:
                    name = "%s.%s" % (obj.__module__.rsplit(".", 1)[-1],
                                      obj.__name__)
                    wrappers[obj] = self._wrap(obj, self._id(name))
                setattr(mod, attr, wrappers[obj])
                self._undo.append((mod, attr, obj))
        for op in FRACTION_OPS:
            orig = Fraction.__dict__[op]
            setattr(Fraction, op, self._counted(orig, op == "__neg__"))
            self._undo.append((Fraction, op, orig))

    def _counted(self, fn, unary):
        tracer = self

        if unary:
            def counted(a):
                tracer.fraction_ops += 1
                return fn(a)
        else:
            def counted(a, b):
                tracer.fraction_ops += 1
                return fn(a, b)
        return counted

    def uninstall(self):
        while self._undo:
            target, attr, orig = self._undo.pop()
            setattr(target, attr, orig)

    # -- results --------------------------------------------------------------

    def self_time(self, name):
        fid = self._ids.get(name)
        return 0.0 if fid is None else self.self_s[fid]

    def call_count(self, name):
        fid = self._ids.get(name)
        return 0 if fid is None else self.calls[fid]

    def write(self, path, extra):
        doc = dict(extra)
        doc["functions"] = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i],
                   "total_s": self.total_s[i]}
            for i, name in enumerate(self.names)}
        doc["fraction_ops"] = self.fraction_ops
        doc["spans"] = {"names": self.names,
                        "name": list(self.span_name),
                        "parent": list(self.span_parent),
                        "start_s": list(self.span_start),
                        "end_s": list(self.span_end),
                        "left_out": self.spans_left_out}
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


class _Span:
    def __init__(self, tracer, fid):
        self.tracer = tracer
        self.fid = fid
        self.frame = None

    def __enter__(self):
        self.frame = self.tracer._enter(self.fid)
        return self

    def __exit__(self, *exc):
        self.tracer._leave(self.frame)
        return False
