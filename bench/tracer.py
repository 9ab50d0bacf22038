"""Span tracing of the program's module boundaries, from outside.

The tracer wraps boundary functions by replacing module and class
attributes.  A function is replaced under every name that binds it in
any loaded ``fdl`` module, so both ``T._conv_forward`` style attribute
lookups and names bound by ``from .x import y`` reach the wrapper.
Attributes are swapped in only inside :meth:`Tracer.active` and restored
on exit, so untraced work runs the original code with no wrapper cost.

Spans are kept in memory as ``[name, start, end, parent, id, extra]`` and
written out once at the end.  The id is ``"<operation>.<unit>"``: a
boundary declared with ``opens_unit`` (the start of each training image)
advances the unit, so spans of one image or one request share an id.

Tracing runs in this process only: spans of work done in worker
processes stay out of reach until tracing moves into the program itself.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self, package="fdl"):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self.unit = 0
        self.span_id = None
        self._stack = []
        self._patches = []  # (owner, attribute, original, replacement)
        self._installed = False

    # -- declaring boundaries ------------------------------------------------

    def _owners_of(self, original):
        """Every (module, attribute) in the package that binds ``original``."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    found.append((module, attr))
        return found

    def _resolve(self, module, qualname):
        """Return the owners to patch and the original for ``qualname``,
        which is ``"func"`` in a module or ``"Class.method"``."""
        if "." in qualname:
            cls_name, meth = qualname.split(".", 1)
            cls = getattr(module, cls_name)
            return [(cls, meth)], vars(cls)[meth]
        original = getattr(module, qualname)
        return self._owners_of(original), original

    def span(self, module, qualname, name, extra=None, opens_unit=False):
        """Record a span named ``name`` around every call of the boundary.

        ``extra(args, result)`` may return data stored with the span.
        """
        owners, original = self._resolve(module, qualname)
        wrapper = self._span_wrapper(name, original, extra, opens_unit)
        self._patches.extend((owner, attr, original, wrapper) for owner, attr in owners)

    def count(self, module, qualname, name):
        """Count calls of the boundary without recording spans."""
        owners, original = self._resolve(module, qualname)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patches.extend((owner, attr, original, counted) for owner, attr in owners)

    def _span_wrapper(self, name, fn, extra, opens_unit):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if opens_unit:
                self.unit += 1
                self.span_id = f"{self.op_id}.{self.unit}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                info = extra(args, result) if (extra is not None and result is not None) else None
                spans[index] = [name, start, end, parent, self.span_id, info]

        traced.__wrapped__ = fn
        return traced

    # -- switching on and off ------------------------------------------------

    @contextlib.contextmanager
    def active(self, op_id):
        """Trace one operation: patch, run the body inside a root ``op``
        span, and restore every attribute afterwards."""
        if self._installed:
            raise RuntimeError("tracer is already active")
        self.op_id, self.unit, self.span_id = op_id, 0, f"{op_id}.0"
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._installed = True
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._stack.pop()
            self.spans[index] = ["op", start, end, -1, f"{op_id}.0", None]
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self._installed = False
            self.op_id = self.span_id = None

    def patched_attributes(self):
        return [(owner, attr, original) for owner, attr, original, _ in self._patches]

    # -- output ----------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another on a single thread, so the
    part of the interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]
