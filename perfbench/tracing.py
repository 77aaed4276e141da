"""Spans and call counters recorded from outside the package.

The tracer never edits package code. It swaps module attributes for thin
wrappers while a traced pass runs and puts the originals back afterwards:

- a span wrapper records (name, start, end, parent, operation id) for
  each call, so nested calls (swapprep -> exact_route) get a parent;
- a count wrapper only bumps a counter, for functions called thousands
  of times per operation (as_x_state, negativity...).

A wrapper is installed on every teleroute module that binds the function
under that name, because a module that did `from .qcore import
as_x_state` calls its own binding, not qcore's. Spans stay in memory.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

MODULES = ("teleroute", "cli", "netfile", "netgraph", "fidmodel", "qcore", "telesim", "swapprep")


def _modules():
    return [importlib.import_module(m if m == "teleroute" else f"teleroute.{m}") for m in MODULES]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str):
        return _Span(self, name)

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def spans_on(self, home: str, attr: str) -> None:
        """Record a span named `home.attr` around every call of that function."""
        fn = getattr(importlib.import_module(f"teleroute.{home}"), attr)
        name = f"{home}.{attr}"

        def wrapper(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        for module in _modules():
            if getattr(module, attr, None) is fn:
                self._patch(module, attr, wrapper)

    def count_on(self, home: str, attr: str) -> None:
        """Count every call of that function, under the key `home.attr`."""
        fn = getattr(importlib.import_module(f"teleroute.{home}"), attr)
        key = f"{home}.{attr}"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        for module in _modules():
            if getattr(module, attr, None) is fn:
                self._patch(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: calls, total ms, self ms (total minus the part
        covered by direct child spans) and each call's (ms, op id)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, op_id), children in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "each": []})
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - children) * 1e3
            row["each"].append(((end - start) * 1e3, op_id))
        return out


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.record = [self.name, perf_counter(), 0.0, parent, t.op_id]
        t._stack.append(len(t.spans))
        t.spans.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[2] = perf_counter()
        self.tracer._stack.pop()
        return False
