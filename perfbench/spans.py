"""In-memory spans and call counters for the traced benchmark run.

A span records (name, start, end, parent, op id) plus free-form attributes
and per-name call counts.  Spans stay in memory and are written out once, by
``Tracer.dump``, when the run ends.

Instrumentation is installed only in the traced run, by replacing public
attributes of the ``obmstop`` modules with wrappers:

* span wrappers open a child span of whatever span is open (coarse calls such
  as ``solve_region`` or ``estimate_value``);
* count wrappers add one to a per-name counter on the innermost open span
  (hot calls such as ``threshold_minus`` or ``obm_step``, where a span per
  call would cost more than the call).

The same function object is usually bound under its name in several modules
(``fundamental_pair`` lives in ``core`` and is imported into ``solver`` and
``value``), so every module binding it is patched and all are restored.
"""

from __future__ import annotations

import functools
import json
import time


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "counts")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = {}
        self.counts = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "op": self.op,
                "attrs": self.attrs, "counts": self.counts}


class Tracer:
    """Span recorder; ``enabled`` is False while the benchmark checks answers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def count(self, name: str):
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[name] = counts.get(name, 0) + 1

    # -- instrumentation ---------------------------------------------------

    def _patch(self, modules, name: str, make_wrapper):
        original = None
        for mod in modules:
            if hasattr(mod, name):
                original = getattr(mod, name)
                break
        if original is None:
            raise AttributeError(f"no module binds {name!r}")
        wrapper = make_wrapper(original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                self._patched.append((mod, name, original))
                setattr(mod, name, wrapper)

    def wrap_span(self, modules, name: str, describe=None):
        """Open a span around every call of ``name``; ``describe(result)``
        returns attributes to store on the span."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    tracer.spans[idx].attrs["error"] = type(exc).__name__
                    raise
                finally:
                    tracer.close(idx)
                if describe is not None:
                    tracer.spans[idx].attrs.update(describe(result))
                return result
            return wrapper

        self._patch(modules, name, make)

    def wrap_count(self, modules, name: str):
        """Count every call of ``name`` on the innermost open span."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.enabled:
                    tracer.count(name)
                return fn(*args, **kwargs)
            return wrapper

        self._patch(modules, name, make)

    def restore(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def subtree_counts(self) -> list[dict]:
        """Per span: its own counts plus those of every descendant."""
        totals = [dict(s.counts) for s in self.spans]
        for idx in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[idx].parent
            if parent is not None:
                acc = totals[parent]
                for key, val in totals[idx].items():
                    acc[key] = acc.get(key, 0) + val
        return totals

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict(i) for i, s in enumerate(self.spans)], fh)
