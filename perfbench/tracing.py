"""In-memory spans around library calls, for the benchmark's traced run.

A `Tracer` replaces functions at the module or class bindings their
callers look up, records one span per call (name, parent, request id,
start and end in nanoseconds, and optional attributes taken from the
arguments and result), and puts every binding back on exit.  Spans stay
in memory until `write_spans` is called at the end of the run.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

NAME, PARENT, REQUEST, START, END, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request: object = None
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.request, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None, consume=False) -> None:
        """Trace calls through `owner.attr`.

        `consume` is for functions returning an iterator: the span then
        covers producing every item, not just creating the generator.
        """
        original = owner.__dict__[attr]
        fn = original.__func__ if isinstance(original, classmethod) else original
        if consume:
            inner = fn

            def fn(*args, **kwargs):
                return iter(list(inner(*args, **kwargs)))

        wrapped = self.wrap(name, fn, attrs)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        """Patch every (owner, attr, span name, attrs, consume) target."""
        try:
            for owner, attr, name, attrs, consume in targets:
                self.patch(owner, attr, name, attrs, consume)
            yield self
        finally:
            self.restore()

    @contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's checks) are not traced."""
        self.active = False
        try:
            yield
        finally:
            self.active = True


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its children cover, in ns.

    Spans come from one thread and nest strictly, so children of one
    parent never overlap and their durations add up to the covered part.
    """
    covered = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(spans)]


def write_spans(spans: list[list], self_ns: list[int], path: Path) -> None:
    """One CSV line per span: id, parent, request, name, start, end, self time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        out.write("id,parent,request,name,start_ns,end_ns,self_ns\n")
        for i, rec in enumerate(spans):
            out.write(f"{i},{rec[PARENT]},{rec[REQUEST]},{rec[NAME]},"
                      f"{rec[START]},{rec[END]},{self_ns[i]}\n")
