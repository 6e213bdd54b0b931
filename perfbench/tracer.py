"""Spans around owpdb's public functions, installed from outside the package.

``install`` wraps the public functions of each owpdb module (a *layer*) and
a few public methods, rebinding each wrapper at every owpdb module that
imported the function by name and on its class for methods.  A span records
its name, parent span, request id, start and end, and the time it was
active.  A generator function's span is active during its call and during
each ``next()`` on the generator it returned, so the time a caller spends
iterating it lands in the span, and its yielded rows are counted.

Self time of a span is its active time minus the active time of the spans
nested directly in it; summed over a request's spans it equals the active
time of the request's root span.

A call made from inside the same layer is only counted, unless its name is
in ``always``: its time already belongs to that layer, so a span would add
cost without moving any layer's self time.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "cli",
    "dataio",
    "query",
    "database",
    "probability",
    "engine",
    "openworld",
    "exactdp",
    "greedy",
    "oracle",
)

# Called once per term of every atom sort; a span there costs more than the
# work it would measure, so its time stays with the caller.
SKIP_FUNCTIONS = {"query.term_key"}

METHODS = {
    "database": {
        "ProbView": ("pattern_entries", "pattern_size", "with_overrides"),
        "Database": (
            "__init__",
            "prob",
            "with_added",
            "is_explicit",
            "explicit_constants",
            "relation_mass",
            "relation_size",
            "support_size",
            "uncertain_atoms",
        ),
        "OverlayView": ("__init__", "prob", "is_explicit", "explicit_constants"),
        "LambdaCompletionView": ("__init__", "prob", "is_explicit", "explicit_constants"),
    },
    "engine": {"Evaluator": ("__init__", "probability")},
}


class Span:
    __slots__ = (
        "id", "name", "layer", "parent", "request", "start", "end", "busy", "child", "rows", "outer", "_t0",
    )

    def __init__(self, sid, name, parent, request):
        self.id = sid
        self.name = name
        self.layer = name.partition(".")[0]
        self.parent = parent
        self.request = request
        self.start = None
        self.end = None
        self.busy = 0.0
        self.child = 0.0
        self.rows = 0
        self.outer = False

    @property
    def self_time(self) -> float:
        return self.busy - self.child


class Tracer:
    """Span store, call counts and active-span stack; one per traced run."""

    def __init__(self, always=(), clock=time.perf_counter):
        self.clock = clock
        self.always = frozenset(always)
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.request = None
        self._stack: list[Span] = []
        self._depth: dict[str, int] = {}

    # -- span lifetime ----------------------------------------------------

    def open(self, name: str) -> Span:
        # the clock first, so the span's own bookkeeping (and any garbage
        # collection it sets off) is charged to the span, not to no one
        now = self.clock()
        self.calls[name] += 1
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.request)
        self.spans.append(span)
        span.outer = self._depth.get(name, 0) == 0
        self.resume(span, now)
        return span

    def resume(self, span: Span, now=None) -> None:
        self._depth[span.name] = self._depth.get(span.name, 0) + 1
        self._stack.append(span)
        if now is None:
            now = self.clock()
        span._t0 = now
        if span.start is None:
            span.start = now

    def pause(self, span: Span) -> None:
        now = self.clock()
        dur = now - span._t0
        span.busy += dur
        span.end = now
        self._stack.pop()
        self._depth[span.name] -= 1
        if self._stack:
            self._stack[-1].child += dur

    # -- wrappers ---------------------------------------------------------

    def _nested_in_layer(self, name: str) -> bool:
        """Count a call from inside its own layer instead of opening a span."""
        if name in self.always or not self._stack:
            return False
        if self._stack[-1].layer != name.partition(".")[0]:
            return False
        self.calls[name] += 1
        return True

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._nested_in_layer(name):
                return fn(*args, **kwargs)
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pause(span)

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def iterate(span, inner):
            while True:
                tracer.resume(span)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.pause(span)
                    return
                except BaseException:
                    tracer.pause(span)
                    raise
                tracer.pause(span)
                span.rows += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._nested_in_layer(name):
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                inner = fn(*args, **kwargs)
            finally:
                tracer.pause(span)
            return iterate(span, inner)

        return traced

    # -- results ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one CSV line."""
        with open(path, "w") as fh:
            fh.write("id,name,parent,request,start,end,busy,self,rows\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(
                    f"{s.id},{s.name},{parent},{s.request},{s.start!r},{s.end!r},"
                    f"{s.busy!r},{s.self_time!r},{s.rows}\n"
                )


def _owpdb_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "owpdb" or name.startswith("owpdb.")]


def install(tracer: Tracer) -> list[str]:
    """Wrap owpdb's public functions and the listed methods; returns the
    span names installed.  owpdb must already be imported."""
    modules = _owpdb_modules()
    names = []
    for layer in LAYERS:
        module = sys.modules[f"owpdb.{layer}"]
        for attr, fn in sorted(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or f"{layer}.{attr}" in SKIP_FUNCTIONS
            ):
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, bound, wrapped)
            names.append(f"{layer}.{attr}")
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
                names.append(name)
    return names
