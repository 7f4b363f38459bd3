"""In-memory spans around calls into the thermofock modules.

`Tracer.install` wraps, by setattr, every public function defined in a
module and every public method of the module's public classes; no class
is replaced.  A name another module bound with ``from .x import y``
keeps pointing at the unwrapped function, so its time counts as the
caller's self time; `Tracer.escaped` lists those bindings.

A span's self time is its duration minus the durations of its direct
children.  With ``memory=True`` each span also records the peak
tracemalloc allocation above the level at which it started.
"""
from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    op: int | None
    start: float = 0.0
    end: float = 0.0
    peak_alloc: int = 0
    error: str | None = None   # "error" or "guard" at the raising span

    def as_list(self) -> list:
        return [self.id, self.parent, self.layer, self.name, self.op,
                self.start, self.end, self.peak_alloc, self.error]

    @classmethod
    def from_list(cls, item) -> "Span":
        return cls(*item)


class _Frame:
    __slots__ = ("span", "base", "peak")

    def __init__(self, span, base):
        self.span = span
        self.base = base
        self.peak = base


class Tracer:
    def __init__(self, guard_error=(), memory: bool = False,
                 clock=time.perf_counter):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.escaped: list[str] = []
        self._guard_error = guard_error
        self._memory = memory
        self._clock = clock
        self._stack: list[_Frame] = []
        self._last_error = None

    # -- recording ---------------------------------------------------------

    def _enter(self, layer, name) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.span.id if parent else None,
                    layer, name, self.op)
        self.spans.append(span)
        base = 0
        if self._memory:
            base, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(span, base)
        self._stack.append(frame)
        span.start = self._clock()
        return frame

    def _exit(self, frame, exc) -> None:
        span = frame.span
        span.end = self._clock()
        self._stack.pop()
        if self._memory:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
            span.peak_alloc = frame.peak - frame.base
            if self._stack:
                self._stack[-1].peak = max(self._stack[-1].peak, frame.peak)
        if exc is not None and exc is not self._last_error:
            span.error = ("guard" if isinstance(exc, self._guard_error)
                          else "error")
            self._last_error = exc

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given layer."""
        frame = self._enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._exit(frame, exc)
            raise
        self._exit(frame, None)
        return result

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, name, fn, *args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, modules: dict) -> int:
        """Wrap the public callables of each {layer: module}; returns the
        number of wrappers installed."""
        originals = {}
        for layer, module in modules.items():
            for name, value in list(vars(module).items()):
                if name.startswith("_") or \
                        getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    originals[id(value)] = f"{layer}.{name}"
                    setattr(module, name, self._wrap(layer, name, value))
                elif inspect.isclass(value):
                    for attr, member in list(vars(value).items()):
                        wrapped = self._wrap_member(layer, f"{name}.{attr}",
                                                    attr, member)
                        if wrapped is not None:
                            setattr(value, attr, wrapped)
                            originals[id(member)] = f"{layer}.{name}.{attr}"
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if inspect.isfunction(value) and id(value) in originals:
                    self.escaped.append(
                        f"{layer}.{name} -> {originals[id(value)]}")
        return len(originals)

    def _wrap_member(self, layer, qualname, attr, member):
        if attr.startswith("_"):
            return None
        if isinstance(member, classmethod):
            return classmethod(self._wrap(layer, qualname, member.__func__))
        if inspect.isfunction(member):
            return self._wrap(layer, qualname, member)
        return None


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    peak_alloc: int = 0
    errors: int = 0
    guard_trips: int = 0


def summarize(spans) -> tuple[dict, float, dict]:
    """Per-layer totals, the summed duration of top-level spans, and the
    total duration of spans per (layer, name)."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) \
                + (s.end - s.start)
    layers: dict[str, LayerTotals] = {}
    by_name: dict[str, float] = {}
    top = 0.0
    for s in spans:
        duration = s.end - s.start
        totals = layers.setdefault(s.layer, LayerTotals())
        totals.calls += 1
        totals.self_s += duration - child_time.get(s.id, 0.0)
        totals.peak_alloc = max(totals.peak_alloc, s.peak_alloc)
        if s.error is not None:
            totals.errors += 1
            totals.guard_trips += s.error == "guard"
        key = f"{s.layer}.{s.name}"
        by_name[key] = by_name.get(key, 0.0) + duration
        if s.parent is None:
            top += duration
    return layers, top, by_name
