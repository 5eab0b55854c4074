"""In-memory spans around the public functions of each wordfibers module.

`instrument(tracer)` replaces every public function of the six layer modules
with a wrapper that records a span (name, start, end, parent, request id).
Nothing under src/ changes: the wrappers live here and are installed on the
imported modules at run time.

Two things decide whether a call is seen:

* Modules import names with `from .groups import ...`, so each wrapper is
  installed on every module binding that holds the original function, not
  only on the defining module.
* ThreadPoolExecutor workers do not inherit the caller's span stack.  A span
  opened on a thread with no open span takes `Tracer.adopted` as its parent;
  the battery wrapper sets it to its own span while it runs, so the checks
  run on its worker threads become children of the battery span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

LAYERS = ("cli", "words", "groups", "fibers", "verify", "bounds")

# Public functions left unwrapped.  `canonical` recurses once per element of
# a result tree, so a span per call would cost more than the work it times;
# `variations` is a generator, whose body runs after the call has returned.
SKIP = {"cli.canonical", "words.variations"}


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    parent: Optional[int]
    request: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.adopted: Optional[Span] = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.adopted
        if parent is None:
            pid, request = None, next(self._requests)
        else:
            pid, request = parent.sid, parent.request
        span = Span(next(self._ids), name, layer, pid, request, self.clock())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)

    def drain(self) -> list[Span]:
        """Return the finished spans and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may run on other threads and overlap one another, so the covered
    part is the length of the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration - covered
    return out


# -- counts taken from return values -------------------------------------------


def _search_attrs(res) -> dict:
    return {"tuples": int(res.tuples_examined), "evaluations": int(res.evaluations)}


ATTRS: dict[str, Callable[[object], dict]] = {
    "fibers.max_fiber": _search_attrs,
    "fibers.max_fiber_per_target": _search_attrs,
    "fibers.fiber_distribution": lambda d: {"evaluations": int(d.total)},
    "groups.automorphism_group": lambda a: {"found": len(a)},
    "groups.subgroups": lambda subs: {"found": len(subs)},
    "verify.check_rewrite": lambda r: {
        "equivalences": int(r.counters.get("equivalences_checked", 0))
    },
    "cli.ResultCache.lookup": lambda record: {"hit": record is not None},
}


def _wrap(tracer: Tracer, fn: Callable, name: str, layer: str) -> Callable:
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if attrs is not None:
            span.attrs = attrs(result)
        return result

    return wrapper


def _wrap_battery(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """The battery command: its span is the explicit parent of the checks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, "cli")
        saved, tracer.adopted = tracer.adopted, span
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.adopted = saved
            tracer.end(span)

    return wrapper


def _wrap_table(tracer: Tracer, prop: property) -> property:
    """`FiniteGroup.table`: the first read on each group builds the table."""
    seen: "weakref.WeakSet" = weakref.WeakSet()
    getter = prop.fget

    def fget(group):
        if group in seen:
            return getter(group)
        span = tracer.begin("groups.table_build", "groups")
        try:
            table = getter(group)
        finally:
            tracer.end(span)
        seen.add(group)
        return table

    return property(fget, doc=prop.__doc__)


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Install the wrappers; returns a function that removes them again."""
    modules = {layer: importlib.import_module(f"wordfibers.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != mod.__name__
                or name in SKIP
            ):
                continue
            if name == "cli.cmd_verify_battery":
                wrapped = _wrap_battery(tracer, obj, name)
            else:
                wrapped = _wrap(tracer, obj, name, layer)
            wrappers[id(obj)] = (obj, wrapped)

    undo: list[Callable[[], None]] = []
    package = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "wordfibers" or n.startswith("wordfibers."))]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append(functools.partial(setattr, mod, attr, obj))

    cache_cls = modules["cli"].ResultCache
    for method in ("lookup", "store"):
        original = getattr(cache_cls, method)
        setattr(cache_cls, method,
                _wrap(tracer, original, f"cli.ResultCache.{method}", "cli"))
        undo.append(functools.partial(setattr, cache_cls, method, original))

    group_cls = modules["groups"].FiniteGroup
    table = group_cls.__dict__["table"]
    group_cls.table = _wrap_table(tracer, table)
    undo.append(functools.partial(setattr, group_cls, "table", table))

    def remove() -> None:
        for step in reversed(undo):
            step()

    return remove
