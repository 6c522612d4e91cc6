"""Spans around distid's public functions, recorded from outside the package.

A `Tracer` replaces each named public function of the package with a
wrapper that records one span per call: name, start, end, thread and
parent span.  Spans are kept in memory.  Every module of the package that
holds a reference to the original function (the defining module and each
module that imported it by name) gets the wrapper, so calls between
modules are seen too.  `Tracer.close` puts the originals back.

Parent rule: a span's parent is the span open in its own thread; a span
opened on a thread with nothing open (a pool worker) takes the span open
in the thread that created the tracer, which is the one making the call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence


class TraceError(RuntimeError):
    """A traced name is missing from the program."""


class Span(NamedTuple):
    sid: int
    name: str
    start: int       # time.perf_counter_ns()
    end: int
    thread: int      # threading.get_ident() of the calling thread
    parent: int      # sid of the parent span, 0 at the top
    kept: tuple | None = None   # (args, result) for layers with keep=True


@dataclass(frozen=True)
class Layer:
    """One traced public name.

    module is the defining module, relative to the package; attr is the
    function name, or "Class.method" for a classmethod.  With keep, each
    span holds the call's arguments and result, so that properties of
    them can be computed after the traced call instead of inside it.
    """

    module: str
    attr: str
    span: str
    keep: bool = False


class Tracer:
    """Wraps the layers' public functions while open; see the module doc."""

    def __init__(self, package: str, layers: Sequence[Layer]):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)   # next() on a count is atomic in CPython
        self._local = threading.local()
        self._root_stack = self._stack()
        self._restore: list[Callable[[], None]] = []
        targets = [_resolve(package, layer) for layer in layers]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        try:
            for layer, owner, original in targets:
                self._install(layer, owner, original, modules)
        except BaseException:
            self.close()
            raise

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _install(self, layer: Layer, owner, original, modules) -> None:
        if "." in layer.attr:
            method = layer.attr.rsplit(".", 1)[1]
            raw = vars(owner)[method]
            wrapped = classmethod(self._wrap(layer, raw.__func__))
            setattr(owner, method, wrapped)
            self._restore.append(lambda: setattr(owner, method, raw))
            return
        wrapped = self._wrap(layer, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    self._restore.append(
                        functools.partial(setattr, module, key, original))

    def _wrap(self, layer: Layer, fn):
        spans = self.spans
        ids = self._ids
        name = layer.span
        keep = layer.keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else 0
            sid = next(ids)
            stack.append(sid)
            returned = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(Span(sid, name, start, end, threading.get_ident(), parent,
                                  (args, result) if returned and keep else None))

        return wrapper

    def close(self) -> None:
        """Put every original function back."""
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _resolve(package: str, layer: Layer):
    """(layer, owner, original) for a layer, or TraceError naming what is gone."""
    qualified = f"{package}.{layer.module}"
    try:
        module = importlib.import_module(qualified)
    except ImportError as exc:
        raise TraceError(f"traced module {qualified} cannot be imported: {exc}") from None
    owner, parts = module, layer.attr.split(".")
    for i, part in enumerate(parts):
        if not hasattr(owner, part):
            where = ".".join([qualified] + parts[:i])
            raise TraceError(
                f"traced public name {qualified}.{layer.attr} no longer exists "
                f"({where} has no attribute {part!r}); update the layer table "
                f"in bench/layers.py so that layer {layer.span!r} is still measured")
        if i < len(parts) - 1:
            owner = getattr(owner, part)
    original = getattr(owner, parts[-1])
    if not callable(original):
        raise TraceError(f"traced name {qualified}.{layer.attr} is not callable")
    return layer, owner, original


def union_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Self time of each span in ns: duration minus the union of its children.

    Children are clipped to the parent's interval, so overlapping children
    on several threads are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.sid, ())]
        covered = union_ns((a, b) for a, b in clipped if b > a)
        out[s.sid] = (s.end - s.start) - covered
    return out
