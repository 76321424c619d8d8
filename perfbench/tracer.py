"""In-memory span tracer that wraps functions of the program under test.

The benchmark's traced run installs this tracer in the child process
before the workload starts.  :func:`install` replaces every loaded
binding of each target function -- module attributes, ``from``-imports
in other modules and class attributes -- with a wrapper that records
one span per call.  Spans live in compact arrays in memory and are
written out once, when the process ends; forked pool workers reset the
arrays after the fork and write one file per process.

A span is ``(id, parent, trace, name, start, end)``.  Coroutine
functions are timed per step: their span also carries the busy
segments during which the coroutine actually ran, so time spent
suspended (waiting for a socket or a future) is not charged to them.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

# (span id, trace id, name index) of the innermost open span.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes


class SpanLog:
    """The spans and counters of one process."""

    def __init__(self, out_dir: str | Path | None = None) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.names: list[str] = []
        self.layers: list[str] = []
        self._index: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._next = 0
        self.ids = array("q")
        self.parents = array("q")
        self.traces = array("q")
        self.name_idx = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.segments: dict[int, list[float]] = {}
        self.counters: dict[str, float] = {}

    def name_index(self, layer: str, name: str) -> int:
        key = f"{layer}:{name}"
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return idx

    def new_id(self) -> int:
        self._next += 1
        return (self.pid << 32) | self._next

    def add(self, sid: int, parent: Any, name: int, start: float,
            end: float, segments: list[float] | None = None) -> None:
        self.ids.append(sid)
        self.parents.append(parent[0] if parent is not None else 0)
        self.traces.append(parent[1] if parent is not None else sid)
        self.name_idx.append(name)
        self.starts.append(start)
        self.ends.append(end)
        if segments is not None:
            self.segments[sid] = segments

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def after_fork(self) -> None:
        """Start an empty log in a forked child and dump it at exit."""
        self._reset()
        if self.out_dir is not None:
            from multiprocessing import util
            util.Finalize(None, self.dump, exitpriority=100)

    def dump(self) -> Path | None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.npz``."""
        if self.out_dir is None:
            return None
        meta = {"pid": self.pid, "names": self.names, "layers": self.layers,
                "counters": self.counters,
                "segments": {str(k): v for k, v in self.segments.items()}}
        path = self.out_dir / f"spans-{self.pid}.npz"
        np.savez(path, ids=np.frombuffer(self.ids, dtype=np.int64),
                 parents=np.frombuffer(self.parents, dtype=np.int64),
                 traces=np.frombuffer(self.traces, dtype=np.int64),
                 name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64),
                 meta=np.frombuffer(json.dumps(meta).encode(),
                                    dtype=np.uint8))
        return path


class Hook:
    """What a wrapper does besides recording the span.

    ``after`` sees the call, its result and duration and adds to the
    log's counters; ``before`` (optional) runs first and returns state
    handed to ``after``.  ``label`` (optional) names each span after
    its arguments, e.g. the experiment a call runs.
    """

    def __init__(self, after: Callable[..., None] | None = None,
                 before: Callable[..., Any] | None = None,
                 label: Callable[..., str] | None = None) -> None:
        self.after = after
        self.before = before
        self.label = label


def _parent_layer(log: SpanLog, parent: Any) -> str | None:
    return log.layers[parent[2]] if parent is not None else None


def wrap_function(fn: Callable, log: SpanLog, layer: str, name: str,
                  hook: Hook | None = None) -> Callable:
    """A span-recording wrapper around ``fn`` (sync or coroutine)."""
    fixed_idx = log.name_index(layer, name)
    label = hook.label if hook is not None else None
    after = hook.after if hook is not None else None

    def index(args, kwargs) -> int:
        if label is None:
            return fixed_idx
        return log.name_index(layer, f"{name}:{label(args, kwargs)}")

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            state = hook.before(args, kwargs) if hook and hook.before else None
            parent = _CURRENT.get()
            timed = _TimedCoroutine(fn(*args, **kwargs), log,
                                    index(args, kwargs), parent)
            result = await timed
            if after is not None:
                after(log, args, kwargs, result, timed.wall,
                      _parent_layer(log, parent) == layer, state)
            return result
        async_wrapper.__perfbench_wrapped__ = fn
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = hook.before(args, kwargs) if hook and hook.before else None
        parent = _CURRENT.get()
        sid = log.new_id()
        idx = index(args, kwargs)
        token = _CURRENT.set((sid, parent[1] if parent else sid, idx))
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            _CURRENT.reset(token)
            log.add(sid, parent, idx, start, end)
        if after is not None:
            after(log, args, kwargs, result, end - start,
                  _parent_layer(log, parent) == layer, state)
        return result
    wrapper.__perfbench_wrapped__ = fn
    return wrapper


class _TimedCoroutine:
    """Drive a coroutine step by step, timing only the steps it runs."""

    def __init__(self, coro, log: SpanLog, idx: int, parent: Any) -> None:
        self._coro = coro
        self._log = log
        self._idx = idx
        self._parent = parent
        self.wall = 0.0

    def __await__(self):
        coro, log, parent = self._coro, self._log, self._parent
        sid = log.new_id()
        ident = (sid, parent[1] if parent else sid, self._idx)
        segments: list[float] = []
        start = None
        value, error = None, None
        while True:
            t0 = _clock()
            if start is None:
                start = t0
            token = _CURRENT.set(ident)
            try:
                if error is not None:
                    exc, error = error, None
                    yielded = coro.throw(exc)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                self._close(token, t0, start, sid, segments)
                return stop.value
            except BaseException:
                self._close(token, t0, start, sid, segments)
                raise
            segments += (t0, _clock())
            _CURRENT.reset(token)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc

    def _close(self, token, t0: float, start: float, sid: int,
               segments: list[float]) -> None:
        end = _clock()
        _CURRENT.reset(token)
        segments += (t0, end)
        self.wall = end - start
        self._log.add(sid, self._parent, self._idx, start, end, segments)


class Root:
    """A span opened and closed by hand (the workload's own root)."""

    def __init__(self, log: SpanLog, layer: str, name: str) -> None:
        self._log = log
        self._idx = log.name_index(layer, name)

    def __enter__(self) -> "Root":
        self._parent = _CURRENT.get()
        self._sid = self._log.new_id()
        self._token = _CURRENT.set(
            (self._sid, self._parent[1] if self._parent else self._sid,
             self._idx))
        self.start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        self.end = _clock()
        _CURRENT.reset(self._token)
        self._log.add(self._sid, self._parent, self._idx, self.start,
                      self.end)


# ---------------------------------------------------------------------------
# installing wrappers over every loaded binding
# ---------------------------------------------------------------------------

def _rebind_everywhere(original: Callable, wrapper: Callable,
                       prefixes: tuple[str, ...]) -> int:
    """Replace every module-level binding of ``original``; returns count."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith(prefixes):
            continue
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def wrap_module_function(log: SpanLog, module: Any, attr: str, layer: str,
                         hook: Hook | None = None,
                         prefixes: tuple[str, ...] = ("repro",)) -> int:
    """Wrap ``module.attr`` and every other binding of the same object."""
    original = getattr(module, attr)
    if hasattr(original, "__perfbench_wrapped__"):
        return 0
    wrapper = wrap_function(original, log, layer, attr, hook)
    return _rebind_everywhere(original, wrapper, prefixes)


def wrap_method(log: SpanLog, cls: type, attr: str, layer: str,
                hook: Hook | None = None) -> int:
    """Wrap a method on its defining class (all instances see it)."""
    raw = cls.__dict__[attr]
    name = f"{cls.__name__}.{attr}"
    if isinstance(raw, staticmethod):
        if hasattr(raw.__func__, "__perfbench_wrapped__"):
            return 0
        setattr(cls, attr, staticmethod(
            wrap_function(raw.__func__, log, layer, name, hook)))
    elif isinstance(raw, classmethod):
        if hasattr(raw.__func__, "__perfbench_wrapped__"):
            return 0
        setattr(cls, attr, classmethod(
            wrap_function(raw.__func__, log, layer, name, hook)))
    elif inspect.isfunction(raw):
        if hasattr(raw, "__perfbench_wrapped__"):
            return 0
        setattr(cls, attr, wrap_function(raw, log, layer, name, hook))
    else:
        return 0
    return 1


def public_methods(cls: type) -> list[str]:
    """Names of the plain, static and class methods ``cls`` defines."""
    out = []
    for attr, raw in cls.__dict__.items():
        if attr.startswith("_"):
            continue
        if (isinstance(raw, (staticmethod, classmethod))
                or inspect.isfunction(raw)):
            out.append(attr)
    return out


def register_fork_handler(log: SpanLog) -> None:
    """Have forked children start a fresh log that dumps at exit."""
    from multiprocessing import util
    util.register_after_fork(log, SpanLog.after_fork)
