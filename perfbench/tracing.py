"""Call tracer for the per-layer run.

The tracer works from the benchmark's side: it replaces every function and
method defined in the ``frame_rigidity`` modules, under each name a module
binds it to (``suites.evert``, ``subspaces.orthonormalize``, ...), and the
public entry points of ``numpy.linalg``, with wrappers that record calls,
inclusive time and self time (inclusive time minus the time of wrapped
callees).  Properties and dunder methods other than ``__init__`` are left
alone.  Nothing is recorded while ``active`` is False, so the benchmark's own
checks and the calibration kernel are never counted.

A wrapped call costs about a microsecond of bookkeeping, which lands in the
caller's self time; the traced run reports its total overhead.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

_perf = time.perf_counter


class Sink:
    """Counters of one kind of cell."""

    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_time: dict = {}
        self.under: dict = {}  # (ancestor, name) -> calls made anywhere below it
        self.direct: dict = {}  # (parent, name) -> calls made by it directly

    def get(self, table: str, key) -> float:
        return getattr(self, table).get(key, 0)

    def prefix_sum(self, table: str, prefix: str) -> float:
        return sum(v for k, v in getattr(self, table).items() if k.startswith(prefix))


class Tracer:
    def __init__(self, watch_under: dict, watch_direct: dict, returns_callable: dict):
        """``watch_under`` and ``watch_direct`` map a callee name to the caller
        names whose nested or direct calls of it are counted;
        ``returns_callable`` maps a function name to the name under which the
        callable it returns is traced."""
        self.active = False
        self.sink = Sink()
        self._stack: list = []
        self._watch_under = watch_under
        self._watch_direct = watch_direct
        self._returns_callable = returns_callable
        self._patches: list = []

    def _wrap(self, name, fn):
        tracer = self
        under = self._watch_under.get(name, ())
        direct = self._watch_direct.get(name, ())
        returned = self._returns_callable.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sink = tracer.sink
            if stack and (under or direct):
                if stack[-1][0] in direct:
                    key = (stack[-1][0], name)
                    sink.direct[key] = sink.direct.get(key, 0) + 1
                for ancestor in under:
                    if any(frame[0] == ancestor for frame in stack):
                        key = (ancestor, name)
                        sink.under[key] = sink.under.get(key, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                stack.pop()
                sink.calls[name] = sink.calls.get(name, 0) + 1
                sink.total[name] = sink.total.get(name, 0.0) + elapsed
                sink.self_time[name] = sink.self_time.get(name, 0.0) + elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if returned is not None and callable(result):
                return tracer._wrap(returned, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "frame_rigidity") -> None:
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        wrapped: dict = {}
        for mod in modules:
            short = mod.__name__[len(package) + 1:]
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
        for attr in np.linalg.__all__:
            obj = getattr(np.linalg, attr)
            if callable(obj) and not isinstance(obj, type):
                self._set(np.linalg, attr, self._wrap(f"numpy.linalg.{attr}", obj))

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, obj.__func__)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
