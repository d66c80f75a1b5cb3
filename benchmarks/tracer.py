"""Per-layer tracing for the benchmark, done entirely from outside the program.

A `Tracer` wraps named deident callables for the length of a traced run and
restores them afterwards. A module-level function is replaced in every
`deident` module namespace that holds it (found by identity, so aliases
imported with `from .x import y` are covered); a method is replaced on its
class. A callable that no longer exists is reported as absent, so a refactor
that removes or renames it never breaks the benchmark.

Each wrapped call records its wall time, its self time (wall time minus the
time of traced calls made inside it) and, through an optional observer, a
few counters read from its arguments and result.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "deident"

# An observer gets (stat, bound arguments, result) after each call and may add
# to stat.extra. If it raises one of these, the counters it feeds are absent.
OBSERVER_ERRORS = (AttributeError, KeyError, LookupError, OSError, TypeError, ValueError)


@dataclass
class CallStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)
    observer_failed: bool = False

    def record(self, elapsed: float, children: float) -> None:
        self.calls += 1
        self.total_s += elapsed
        self.self_s += elapsed - children
        self.durations.append(elapsed)

    def add(self, name: str, value: float) -> None:
        self.extra[name] = self.extra.get(name, 0.0) + value

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile of the per-call durations, in ms."""
        if not self.durations:
            return 0.0
        ordered = sorted(self.durations)
        index = min(len(ordered), max(1, math.ceil(q * len(ordered) / 100))) - 1
        return 1000.0 * ordered[index]


class Tracer:
    """Wraps `<module>.<qualname>` targets of the deident package.

    `targets` maps a key such as "reid.Bm25Reidentifier.scores" to an
    observer or None.
    """

    def __init__(self, targets: dict[str, Callable | None]):
        self.targets = targets
        self.stats: dict[str, CallStat] = {key: CallStat() for key in targets}
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for key, observer in self.targets.items():
            module_name, _, qualname = key.partition(".")
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.add(key)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                self._wrap_method(key, home, owner_name, attr, observer)
            else:
                self._wrap_function(key, home, attr, observer)

    def uninstall(self) -> None:
        for owner, attr, original, existed in reversed(self._restore):
            if existed:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _package_modules(self):
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def _wrap_function(self, key, home, attr, observer) -> None:
        original = getattr(home, attr, None)
        if not callable(original):
            self.absent.add(key)
            return
        wrapper = self._make_wrapper(key, original, observer)
        for mod in self._package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original, True))
                    setattr(mod, name, wrapper)

    def _wrap_method(self, key, home, owner_name, attr, observer) -> None:
        cls = getattr(home, owner_name, None)
        if not inspect.isclass(cls):
            self.absent.add(key)
            return
        for klass in cls.__mro__:
            if attr in vars(klass):
                raw = vars(klass)[attr]
                break
        else:
            self.absent.add(key)
            return
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if kind else raw
        if not callable(function):
            self.absent.add(key)
            return
        wrapper = self._make_wrapper(key, function, observer)
        existed = attr in vars(cls)
        self._restore.append((cls, attr, raw, existed))
        setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def _make_wrapper(self, key, function, observer):
        stat = self.stats[key]
        signature = _signature(function) if observer else None

        def traced(*args, **kwargs):
            start = self._enter()
            try:
                result = function(*args, **kwargs)
            finally:
                self._exit(stat, start)
            if observer is not None and not stat.observer_failed:
                try:
                    bound = signature.bind(*args, **kwargs).arguments if signature else {}
                    observer(stat, bound, result)
                except OBSERVER_ERRORS:
                    stat.observer_failed = True
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", key)
        traced.__qualname__ = getattr(function, "__qualname__", key)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # -- spans opened by the benchmark itself ------------------------------

    @contextlib.contextmanager
    def span(self, key: str):
        """Time a block as if it were a traced call named `key`."""
        stat = self.stats.setdefault(key, CallStat())
        start = self._enter()
        try:
            yield
        finally:
            self._exit(stat, start)

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, stat: CallStat, start: float) -> None:
        elapsed = time.perf_counter() - start
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        stat.record(elapsed, children)


def _signature(function):
    try:
        return inspect.signature(function)
    except (TypeError, ValueError):
        return None
