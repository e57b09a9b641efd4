"""Layer tracer: times calls into the program from outside it.

The traced run never edits the program.  It replaces, for the duration
of a ``with tracer.installed(...)`` block, the attributes through which
one layer calls the next — a module global where the caller looks a
function up by name, a class attribute where it calls a method — with
thin wrappers that record a span around the call.  Spans nest on one
stack, so each layer's *self* time (its duration minus the part its
child spans cover) is known, and so is the share of an operation that no
layer span covers at all (``trace.unattributed_share``).

Aggregation is done on the fly (per-name total and self seconds); no span tree is kept, so a traced run of tens of thousands of
requests stays small.  A span nested inside another span of the same
name adds to the self time but not again to the total.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

perf = time.perf_counter

#: ``on_result(tracer, args, kwargs, result)`` hook run after a call.
ResultHook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Span stack plus per-name aggregates and named counters."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: per-call durations for the span names listed in ``keep_samples``
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.keep_samples: set[str] = set()
        self.counts: dict[str, float] = defaultdict(float)
        self.roots: set[str] = set()
        # stack frames: [name, start, seconds covered by child spans]
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [name, perf(), 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = perf()
        name, start, covered = frame
        dur = end - start
        self._stack.pop()
        self._depth[name] -= 1
        self.self_s[name] += dur - covered
        if self._depth[name] == 0:
            self.total_s[name] += dur
            if name in self.keep_samples:
                self.samples[name].append(dur)
        if self._stack:
            self._stack[-1][2] += dur

    @contextmanager
    def span(self, name: str, *, root: bool = False) -> Iterator[None]:
        """Open a span by hand (the benchmark's operation roots)."""
        if root:
            self.roots.add(name)
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[[tuple], str],
        on_result: ResultHook | None = None,
        *,
        generator: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper until uninstall.

        ``name`` may be a function of the call's positional arguments.
        ``generator=True`` times every ``next()`` of the returned
        iterator instead of the call that creates it.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        tracer = self

        if generator:

            def wrapper(*args, **kwargs):
                inner = None
                while True:
                    frame = tracer._enter(name)
                    try:
                        if inner is None:  # set-up work counts too
                            inner = iter(fn(*args, **kwargs))
                        item = next(inner)
                    except StopIteration:
                        tracer._exit(frame)
                        return
                    except BaseException:
                        tracer._exit(frame)
                        raise
                    tracer._exit(frame)
                    if on_result is not None:
                        on_result(tracer, args, kwargs, item)
                    yield item

        else:

            def wrapper(*args, **kwargs):
                frame = tracer._enter(name if isinstance(name, str) else name(args))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if on_result is not None:
                    on_result(tracer, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self, *groups: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        """Install the wrappers of each layer group for the block."""
        try:
            for install in groups:
                install(self)
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def total(self, *names: str) -> float:
        return sum(self.total_s.get(n, 0.0) for n in names)

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def unattributed_share(self) -> float:
        """Self time of the operation roots over their total time."""
        wall = self.total(*self.roots)
        return self.self_time(*self.roots) / wall if wall > 0 else 0.0

    def self_shares(self) -> list[tuple[str, float, float]]:
        """``(span, self seconds, share of root time)``, largest first."""
        wall = self.total(*self.roots)
        rows = [
            (name, secs, secs / wall if wall > 0 else 0.0)
            for name, secs in self.self_s.items()
        ]
        return sorted(rows, key=lambda r: (-r[1], r[0]))
