"""Spans recorded by the benchmark around its calls into nihdl's layers.

A span has a name, start and end (``perf_counter_ns``), the id of the span
that was open when it started, the phase it belongs to ("setup" or
"round") and counters. Every operation opens a root span, so the layer
spans of one operation share its id as their parent. All spans stay in
memory until the run ends. A disabled tracer hands out one shared no-op
span, so the untraced run executes the same code with no recording.
"""

from __future__ import annotations

from time import perf_counter_ns


class Span:
    __slots__ = ("tracer", "id", "name", "parent", "phase", "start", "end", "counts")

    def __init__(self, tracer: Tracer, name: str, counts: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self) -> Span:
        tracer = self.tracer
        self.id = len(tracer.spans)
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.phase = tracer.phase
        tracer.spans.append(self)
        tracer.stack.append(self.id)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = perf_counter_ns()
        self.tracer.stack.pop()
        return False

    def add(self, **counts: int) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, **counts: int) -> None:
        pass


_NULL = _NullSpan()


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.phase = "setup"

    def span(self, name: str, **counts: int):
        if not self.enabled:
            return _NULL
        return Span(self, name, counts)

    def select(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]
