"""In-memory spans: name, start, end and parent, written out when a run ends.

Single-threaded: the program runs one tape at a time, so an explicit stack of
open spans gives every new span its parent.
"""

from __future__ import annotations

import json
import time

NO_PARENT = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int, attrs: dict):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else NO_PARENT
        span = Span(name, self.clock(), parent, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span):
        span.end = self.clock()
        if self.spans[self._stack[-1]] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()

    def innermost(self, prefix: str) -> Span | None:
        """The most recently opened span still open whose name starts with prefix."""
        for i in reversed(self._stack):
            if self.spans[i].name.startswith(prefix):
                return self.spans[i]
        return None

    def write(self, path):
        """One JSON object per span; attrs keep only plain values."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str, bool))}
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, **attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent and overlapping children are counted
    once, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent != NO_PARENT:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
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
        out.append(s.duration - covered)
    return out


def phases(spans: list[Span], phase_names) -> list[str | None]:
    """Name of the nearest enclosing span (or the span itself) in phase_names."""
    out: list[str | None] = []
    for s in spans:
        if s.name in phase_names:
            out.append(s.name)
        elif s.parent == NO_PARENT:
            out.append(None)
        else:
            out.append(out[s.parent])  # parents precede children in the list
    return out
