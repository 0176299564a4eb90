"""Spans around the program's public functions, recorded from outside it.

A hook replaces the module or class attribute through which the program
calls a function with a wrapper that records a span: its name, start, end
and the span it ran inside. Spans stay in memory while the run goes on and
are written out once, when it ends. A wrapper records only while the
tracer is enabled, so the benchmark's own calls into the program (input
rendering, correctness checks) leave no spans.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start_ns, end_ns, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def hook(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr``; ``count(counts, args, result)`` adds counters."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls, total and self time (ns) per span name.

        Self time is a span's duration minus the time its children cover;
        children of one span never overlap, since the program is
        single-threaded.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - inner
        return out

    def write(self, path: str) -> None:
        """Write the spans as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w") as f:
            f.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{start},{end},{parent}\n")
