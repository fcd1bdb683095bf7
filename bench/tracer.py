"""In-memory tracer that measures astvec from outside.

It replaces functions at the module attributes their callers look up with
timing wrappers, and puts the originals back afterwards. Two kinds of wrapper:

- a span records name, start, end, parent span and run id, and is meant for
  command- and epoch-level calls;
- a counter keeps only a call count, a summed duration and an optional tally
  of the results, and is meant for per-step calls, so the trace stays small.

Every wrapper adds its duration to the innermost open span, so a span's self
time is its duration minus the part of it that its children cover. Counted
functions must not call other wrapped functions, or that time would be
subtracted twice.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds, tally]
        # open frames: [span id, name, start, seconds covered by children]
        self._stack: list[list] = [[None, "", 0.0, 0.0]]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.last: dict[str, object] = {}  # span name -> last result, if kept

    @contextmanager
    def span(self, name: str):
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            parent = self._stack[-1]
            parent[3] += duration
            self.spans.append({
                "id": frame[0], "name": name, "start": frame[2], "end": end,
                "parent": parent[0], "run": self.run_id,
                "self_s": duration - frame[3],
            })

    def wrap_span(self, module, attr: str, name: str, fn=None, keep=False) -> None:
        """Record one span per call of module.attr (or of fn in its place);
        with keep, the last result is kept in self.last[name]."""
        inner = fn or getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if keep:
                self.last[name] = result
            return result

        self._patch(module, attr, wrapper)

    def wrap_count(self, module, attr: str, name: str, tally=None) -> None:
        """Count calls of module.attr and sum their durations; tally(result),
        if given, is added up as well."""
        inner = getattr(module, attr)
        stats = self.counters.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stack[-1][3] += dt
            if tally is not None:
                stats[2] += tally(result)
            return result

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def calls(self, name: str) -> int:
        return self.counters.get(name, [0, 0.0, 0])[0]

    def seconds(self, name: str) -> float:
        return self.counters.get(name, [0, 0.0, 0])[1]

    def tally(self, name: str):
        return self.counters.get(name, [0, 0.0, 0])[2]

    def span_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def span_self_seconds(self, prefix: str) -> float:
        return sum(s["self_s"] for s in self.spans if s["name"].startswith(prefix))

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def write(self, path) -> None:
        """Spans one per line, then one line with the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counters": self.counters}) + "\n")
