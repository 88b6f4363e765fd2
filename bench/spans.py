"""Outside-in spans for the traced benchmark run.

The tracer replaces public names of ``turanlab`` with timing wrappers, in
the traced process only, and keeps every span in memory until the run
ends. A span's self time is its duration minus the durations of its
direct children; the program is single-threaded, so children never
overlap and the subtraction is exact.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (name, parent index or -1, start, end, round), in start order
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.round = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, self.round])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[(name, self.round)] += amount

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(tracer, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- interposition ---------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr),
                                            on_result))

    def patch_everywhere(self, modules, fn, name: str, on_result=None) -> None:
        """Interpose on every module-level name bound to ``fn``."""
        wrapped = self.wrap(name, fn, on_result)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.replace(mod, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[3] - s[2]
        return own

    def per_round(self) -> dict[int, dict[str, float]]:
        """Per round: inclusive (name) and self (name + ':self') seconds,
        plus the counters. Inclusive time counts outermost spans of a
        name only, so recursion through one name is not counted twice."""
        own = self.self_times()
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, parent, start, end, rnd) in enumerate(self.spans):
            row = out[rnd]
            row[name + ":self"] += own[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                row[name] += end - start
        for (name, rnd), value in self.counters.items():
            out[rnd][name] += value
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "round"],
                       "spans": self.spans,
                       "counters": [[n, r, v] for (n, r), v
                                    in sorted(self.counters.items())]}, fh)
