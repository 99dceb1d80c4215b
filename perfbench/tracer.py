"""In-memory span tracer for the benchmark, stdlib only.

A traced name is patched in the namespace of the module that calls it
(``search.certify``, not ``verify.certify``), because a module that did
``from .verify import certify`` holds its own binding and never looks the
name up in ``verify`` again.  ``patched`` restores the original binding on
exit, also when the traced code raises.

The benchmark is single-threaded, so spans nest: a span's parent is the
innermost span open when it starts, and a span's self time is its duration
minus the durations of its children, which never overlap each other.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


@contextmanager
def patched(module, attr, replacement):
    """Bind module.attr to replacement for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    """Collects (id, parent id, name, start, end) spans and named counts."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._next_id = 0

    def _enter(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        return sid, parent, time.perf_counter()

    def _exit(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._open.pop()
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        sid, parent, start = self._enter()
        try:
            yield
        finally:
            self._exit(name, sid, parent, start)

    def traced(self, name: str, fn, observe=None):
        """Wrap fn in a span; an exception is counted as `<name>.failures`.

        observe(counts, args, result), when given, runs after the span
        closes, so its cost lands in the caller's self time.
        """

        def wrapper(*args, **kwargs):
            sid, parent, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".failures"] += 1
                raise
            finally:
                self._exit(name, sid, parent, start)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def traced_generator(self, name: str, fn):
        """Wrap a generator function: one span per step, items counted."""

        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                sid, parent, start = self._enter()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._exit(name, sid, parent, start)
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, busy seconds, self seconds)."""
        covered: Counter[int] = Counter()
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = {}
        for sid, _, name, start, end in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered[sid]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, times relative to the first start."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(
                    f"{sid}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n"
                )
