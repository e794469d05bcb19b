"""Span recording around calls into the program's layers.

The traced run replaces selected public functions and methods with thin
wrappers that record one span per call: name, start, end and the span
that was open when the call began (its parent).  Spans live in flat
in-memory arrays while the run goes and are written out once, at the end.
A layer's *self time* is its spans' total duration minus the time covered
by their child spans.

Nothing inside ``src/`` changes: the wrappers are installed on the classes
and modules the benchmark drives, and :meth:`SpanRecorder.restore` puts
the originals back.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, List, Tuple


class SpanRecorder:
    """Flat, append-only span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._originals: List[Tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper around ``fn`` recording one span named ``name`` per call."""
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` (function, method or classmethod)."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._originals.append((owner, attribute, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(self.wrap(raw.__func__, name)))
        else:
            setattr(owner, attribute, self.wrap(raw, name))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        count = len(self.start)
        child = [0.0] * count
        parent, start, end = self.parent, self.start, self.end
        for k in range(count):
            p = parent[k]
            if p >= 0:
                child[p] += end[k] - start[k]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for k in range(count):
            row = out[self.names[self.name_of[k]]]
            duration = end[k] - start[k]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[k]
        return out

    def durations(self, name: str) -> List[float]:
        """Every recorded duration of spans named ``name``, in seconds."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            self.end[k] - self.start[k]
            for k in range(len(self.start))
            if self.name_of[k] == nid
        ]

    def write(self, path: str) -> None:
        """Dump every span as ``name<TAB>start<TAB>end<TAB>parent`` lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\n")
            names = self.names
            for k in range(len(self.start)):
                handle.write(
                    f"{names[self.name_of[k]]}\t{self.start[k]:.9f}\t"
                    f"{self.end[k]:.9f}\t{self.parent[k]}\n"
                )
