"""Outside-in span tracer for the benchmark's traced run.

The tracer never edits the package: :class:`Patches` swaps the public
callables of each layer at the names their callers bind (a class attribute
or a module global) for timing wrappers, and puts the originals back when
the run ends.  Spans live in compact in-memory arrays — name, start, end,
parent, operation id, self time — and are written out once, at the end.

Self time is computed when a span closes: its duration minus the summed
durations of the spans opened and closed inside it.  Calls on one thread
nest strictly, so child spans never overlap and the subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: sentinel parent index of a root span
NO_PARENT = -1


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans and named counters.

    A span opened while no other span is open starts a new *operation*: it
    and every span nested in it share one operation id.  The benchmark opens
    one root span per operation (a deploy, a stream, a live run), so an
    operation id groups everything one public call did.  ``phase`` labels
    the operations opened while it is set (``"setup"`` / ``"timed"``).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._self = array("d")
        #: open spans as [index, start, summed child duration]
        self._stack: List[list] = []
        self.op_phase: List[str] = []
        self.phase = "setup"
        self.counters: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------ spans
    def begin(self, name: str) -> None:
        """Open a span named ``name`` nested in the innermost open span."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self._name)
        stack = self._stack
        if stack:
            parent = stack[-1][0]
            op = self._op[parent]
        else:
            parent = NO_PARENT
            op = len(self.op_phase)
            self.op_phase.append(self.phase)
        start = self._clock()
        self._name.append(name_id)
        self._start.append(start)
        self._end.append(start)
        self._parent.append(parent)
        self._op.append(op)
        self._self.append(0.0)
        stack.append([index, start, 0.0])

    def end(self) -> float:
        """Close the innermost open span; returns its duration."""
        index, start, child = self._stack.pop()
        now = self._clock()
        duration = now - start
        self._end[index] = now
        self._self[index] = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Context manager form of :meth:`begin` / :meth:`end`."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def current(self) -> Optional[str]:
        """Name of the innermost open span, or ``None`` outside any span."""
        if not self._stack:
            return None
        return self.names[self._name[self._stack[-1][0]]]

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``key``."""
        self.counters[key] += amount

    # ------------------------------------------------------------------ wrappers
    def wrap(
        self,
        fn: Callable,
        name: str,
        after: Optional[Callable[["Tracer", tuple, dict, object], None]] = None,
    ) -> Callable:
        """Return ``fn`` timed as span ``name``; ``after`` sees each result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def wrap_iterator(
        self,
        fn: Callable,
        name: str,
        after_item: Optional[Callable[["Tracer", object], None]] = None,
    ) -> Callable:
        """Return generator function ``fn`` with every ``next()`` timed as ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    if after_item is not None:
                        after_item(tracer, item)
                    yield item

            return timed()

        return wrapper

    # ------------------------------------------------------------------ queries
    def aggregate(self, phase: Optional[str] = None) -> Dict[str, SpanStats]:
        """Per-name call count, total and self time (optionally one phase only)."""
        stats: Dict[str, SpanStats] = {}
        names = self.names
        for i in range(len(self._name)):
            if phase is not None and self.op_phase[self._op[i]] != phase:
                continue
            name = names[self._name[i]]
            entry = stats.get(name)
            if entry is None:
                entry = stats[name] = SpanStats()
            entry.calls += 1
            entry.total_s += self._end[i] - self._start[i]
            entry.self_s += self._self[i]
        return stats

    def nested_calls(self, name: str, parent_names: Tuple[str, ...]) -> int:
        """Number of ``name`` spans whose direct parent is one of ``parent_names``."""
        target = self._name_ids.get(name)
        parents = {self._name_ids[p] for p in parent_names if p in self._name_ids}
        if target is None or not parents:
            return 0
        return sum(
            1
            for i in range(len(self._name))
            if self._name[i] == target
            and self._parent[i] != NO_PARENT
            and self._name[self._parent[i]] in parents
        )

    def durations(self, name: str) -> List[float]:
        """Durations of every span named ``name``, in opening order."""
        target = self._name_ids.get(name)
        return [
            self._end[i] - self._start[i]
            for i in range(len(self._name))
            if self._name[i] == target
        ]

    def op_self_time(self, root: str, prefixes: Tuple[str, ...]) -> Tuple[float, float]:
        """Summed self time of spans matching ``prefixes`` inside ``root`` operations.

        Returns ``(matched self time, summed root span duration)`` over every
        operation whose root span is named ``root``.
        """
        root_id = self._name_ids.get(root)
        ops = {
            self._op[i]: self._end[i] - self._start[i]
            for i in range(len(self._name))
            if self._parent[i] == NO_PARENT and self._name[i] == root_id
        }
        matched = 0.0
        for i in range(len(self._name)):
            if self._op[i] in ops and self.names[self._name[i]].startswith(prefixes):
                matched += self._self[i]
        return matched, sum(ops.values())

    def write(self, path: str) -> None:
        """Write every span as JSON lines: a header, then one array per span."""
        with open(path, "w") as handle:
            header = {
                "names": self.names,
                "op_phase": self.op_phase,
                "fields": ["name", "start", "end", "parent", "op", "self"],
                "counters": dict(self.counters),
            }
            handle.write(json.dumps(header) + "\n")
            for i in range(len(self._name)):
                handle.write(
                    f"[{self._name[i]},{self._start[i]!r},{self._end[i]!r},"
                    f"{self._parent[i]},{self._op[i]},{self._self[i]!r}]\n"
                )


class Patches:
    """Attribute replacements that are undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(original)``, remembering the original."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Put every replaced attribute back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
