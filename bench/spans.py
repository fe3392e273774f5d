"""In-memory spans around calls into ``wtfc``, and the arithmetic on them.

The benchmark wraps the package's functions from outside: each wrapper
replaces a name in the module that *makes* the call, since ``wtfc.cli`` and
``wtfc.sweep`` import functions by name and ``wtfc.detector`` looks its
helpers up as module globals. Nothing under ``src/`` is edited.

Spans nest per thread through a thread-local stack. ``ThreadPoolExecutor``
carries no context into its workers, so a span that opens on a worker
thread with nothing open is given, after the run, the innermost span of the
submitting thread whose interval contains it.
"""

from __future__ import annotations

import bisect
import functools
import re
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped module attributes until uninstalled."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        """Replace ``module.attr`` with a timed wrapper recording span ``name``.

        ``describe(args, kwargs, result)`` may return attributes to keep on
        the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                span = Span(name, 0.0, parent=stack[-1] if stack else None,
                            thread=threading.get_ident())
                self.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def attribute_parents(spans: list[Span]) -> None:
    """Give each parentless worker span the innermost submitting-thread span containing it.

    The submitting thread is the one that opened the first span. Spans
    opened in pool workers have no parent on their own thread; their cause
    is the call that was open on the submitting thread at the time. Worker
    spans are never parents of each other's roots, since two workers run
    side by side without one causing the other.
    """
    if not spans:
        return
    submitter = spans[0].thread
    candidates = sorted(
        (span.start, index) for index, span in enumerate(spans) if span.thread == submitter
    )
    starts = [start for start, _ in candidates]
    for span in spans:
        if span.parent is not None or span.thread == submitter:
            continue
        # Spans open on one thread nest, so the latest-starting span that
        # contains this one is the innermost.
        for position in range(bisect.bisect_right(starts, span.start) - 1, -1, -1):
            index = candidates[position][1]
            if spans[index].end >= span.end:
                span.parent = index
                break


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [span.duration - _covered(children.get(i, [])) for i, span in enumerate(spans)]


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$")


def parse_importtime(text: str) -> list[tuple[str, int, float, float]]:
    """Entries of ``python -X importtime`` output: (module, depth, self_s, cumulative_s)."""
    entries = []
    for line in text.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            self_us, cumulative_us, indent, module = match.groups()
            depth = (len(indent) - 1) // 2
            entries.append((module, depth, int(self_us) * 1e-6, int(cumulative_us) * 1e-6))
    return entries


def _in_family(module: str, family: str) -> bool:
    return module == family or module.startswith(family + ".")


def import_costs(entries: list[tuple[str, int, float, float]], package: str) -> dict:
    """Import cost split from parsed importtime entries.

    ``total`` is the cumulative time of ``package`` itself. ``scipy`` and
    ``numpy`` each sum the cumulative time of the family's imports that are
    not nested in an import of either family, so numpy modules that scipy
    pulls in count towards scipy only and the two never overlap. ``self``
    sums the self time of the package's own modules.
    """
    families = ("scipy", "numpy")
    # An entry is printed when its import finishes, so its parent is the
    # next later entry at a smaller depth. Walking backwards keeps the chain
    # of open ancestors on a stack.
    costs = {family: 0.0 for family in families}
    ancestors: list[tuple[int, str]] = []
    for module, depth, _, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        nested = any(_in_family(name, f) for _, name in ancestors for f in families)
        for family in families:
            if _in_family(module, family) and not nested:
                costs[family] += cumulative
        ancestors.append((depth, module))
    return {
        "total": sum(c for module, _, _, c in entries if module == package),
        **costs,
        "self": sum(s for module, _, s, _ in entries if _in_family(module, package)),
    }
