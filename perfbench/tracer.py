"""An in-memory span tracer that wraps the program's public calls from outside.

The program itself carries no tracing code: :meth:`Tracer.wrap` swaps a
public attribute (a class method, a module-level function or one object's
method) for a timing shim for the lifetime of a :meth:`Tracer.installed`
block, and restores the original on exit.  Spans stay in memory and are
written out once, when the run ends (:meth:`Tracer.write_jsonl`).

A span's *self time* is its duration minus the part of its interval that its
child spans cover; the benchmark attributes self time to the layer named by
the span's prefix (``serving.serve_many`` → ``serving``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional


@dataclass
class Span:
    """One timed call: name, interval, causing span and request/burst id."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    tag: Optional[str]
    #: Queries the call carried (batch size for batched entry points).
    size: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans from a single thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: Request or burst id stamped on every span opened while it is set.
        self.tag: Optional[str] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._first_seen: set = set()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def open(self, name: str, size: int = 1) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, self.clock(), math.nan, parent,
                               self.tag, size))
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} was open")

    # ------------------------------------------------------------------ #
    # wrapping public calls
    # ------------------------------------------------------------------ #
    def wrap(self, owner: Any, attr: str, name: Optional[str],
             size_of: Optional[Callable[..., int]] = None,
             first_only: bool = False,
             on_call: Optional[Callable[[tuple, Any, float], None]] = None
             ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a class (all instances), a module (a function looked up
        through it) or a single object.  ``size_of(*args, **kwargs)`` gives
        the number of queries a call carries.  With ``first_only`` only the
        first call per receiver (``args[0]``) over the tracer's lifetime is
        recorded — used for lazily built state such as a graph's compiled
        adjacency.  ``on_call(args, answer, seconds)`` receives every call's
        positional arguments, answer and duration; with ``name=None`` no
        span is recorded, so the wrapper only feeds ``on_call``.
        """
        own = vars(owner).get(attr)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if first_only:
                receiver = (name, id(args[0]))
                if receiver in tracer._first_seen:
                    return original(*args, **kwargs)
                tracer._first_seen.add(receiver)
            sid = None
            if name is not None:
                size = size_of(*args, **kwargs) if size_of is not None else 1
                sid = tracer.open(name, size)
            try:
                start = tracer.clock()
                answer = original(*args, **kwargs)
                seconds = tracer.clock() - start
            finally:
                if sid is not None:
                    tracer.close(sid)
            if on_call is not None:
                on_call(args, answer, seconds)
            return answer

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, own))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator["Tracer"]:
        """Run ``install(self)`` (a series of :meth:`wrap` calls), then undo it."""
        try:
            install(self)
            yield self
        finally:
            self.unwrap_all()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the union of its children's intervals."""
        kids = self.children()
        result: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(kids.get(span.sid, ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[span.sid] = span.duration - covered
        return result

    def select(self, prefix: str) -> List[Span]:
        """Spans whose name equals ``prefix`` or starts with ``prefix + '.'``."""
        return [span for span in self.spans
                if span.name == prefix or span.name.startswith(prefix + ".")]

    def outermost(self, prefix: str) -> List[Span]:
        """Matching spans that have no matching ancestor."""
        chosen = {span.sid for span in self.select(prefix)}
        return [span for span in self.spans
                if span.sid in chosen and not self._has_ancestor_in(span, chosen)]

    def total(self, prefix: str) -> float:
        """Summed duration of the outermost matching spans (no double count)."""
        return sum(span.duration for span in self.outermost(prefix))

    def self_total(self, prefix: str) -> float:
        selves = self.self_times()
        return sum(selves[span.sid] for span in self.select(prefix))

    def _has_ancestor_in(self, span: Span, chosen: set) -> bool:
        parent = span.parent
        while parent is not None:
            if parent in chosen:
                return True
            parent = self.spans[parent].parent
        return False

    def invariant_violations(self, tolerance: float = 1e-9) -> List[str]:
        """Nesting and self-time checks; an empty list means the trace is sound."""
        problems: List[str] = []
        for span in self.spans:
            if not span.end >= span.start:
                problems.append(f"span {span.sid} {span.name} ends before it starts")
            if span.parent is not None:
                parent = self.spans[span.parent]
                if (span.start < parent.start - tolerance
                        or span.end > parent.end + tolerance):
                    problems.append(f"span {span.sid} {span.name} escapes its "
                                    f"parent {parent.sid} {parent.name}")
        for sid, own in self.self_times().items():
            duration = self.spans[sid].duration
            if own < -tolerance or own > duration + tolerance:
                problems.append(f"span {sid} self time {own} outside "
                                f"[0, {duration}]")
        return problems

    def write_jsonl(self, path, extra: Iterable[Dict] = ()) -> None:
        """One JSON object per span (times relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for record in extra:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            for span in self.spans:
                row = asdict(span)
                row["start"] -= origin
                row["end"] -= origin
                handle.write(json.dumps(row, sort_keys=True) + "\n")
