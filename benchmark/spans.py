"""In-memory span recorder for the benchmark's traced run.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the span that was open when this one started (-1 at top level) and ``op``
is the workload-op the span belongs to.  Spans stay in a list until the
run ends and are then written as JSONL; nothing is written while timing.

This recorder is the benchmark's own and deliberately not ``repro.obs``:
every layer is measured from outside, so the program's tracer stays off
and a change to it cannot move these numbers.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, OP = range(5)


class SpanRecorder:
    """Records nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None
        #: Seconds spent in the recorder's own bookkeeping, measured around
        #: every wrapped call: the traced run's cost, free of host noise.
        self.overhead_s = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A stage span around the benchmark's own direct calls."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` may
        read counts off the call once it has returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[START] = started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = ended = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            self.overhead_s += (clock() - entered) - (ended - started)
            return result

        return traced

    # ------------------------------------------------------------ analysis
    def totals(self, in_ops: bool) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``, over the
        spans recorded inside ops (``in_ops``) or during set-up.

        ``busy_s`` is the time some span of that name was open (a span
        nested under one of its own name is not counted twice); ``self_s``
        is busy time minus the part direct children cover.
        """
        child_cover = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_cover[span[PARENT]] += span[END] - span[START]
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if (span[OP] is not None) != in_ops:
                continue
            entry = out.setdefault(
                span[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["self_s"] += duration - child_cover[index]
            if not self._has_ancestor_named(index, span[NAME]):
                entry["busy_s"] += duration
        return out

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index, "name": name, "start": start,
                            "end": end, "parent": parent, "op": op,
                        }
                    )
                    + "\n"
                )
