"""Span tracer: nested timing events flushed to a JSONL file.

Off by default.  Three ways to switch it on, in precedence order:

* programmatically — ``obs.configure(trace_path="t.jsonl")``;
* per process tree — ``REPRO_TRACE=t.jsonl python -m repro ...`` (the
  unified CLI's ``--trace`` flag sets exactly this variable, so worker
  subprocesses spawned by the remote backend inherit it and append their
  spans to the same file);
* per call site never: instrumented code calls :func:`span`
  unconditionally and the disabled path is a shared no-op context
  manager, cheap enough to sit inside the fluid event loop.

Each completed span emits one JSON line::

    {"ev": "span", "name": "alloc.solve", "span": "1a2b-3", "parent":
     "1a2b-1", "ts": 0.123, "dur": 0.004, "pid": 6698, "tid": 1234,
     "worker": "w0", "attrs": {"mode": "vector", "links": 96}}

``ts`` is a *monotonic* start time (``time.perf_counter``), meaningful
for ordering and deltas within one process only; ``span``/``parent``
ids are unique per process and reconstruct the nesting; ``worker`` is
the ``REPRO_WORKER_ID`` env var when the process is a sweep worker.
The file is opened in append mode and flushed per line so concurrent
writer processes interleave whole lines and a crash loses nothing.

Tracing is pure observation: no instrumented code path branches on it,
so traced results are bit-identical to untraced ones (asserted by
``tests/test_obs.py`` and the CI ``obs`` job).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional

__all__ = [
    "configure",
    "enabled",
    "span",
    "point",
    "trace_path",
]

#: Environment variable naming the trace file; checked once, lazily.
TRACE_ENV = "REPRO_TRACE"
#: Optional worker identity stamped on every event.
WORKER_ID_ENV = "REPRO_WORKER_ID"


class _TracerState:
    def __init__(self) -> None:
        self.enabled = False
        self.path: Optional[str] = None
        self.file = None
        self.lock = threading.Lock()
        self.counter = 0
        self.env_checked = False
        self.local = threading.local()


_state = _TracerState()


def _check_env() -> None:
    # Lazy so `import repro` alone never touches the filesystem; a worker
    # subprocess that inherited REPRO_TRACE starts tracing on first use.
    if _state.env_checked:
        return
    _state.env_checked = True
    path = os.environ.get(TRACE_ENV)
    if path and not _state.enabled:
        _open(path)


def _open(path: str) -> None:
    _state.file = open(path, "a", encoding="utf-8")
    _state.path = path
    _state.enabled = True


def configure(trace_path: Optional[str] = None, *, export_env: bool = True) -> None:
    """Enable (path given) or disable (``None``) tracing for this process.

    With ``export_env`` (the default), the path is also written to the
    ``REPRO_TRACE`` environment variable so subprocesses spawned later
    (sweep workers, the remote fabric) trace into the same file.
    """
    with _state.lock:
        if _state.file is not None:
            _state.file.close()
            _state.file = None
        _state.enabled = False
        _state.path = None
        _state.env_checked = True
        if trace_path:
            _open(str(trace_path))
            if export_env:
                os.environ[TRACE_ENV] = str(trace_path)
        elif export_env:
            os.environ.pop(TRACE_ENV, None)


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    if not _state.env_checked:
        _check_env()
    return _state.enabled


def trace_path() -> Optional[str]:
    """The active trace file path, or ``None`` when disabled."""
    if not _state.env_checked:
        _check_env()
    return _state.path


class _NoopSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        """Attribute updates are dropped while tracing is off."""


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "span_id", "parent_id", "start")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = ""
        self.parent_id: Optional[str] = None
        self.start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (e.g. a result size)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        _state.counter += 1
        self.span_id = f"{os.getpid():x}-{_state.counter}"
        stack = getattr(_state.local, "stack", None)
        if stack is None:
            stack = _state.local.stack = []
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self.start
        stack = _state.local.stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        event = {
            "ev": "span",
            "name": self.name,
            "span": self.span_id,
            "parent": self.parent_id,
            "ts": self.start,
            "dur": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        worker = os.environ.get(WORKER_ID_ENV)
        if worker:
            event["worker"] = worker
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["attrs"] = self.attrs
        _emit(event)
        return False


def span(name: str, **attrs):
    """Context manager timing ``name``; a shared no-op when tracing is off.

    Attributes must be JSON-serialisable.  Nested ``span`` calls on the
    same thread link via ``parent`` ids.
    """
    if not _state.enabled:
        if _state.env_checked:
            return _NOOP
        _check_env()
        if not _state.enabled:
            return _NOOP
    return _Span(name, attrs)


def point(name: str, **attrs) -> None:
    """Record an instantaneous event (a lease death, a recovery action)."""
    if not _state.enabled:
        if _state.env_checked:
            return
        _check_env()
        if not _state.enabled:
            return
    stack = getattr(_state.local, "stack", None)
    event = {
        "ev": "point",
        "name": name,
        "parent": stack[-1] if stack else None,
        "ts": time.perf_counter(),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    worker = os.environ.get(WORKER_ID_ENV)
    if worker:
        event["worker"] = worker
    if attrs:
        event["attrs"] = attrs
    _emit(event)


def _emit(event: Dict[str, object]) -> None:
    line = json.dumps(event, separators=(",", ":"), sort_keys=True, default=str)
    with _state.lock:
        handle = _state.file
        if handle is None:
            return
        handle.write(line + "\n")
        handle.flush()
