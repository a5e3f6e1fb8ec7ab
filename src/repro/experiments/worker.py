"""Long-running HTTP sweep worker: one machine of the remote fabric.

``python -m repro.experiments.worker --serve --port N`` starts a thin HTTP
server that executes chunk *leases* for the ``remote`` execution backend
— the one way a trial leaves the scheduler's process.  This module owns
the wire format (:data:`WORKER_SCHEMA`), both ends of it, and the
test-only chaos hook; it imports nothing from
:mod:`repro.experiments.backends`.

* ``POST /lease`` — body ``{"schema": ..., "lease_id": ..., "items":
  [...]}``; the response streams JSON Lines: a schema header, then one
  ``{"index": local_index, "record": {...}}`` line per completed trial
  (flushed immediately, so a dead worker leaves a salvageable prefix on
  the scheduler's side of the socket), then a ``{"done": true}`` trailer.
  A ``fail_fast`` trial that raises ends the lease with one
  ``{"index": local_index, "error": "<Type>: <message>"}`` line instead.
* ``GET /health`` — the scheduler's heartbeat probe; answered from a
  fresh thread even while a lease executes (or hangs), so it
  distinguishes *machine dead* from *lease stuck*.
* ``POST /shutdown`` — stop serving (for scripted teardown).

With ``--cache-dir`` the worker also stores every completed record into a
:class:`~repro.experiments.cache.ResultStore` at that path — pointed at a
network mount shared by all machines, N workers populate one
content-addressed store (each writes its own immutable packs, renamed into
place, so that is safe), and flush observed per-cell costs the scheduler's
cost-aware chunker feeds on.  A record is streamed before it is stored: a
store that cannot be written costs a cache cell, never the lease.

Endpoints come in two spellings.  ``http://host:port`` addresses a worker
that is already running; ``ssh://[user@]host:port`` is a thin launcher —
ssh starts the same ``--serve`` entry point on the remote host, then all
traffic flows over plain HTTP to ``host:port``.  Tests and CI spawn
several workers on localhost ports via :func:`spawn_local_workers`; no
ssh is required anywhere in the loop.
"""

from __future__ import annotations

import argparse
import http.client
import json
import logging
import os
import select
import subprocess
import sys
import threading
import time
import urllib.parse
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ExperimentError
from repro.experiments.cache import ResultStore
from repro.experiments.trials import WorkItem, run_trials, trial_groups

logger = logging.getLogger("repro.experiments.worker")

#: Wire-format schema of a lease stream.  v2 replaced the single output JSON
#: document with JSON Lines (header, then one record per line, flushed as
#: produced) so a killed worker leaves a salvageable prefix.
WORKER_SCHEMA = "repro.experiments/worker/v2"

#: Port an ``ssh://`` endpoint's worker listens on when the spelling names
#: none.  (HTTP endpoints on localhost pools always carry explicit ports.)
DEFAULT_WORKER_PORT = 7463

#: Seconds a ``POST /lease`` has to deliver the body its ``Content-Length``
#: announced.  Lease bodies are a few kilobytes sent in one piece; a length
#: larger than the body would otherwise park the handler thread until the
#: client hangs up.
LEASE_BODY_DEADLINE_S = 10.0

#: Environment variables of the worker chaos hook (test-only): when both
#: are set, leases that win the marker-file race in
#: ``REPRO_WORKER_CHAOS_DIR`` misbehave per ``REPRO_WORKER_CHAOS_MODE``
#: (``crash``: exit hard after the first record; ``hang``: sleep forever
#: after the first record; ``slow``: drag every subsequent trial by
#: :data:`CHAOS_SLOW_S`).  The mode may be a comma-separated list — e.g.
#: ``crash,hang`` arms one lease per mode, in order — and each mode fires
#: exactly once per chaos dir, so chaos tests are deterministic in *what*
#: is lost even though process scheduling is not.
CHAOS_DIR_ENV = "REPRO_WORKER_CHAOS_DIR"
CHAOS_MODE_ENV = "REPRO_WORKER_CHAOS_MODE"

#: Exit status of a chaos-crashed worker (distinct from argparse's 2).
CHAOS_EXIT_STATUS = 17

#: Per-trial drag of a chaos-slowed worker (straggler injection).
CHAOS_SLOW_S = 0.4

_CHAOS_KINDS = ("crash", "hang", "slow")


def _arm_chaos() -> Optional[str]:
    """Decide whether *this* lease misbehaves (see the chaos env docs).

    Each marker file is created atomically, so across however many workers
    share the chaos dir exactly one lease arms itself *per configured mode*
    — ``crash,hang`` breaks two distinct leases; the rest (and every
    retry-wave lease) run clean.  The first mode's marker is named
    ``chaos-fired`` so callers can assert it fired.
    """
    chaos_dir = os.environ.get(CHAOS_DIR_ENV)
    spec = os.environ.get(CHAOS_MODE_ENV) or ""
    modes = [mode.strip() for mode in spec.split(",") if mode.strip()]
    if not chaos_dir or not modes or any(m not in _CHAOS_KINDS for m in modes):
        return None
    for k, mode in enumerate(modes):
        marker = "chaos-fired" if k == 0 else f"chaos-fired-{k}"
        try:
            fd = os.open(
                os.path.join(chaos_dir, marker),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
            os.close(fd)
        except (FileExistsError, OSError):
            continue
        return mode
    return None


# ---------------------------------------------------------------------------
# Endpoints
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Endpoint:
    """A parsed worker endpoint (see the module docstring for spellings)."""

    scheme: str
    host: str
    port: int
    user: Optional[str] = None


def parse_endpoint(spec: str) -> Endpoint:
    """Parse ``http://host:port`` / ``ssh://[user@]host[:port]`` / ``host:port``.

    A bare ``host:port`` is read as ``http://``.  Raises
    :class:`ExperimentError` on unknown schemes, missing hosts, bad ports,
    or decorations (paths, queries) the fabric has no meaning for.
    """
    text = str(spec).strip()
    if not text:
        raise ExperimentError("empty worker endpoint")
    if "://" not in text:
        text = "http://" + text
    parsed = urllib.parse.urlsplit(text)
    if parsed.scheme not in ("http", "ssh"):
        raise ExperimentError(
            f"unsupported endpoint scheme {parsed.scheme!r} in {spec!r}; "
            "use http://host:port or ssh://[user@]host[:port]"
        )
    if not parsed.hostname:
        raise ExperimentError(f"endpoint {spec!r} names no host")
    if parsed.path or parsed.query or parsed.fragment:
        raise ExperimentError(
            f"endpoint {spec!r} must be scheme://[user@]host[:port], "
            "nothing after the port"
        )
    if parsed.username and parsed.scheme != "ssh":
        raise ExperimentError(
            f"endpoint {spec!r}: user@ only makes sense with ssh://"
        )
    try:
        port = parsed.port
    except ValueError as exc:
        raise ExperimentError(f"bad port in endpoint {spec!r}: {exc}") from exc
    return Endpoint(
        scheme=parsed.scheme,
        host=parsed.hostname,
        port=port if port is not None else DEFAULT_WORKER_PORT,
        user=parsed.username,
    )


def ssh_launch_command(
    endpoint: Endpoint,
    python: str = "python3",
    cache_dir: Optional[str] = None,
) -> List[str]:
    """The ssh command line that launches a worker for ``endpoint``.

    Thin by design: ssh only starts ``python -m repro.experiments.worker
    --serve`` on the remote host (which must have ``repro`` importable and
    the shared store mounted at ``cache_dir``); every subsequent byte flows
    over plain HTTP to ``host:port``.
    """
    if endpoint.scheme != "ssh":
        raise ExperimentError(
            f"ssh launch asked for a {endpoint.scheme!r} endpoint"
        )
    target = f"{endpoint.user}@{endpoint.host}" if endpoint.user else endpoint.host
    remote = [
        python, "-m", "repro.experiments.worker",
        "--serve", "--host", "0.0.0.0", "--port", str(endpoint.port),
    ]
    if cache_dir:
        remote += ["--cache-dir", str(cache_dir)]
    return ["ssh", target, *remote]


def launch_ssh_worker(
    endpoint: Endpoint,
    python: str = "python3",
    cache_dir: Optional[str] = None,
) -> subprocess.Popen:
    """Launch a worker over ssh (see :func:`ssh_launch_command`)."""
    return subprocess.Popen(
        ssh_launch_command(endpoint, python=python, cache_dir=cache_dir)
    )


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------
class _WorkerState:
    """Thread-shared counters plus the optional shared result store."""

    def __init__(self, store: Optional[ResultStore] = None):
        self.store = store
        self.lock = threading.Lock()
        self.started_at = time.monotonic()
        self.active_leases = 0
        self.leases_done = 0
        self.trials_done = 0
        # Progress of the most recently started lease, for live /health:
        # the scheduler (or a human) can watch a chunk advance mid-lease.
        self.current_lease_id: Optional[str] = None
        self.current_lease_total = 0
        self.current_lease_done = 0

    def lease_started(self, lease_id: str, total: int) -> None:
        with self.lock:
            self.active_leases += 1
            self.current_lease_id = lease_id
            self.current_lease_total = total
            self.current_lease_done = 0

    def lease_done(self, lease_id: str) -> None:
        with self.lock:
            self.active_leases -= 1
            self.leases_done += 1
            if self.current_lease_id == lease_id:
                self.current_lease_id = None
                self.current_lease_total = 0
                self.current_lease_done = 0

    def record_done(self, item: WorkItem, record) -> None:
        """Count a streamed record and write it to the shared store.

        Called after the record line went out: a store that cannot be
        written (the store logs and counts it) costs the fabric a cache
        cell, never the lease.
        """
        with self.lock:
            self.trials_done += 1
            self.current_lease_done += 1
        if self.store is None:
            return
        key = self.store.key_for(
            item.scenario, item.placer, item.trial, item.seed,
            params=dict(item.params),
            placer_params=dict(item.placer_params),
        )
        try:
            self.store.put(key, record)
            # Flushed per record, not per lease: even a worker that dies
            # mid-lease leaves its observed costs for the next sweep's chunker.
            self.store.flush_costs()
        except OSError:
            pass

    def snapshot(self) -> Dict[str, object]:
        with self.lock:
            return {
                "schema": WORKER_SCHEMA,
                "status": "ok",
                "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "busy": self.active_leases > 0,
                "active_leases": self.active_leases,
                "leases_done": self.leases_done,
                "trials_done": self.trials_done,
                "current_lease": (
                    {
                        "lease_id": self.current_lease_id,
                        "trials_done": self.current_lease_done,
                        "trials_total": self.current_lease_total,
                    }
                    if self.current_lease_id is not None
                    else None
                ),
            }


class _LeaseHandler(BaseHTTPRequestHandler):
    server_version = "repro-worker"
    protocol_version = "HTTP/1.0"  # connection-close delimits the stream

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the scheduler owns reporting; workers stay quiet

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/health":
            self._reply(200, self.server.worker_state.snapshot())
            return
        if self.path == "/metrics":
            # Prometheus text exposition of this worker process's live
            # obs registry; answered from a fresh thread even mid-lease,
            # like /health, so scrapes see trial counters advance.
            body = obs.metrics.prometheus_text().encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/shutdown":
            self._reply(200, {"status": "shutting down"})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        if self.path != "/lease":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:  # rfile.read(-1) would wait for a close forever
                raise ValueError(f"negative Content-Length {length}")
            payload = json.loads(self._read_body(length))
            if not isinstance(payload, dict):
                raise ValueError("the body must be a JSON object")
            if payload.get("schema") != WORKER_SCHEMA:
                raise ExperimentError(
                    f"unexpected lease schema {payload.get('schema')!r}"
                )
            lease_id = str(payload.get("lease_id", "lease"))
            items = [WorkItem.from_json_dict(d) for d in payload.get("items", [])]
        # RecursionError: JSON nested past the parser's stack.
        except (ValueError, TypeError, KeyError, RecursionError, ExperimentError) as exc:
            self._reply(400, {"error": f"bad lease request: {exc}"})
            return
        self._stream_lease(lease_id, items)

    def _read_body(self, length: int) -> bytes:
        """``length`` bytes of request body; ``ValueError`` when they have
        not all arrived :data:`LEASE_BODY_DEADLINE_S` from now.  The socket
        is blocking again afterwards: lease streams legitimately run long."""
        deadline = time.monotonic() + LEASE_BODY_DEADLINE_S
        chunks: List[bytes] = []
        try:
            while length:
                self.connection.settimeout(max(deadline - time.monotonic(), 1e-3))
                chunk = self.rfile.read1(length)
                if not chunk:
                    break  # closed early: the JSON parse names what is left
                chunks.append(chunk)
                length -= len(chunk)
        except TimeoutError:
            raise ValueError(
                f"{length} byte(s) of the announced Content-Length still "
                f"missing after {LEASE_BODY_DEADLINE_S:g} s"
            ) from None
        finally:
            self.connection.settimeout(None)
        return b"".join(chunks)

    def _reply(self, status: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _stream_lease(self, lease_id: str, items: Sequence[WorkItem]) -> None:
        """Execute the leased chunk, streaming one flushed line per trial.

        The chaos hook fires here, per lease: ``crash`` exits the whole
        process after the first record (the scheduler sees the connection
        die mid-chunk), ``hang`` stops streaming without dying (the
        scheduler's heartbeat deadline must catch it), ``slow`` drags
        every subsequent trial (straggler).

        A trial only raises under ``fail_fast`` (keep-going captures the
        error into its record).  The trial is deterministic and would
        raise again anywhere, so the lease ends with one error line the
        scheduler stops the sweep on — not a dropped connection it would
        mistake for a dead worker and retry.
        """
        state = self.server.worker_state
        chaos_mode = _arm_chaos()
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.end_headers()
        state.lease_started(lease_id, len(items))
        try:
            self._send_line(
                {"schema": WORKER_SCHEMA, "lease_id": lease_id, "pid": os.getpid()}
            )
            # ``run_trials`` yields in ``trial_groups`` order, so the next
            # position of that order is the trial that is running.
            order = [i for group in trial_groups(items) for i in group]
            records = run_trials(items)
            for local_index in order:
                try:
                    _, record = next(records)
                except Exception as exc:  # noqa: BLE001 - reported, see above
                    logger.exception("lease %s: trial %d raised", lease_id, local_index)
                    error = f"{type(exc).__name__}: {exc}"
                    self._send_line({"index": local_index, "error": error})
                    return
                self._send_line({"index": local_index, "record": asdict(record)})
                state.record_done(items[local_index], record)
                if chaos_mode == "crash":
                    os._exit(CHAOS_EXIT_STATUS)
                elif chaos_mode == "hang":
                    time.sleep(3600)
                elif chaos_mode == "slow":
                    time.sleep(CHAOS_SLOW_S)
            self._send_line({"done": True, "lease_id": lease_id, "completed": len(items)})
        except (BrokenPipeError, ConnectionResetError):
            pass  # the scheduler revoked the lease; stop burning its trials
        finally:
            state.lease_done(lease_id)

    def _send_line(self, obj: Dict[str, object]) -> None:
        self.wfile.write((json.dumps(obj) + "\n").encode())
        self.wfile.flush()


class WorkerServer(ThreadingHTTPServer):
    """One worker: a threading HTTP server wrapping a :class:`_WorkerState`.

    Threading matters: ``/health`` must answer from a fresh thread while a
    lease executes (or hangs), or the scheduler could not tell a stuck
    lease from a dead machine.
    """

    daemon_threads = True  # a hung lease thread must not block exit
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], state: _WorkerState):
        super().__init__(address, _LeaseHandler)
        self.worker_state = state


# ---------------------------------------------------------------------------
# Client side
# ---------------------------------------------------------------------------
class LeaseStream:
    """Reader of one streaming ``/lease`` response.

    :meth:`poll` hands back whatever complete JSON lines arrived within a
    short timeout, so the scheduler's reader loop can keep checking its
    cancel flag without losing bytes: partial lines stay buffered across
    polls.  That is also the salvage rule: a garbled line is skipped and
    its neighbours stand, and a tail cut off mid-write at connection end
    is dropped — a dead worker's stream yields every record it finished.
    A header naming another schema raises :class:`ExperimentError`.
    """

    def __init__(self, conn: http.client.HTTPConnection, resp, sock):
        self._conn = conn
        self._resp = resp
        # ``conn.sock`` is None once getresponse() hands an HTTP/1.0
        # connection to the response, so the socket is captured before
        # that.  All body reads go through ``select`` + ``recv`` on this
        # raw socket: reading ``resp.fp`` with timeouts is a trap — one
        # timeout poisons SocketIO (``cannot read from timed out object``)
        # and every read after it looks like EOF.
        self._sock = sock
        self._buf = b""
        self.eof = False
        # http.client reads headers through a buffered file and may have
        # over-read the start of the body into that buffer; steal it once
        # (non-blocking) before abandoning ``resp.fp`` for the raw socket.
        self._sock.settimeout(0)
        try:
            while True:
                head = resp.fp.read1(65536)
                if not head:
                    break
                self._buf += head
        except (BlockingIOError, InterruptedError, ValueError, OSError):
            pass

    def poll(self, timeout_s: float) -> List[dict]:
        """Parsed objects that arrived within ``timeout_s`` (maybe none)."""
        if self.eof:
            return []
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout_s)
        except (OSError, ValueError):
            ready = []  # socket already torn down: salvage the prefix
        if not ready and not self._buf:
            return []
        chunk = b""
        if ready:
            try:
                chunk = self._sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return []  # spurious wakeup
            except OSError:
                chunk = b""  # reset mid-stream: same as EOF
        if not chunk and not self._buf:
            self.eof = True
            return []
        if not chunk and ready:
            self.eof = True
        self._buf += chunk
        out: List[dict] = []
        while b"\n" in self._buf:
            line, self._buf = self._buf.split(b"\n", 1)
            try:
                data = json.loads(line)
            except (ValueError, RecursionError):
                continue  # garbled line: everything around it stands
            if not isinstance(data, dict):
                continue
            if data.get("schema", WORKER_SCHEMA) != WORKER_SCHEMA:
                raise ExperimentError(
                    f"worker speaks {data['schema']!r}, not {WORKER_SCHEMA!r}"
                )
            out.append(data)
        return out

    def close(self) -> None:
        for target in (self._resp, self._conn):
            try:
                target.close()
            except OSError:
                pass


class WorkerClient:
    """HTTP client for one worker endpoint (health probes, lease streams)."""

    def __init__(self, host: str, port: int, connect_timeout_s: float = 10.0):
        self.host = host
        self.port = int(port)
        self.connect_timeout_s = connect_timeout_s

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def open_lease(self, lease_id: str, items: Sequence[dict]) -> LeaseStream:
        """POST a chunk lease; returns the record stream.

        Raises :class:`ExperimentError` (worker refused) or ``OSError``
        (unreachable); the scheduler turns both into a failed lease.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.connect_timeout_s
        )
        body = json.dumps(
            {"schema": WORKER_SCHEMA, "lease_id": lease_id, "items": list(items)}
        ).encode()
        conn.request(
            "POST", "/lease", body=body,
            headers={"Content-Type": "application/json"},
        )
        sock = conn.sock  # getresponse() may null this out (HTTP/1.0 close)
        resp = conn.getresponse()
        if resp.status != 200:
            detail = resp.read(500)
            conn.close()
            raise ExperimentError(
                f"worker {self.address} refused lease {lease_id}: "
                f"HTTP {resp.status} {detail!r}"
            )
        return LeaseStream(conn, resp, sock)

    def health(self, timeout_s: float = 2.0) -> Optional[dict]:
        """The worker's ``/health`` snapshot, or ``None`` if unreachable."""
        try:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s
            )
            try:
                conn.request("GET", "/health")
                resp = conn.getresponse()
                data = resp.read()
            finally:
                conn.close()
            if resp.status != 200:
                return None
            payload = json.loads(data)
            return payload if isinstance(payload, dict) else None
        except (OSError, ValueError):
            return None

    def shutdown(self, timeout_s: float = 2.0) -> bool:
        """Ask the worker to stop serving; True if it acknowledged."""
        try:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout_s
            )
            try:
                conn.request("POST", "/shutdown")
                resp = conn.getresponse()
                resp.read()
            finally:
                conn.close()
            return resp.status == 200
        except OSError:
            return False


# ---------------------------------------------------------------------------
# Local pools (tests, CI — and the backend's no-endpoint default)
# ---------------------------------------------------------------------------
class LocalWorkerPool:
    """A handful of localhost worker processes with their addresses."""

    def __init__(
        self,
        procs: List[subprocess.Popen],
        addresses: List[Tuple[str, int]],
        cache_dir: Optional[str] = None,
    ):
        self.procs = procs
        self.addresses = addresses
        self.cache_dir = cache_dir  # what a respawned worker is started with

    def kill(self, index: int) -> None:
        """Hard-kill one worker (a no-op on one that already exited)."""
        proc = self.procs[index]
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def clients(self) -> List[WorkerClient]:
        """One fresh client per worker, in slot order."""
        return [WorkerClient(host, port) for host, port in self.addresses]

    def respawn(self, indices: Sequence[int]) -> None:
        """Replace the workers at ``indices`` by fresh ones, in their slots.

        The old processes are killed if still running (a hung lease never
        ends by itself); the replacements cold-start concurrently.
        """
        for index in indices:
            self.kill(index)
        fresh = spawn_local_workers(len(indices), cache_dir=self.cache_dir)
        for index, proc, address in zip(indices, fresh.procs, fresh.addresses):
            self.procs[index] = proc
            self.addresses[index] = address

    def close(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _worker_env() -> Dict[str, str]:
    """Child env with the parent's ``repro`` package importable.

    Test runs import ``repro`` from a source checkout via ``sys.path`` (not
    the environment), so the parent's import location is prepended to the
    child's ``PYTHONPATH`` explicitly.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return env


def spawn_local_workers(n: int, cache_dir: Optional[str] = None) -> LocalWorkerPool:
    """Spawn ``n`` workers on OS-assigned localhost ports.

    Each worker prints a one-line ``listening`` JSON event on stdout once
    bound; this blocks until all have (they cold-start concurrently).
    """
    procs: List[subprocess.Popen] = []
    try:
        env = _worker_env()
        for _ in range(max(1, n)):
            cmd = [
                sys.executable, "-m", "repro.experiments.worker",
                "--serve", "--host", "127.0.0.1", "--port", "0",
            ]
            if cache_dir:
                cmd += ["--cache-dir", str(cache_dir)]
            procs.append(
                subprocess.Popen(
                    cmd, env=env, text=True,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
            )
        addresses = [_await_listening(proc) for proc in procs]
    except BaseException:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        raise
    return LocalWorkerPool(procs, addresses, cache_dir=cache_dir)


def _await_listening(proc: subprocess.Popen) -> Tuple[str, int]:
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        stderr = (proc.stderr.read() or "").strip()
        raise ExperimentError(
            f"worker exited with status {proc.returncode} before listening"
            + (f": {stderr[-500:]}" if stderr else "")
        )
    try:
        data = json.loads(line)
        if data.get("event") != "listening":
            raise ValueError(f"unexpected startup line {line!r}")
        return (str(data["host"]), int(data["port"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise ExperimentError(f"garbled worker startup line: {exc}") from exc


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.experiments.worker --serve [--port N]``; exit code."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments.worker",
        description=(
            "Long-running sweep worker: serves chunk leases for the "
            "'remote' execution backend over HTTP (JSONL record stream)."
        ),
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="start serving (required; guards against bare invocation)",
    )
    parser.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    parser.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="listen port (0 = OS-assigned, reported on stdout)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=(
            "shared ResultStore to write every completed record (and "
            "observed per-cell costs) into — point every machine of a "
            "fabric at the same network mount"
        ),
    )
    args = parser.parse_args(argv)
    if not args.serve:
        parser.error("nothing to do: pass --serve")
    store = ResultStore(args.cache_dir) if args.cache_dir else None
    server = WorkerServer((args.host, args.port), _WorkerState(store))
    host, port = server.server_address[:2]
    # Stamp every trace event this worker emits with its fabric identity
    # (the tracer itself is armed by an inherited REPRO_TRACE, if any).
    os.environ.setdefault(obs.WORKER_ID_ENV, f"{host}:{port}")
    print(
        json.dumps(
            {
                "schema": WORKER_SCHEMA,
                "event": "listening",
                "host": str(host),
                "port": int(port),
                "pid": os.getpid(),
            }
        ),
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
