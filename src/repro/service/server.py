"""The concurrent workspace server behind ``repro serve --port``.

This module turns the single-client stdio loop of
:mod:`repro.service.protocol` into one production-shaped server speaking the
same NDJSON protocol:

* **Shared sessions with read/write locking** — a
  :class:`WorkspaceRegistry` keeps one session (plus one
  :class:`~repro.service.locks.RWLock`) per named workspace.  Queries take
  the read side and run concurrently; workspace mutations (``open`` /
  ``update`` / ``close`` / ``warm``) take the write side and run alone.
* **Persistence** — with a ``persist_dir`` the registry loads saved
  workspaces on first access (:mod:`repro.service.persist`), stores write
  through to the on-disk cache tier, and manifests are refreshed after
  mutations (debounced) and flushed on shutdown, so a restarted server
  answers its first query warm.
* **Thread-pool connection handling and graceful shutdown** — a
  :class:`ThreadedAnalysisServer` accepts TCP connections and serves each
  from a bounded thread pool; :meth:`ThreadedAnalysisServer.shutdown`
  drains in-flight requests, closes idle connections, persists workspaces
  and joins the pool.

Wire format: newline-delimited JSON both ways.  On connect the server sends
one *hello* line (``{"hello": ..., "version": ..., "protocols": [...],
"workspace": ...}``) that clients must read before their first response.
A request line longer than :data:`MAX_REQUEST_CHARS` is answered with one
``request_too_large`` error and the connection is closed.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.obs import get_registry, new_trace_id, start_trace
from repro.obs.export import TraceDirWriter
from repro.service.locks import RWLock
from repro.service.persist import (
    check_workspace_name,
    has_workspace,
    open_or_create_workspace,
    save_workspace,
)
from repro.service.protocol import (
    MAX_REQUEST_CHARS,
    AnalysisService,
    MalformedRequest,
    ProtocolError,
    checked_params,
    count_request,
    decode_request,
    error_response,
)
from repro.service.session import AnalysisSession
from repro.version import __version__

SERVER_NAME = "repro-flowistry"
PROTOCOLS = ("ndjson",)

# One structured line per request when the access log is enabled; emitted at
# INFO so the default (no handler configured → dropped) keeps stdout-replay
# consumers byte-stable.  ``repro serve --log-level info`` wires a handler.
ACCESS_LOG = logging.getLogger("repro.access")

# Methods that mutate the shared workspace and therefore take the write side
# of the session's RW lock; everything else is a concurrent read.
NDJSON_WRITE_METHODS = frozenset({"open", "update", "close", "warm"})

# The shortest interval between two manifest rewrites of one workspace, in
# seconds (see ``WorkspaceRegistry.note_mutation``).
MANIFEST_DEBOUNCE_SECONDS = 1.0


def is_write_request(message: dict) -> bool:
    """Whether one parsed message needs the workspace write lock.

    Method identity is almost enough; the exception is ``analyze`` with an
    inline ``source`` (the open-and-analyze round trip), which mutates the
    workspace like ``open`` does.
    """
    method = message.get("method")
    if method == "analyze":
        params = message.get("params")
        return isinstance(params, dict) and "source" in params
    return method in NDJSON_WRITE_METHODS


@dataclass
class SessionHandle:
    """One shared workspace: its session plus the lock every client honours.

    ``dirty``/``last_saved`` drive the registry's manifest debounce; both
    are only touched while the workspace write lock is held.
    """

    name: str
    session: AnalysisSession
    lock: RWLock
    dirty: bool = False
    last_saved: float = field(default=0.0)


class WorkspaceRegistry:
    """Named, shared, optionally persistent analysis sessions.

    The registry is the server's unit of sharing: every connection that
    selects workspace ``w`` gets the *same* :class:`SessionHandle`, so all
    of them hit one warm cache.  With a ``persist_dir``, sessions are
    rebuilt from their saved manifest on first access and their stores write
    through to the workspace's disk cache tier.
    """

    def __init__(
        self,
        persist_dir: Optional[str] = None,
        max_entries: int = 4096,
        local_crate: str = "main",
    ):
        self.persist_dir = persist_dir
        self.max_entries = max_entries
        self.local_crate = local_crate
        self._lock = threading.Lock()
        self._handles: Dict[str, SessionHandle] = {}
        # Per-name creation locks: loading a persisted workspace can mean a
        # full parse/check/lower, which must not stall unrelated workspaces
        # (or new connections) behind the registry mutex.
        self._creating: Dict[str, threading.Lock] = {}

    def exists(self, name: str) -> bool:
        """Whether ``name`` is live in this process or saved on disk."""
        with self._lock:
            if name in self._handles:
                return True
        return self.persist_dir is not None and has_workspace(self.persist_dir, name)

    def handle(self, name: str = "default") -> SessionHandle:
        """The shared handle for workspace ``name``, created/loaded on demand."""
        with self._lock:
            found = self._handles.get(name)
            if found is not None:
                return found
            creation = self._creating.setdefault(name, threading.Lock())
        with creation:
            with self._lock:
                found = self._handles.get(name)
                if found is not None:
                    return found
            # The (possibly slow) load runs outside the registry mutex; the
            # per-name creation lock keeps it single-flight.
            if self.persist_dir is not None:
                session = open_or_create_workspace(
                    self.persist_dir,
                    name,
                    max_entries=self.max_entries,
                    local_crate=self.local_crate,
                )
            else:
                session = AnalysisSession(
                    max_entries=self.max_entries, local_crate=self.local_crate
                )
            created = SessionHandle(name=name, session=session, lock=RWLock())
            with self._lock:
                self._handles[name] = created
            return created

    def names(self) -> List[str]:
        """Names of the workspaces live in this process."""
        with self._lock:
            return sorted(self._handles)

    def note_mutation(self, handle: SessionHandle) -> None:
        """Refresh the workspace manifest after a mutation, debounced.

        Called with the workspace write lock held, so the unit snapshot is
        consistent.  The manifest serialises every unit's full source, so
        rewriting it on *every* keystroke-style ``update`` would make
        each edit an O(workspace) disk write inside the exclusive lock;
        instead writes are rate-limited to one per
        :data:`MANIFEST_DEBOUNCE_SECONDS` and the handle is marked dirty in
        between — ``save_all`` (the shutdown path) flushes whatever is
        pending.  Cache entries are unaffected: the store writes those
        through on ``put``.
        """
        if self.persist_dir is None:
            return
        now = time.monotonic()
        if now - handle.last_saved >= MANIFEST_DEBOUNCE_SECONDS:
            save_workspace(handle.session, self.persist_dir, handle.name)
            handle.last_saved = now
            handle.dirty = False
        else:
            handle.dirty = True

    def save_all(self) -> List[dict]:
        """Persist every live workspace's manifest (shutdown path)."""
        if self.persist_dir is None:
            return []
        out = []
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            with handle.lock.write_locked():
                out.append(save_workspace(handle.session, self.persist_dir, handle.name))
                handle.last_saved = time.monotonic()
                handle.dirty = False
        return out


class ConnectionHandler:
    """Per-connection protocol mux over a shared workspace.

    Owns one :class:`AnalysisService` bound to the connection's current
    workspace session and wraps each dispatch in the workspace's read or
    write lock according to the method.

    One mux-level method exists on top of the service's own:
    ``{"method": "workspace", "params": {"name": ...}}`` switches this
    connection to another (shared) workspace — the name must be live or
    saved unless ``"create": true`` is passed (so a typo cannot silently
    spawn an empty workspace); without ``name`` it reports the current one.
    Its params are checked against the protocol's ``PARAMS`` table too.
    """

    def __init__(
        self,
        registry: WorkspaceRegistry,
        workspace: str = "default",
        log_level: str = "quiet",
        trace_writer: Optional[TraceDirWriter] = None,
    ):
        self.registry = registry
        self.log_level = log_level
        self.trace_writer = trace_writer
        self._bind(registry.handle(workspace))

    def _bind(self, handle: SessionHandle) -> None:
        self.handle_ref = handle
        self.ndjson = AnalysisService(handle.session)

    @property
    def done(self) -> bool:
        """Whether the client asked to end this connection."""
        return self.ndjson.shutdown_requested

    def hello(self) -> dict:
        """The one-line greeting sent to every client on connect."""
        return {
            "hello": SERVER_NAME,
            "version": __version__,
            "protocols": list(PROTOCOLS),
            "workspace": self.handle_ref.name,
        }

    def _switch_workspace(self, request: dict) -> dict:
        name = None
        try:
            params = checked_params("workspace", request.get("params", {}))
            name = params["name"]
            if name is not None:
                check_workspace_name(name)
                if not params["create"] and not self.registry.exists(name):
                    raise QueryError(
                        f"no workspace named {name!r} (pass \"create\": true to create it)",
                        code=QueryError.UNKNOWN_WORKSPACE,
                    )
                self._bind(self.registry.handle(name))
        except (ProtocolError, QueryError) as error:
            return error_response(request.get("id"), str(error), error.code)
        except Exception as error:
            # A manifest exists() saw can still fail to load (corrupt, or
            # source that no longer compiles): answer, do not unwind.
            message = f"workspace {name!r} failed to load: {error}"
            return error_response(request.get("id"), message, "workspace_load_failed")
        handle = self.handle_ref
        with handle.lock.read_locked():
            result = {
                "workspace": handle.name,
                "units": handle.session.unit_names(),
                "functions": len(handle.session.function_names()),
                "workspaces": self.registry.names(),
            }
        return {"id": request.get("id"), "ok": True, "result": result}

    def handle_message(self, message: dict) -> dict:
        """Dispatch one parsed message under the appropriate lock, and
        refresh the manifest when it changed the workspace.

        Writes are transactional: a failed ``open``, ``update`` or
        ``close`` leaves the session's ``generation`` where it was, and so
        does ``warm``.  An ``analyze`` whose inline ``source`` opened but
        whose query then failed did change it.
        """
        if message.get("method") == "workspace":
            # Mux-level: no workspace lock — it rebinds this connection only.
            response = self._switch_workspace(message)
            count_request("workspace", "mux", response)
            return response
        handle = self.handle_ref
        with handle.lock.locked(is_write_request(message)):
            generation = handle.session.generation
            response = self.ndjson.handle(message)
            if handle.session.generation != generation:
                self.registry.note_mutation(handle)
        return response

    def handle_line(self, line: str) -> dict:
        """Parse one wire line and dispatch it; never raises.

        The connection-level telemetry wrapper: stamps a ``trace_id`` into
        the message (the service echoes it), traces the request only when a
        ``--trace-dir`` writer is attached, and emits one structured access
        log line unless the log level is ``quiet``.  Request counts and
        latencies land in the metrics registry, recorded by the service.
        """
        started = time.perf_counter()
        try:
            message = decode_request(line)
        except MalformedRequest as error:
            return self.reject_line(error.code, str(error))
        trace_id = message.get("trace_id")
        trace_id = str(trace_id) if trace_id else new_trace_id()
        message["trace_id"] = trace_id
        method = message.get("method")
        method = method if isinstance(method, str) else None
        workspace = self.handle_ref.name
        if self.trace_writer is not None:
            # A client-requested in-band trace ("trace": true) opens its own
            # nested trace; the server-side file then only covers the mux.
            with start_trace(method or "invalid", trace_id=trace_id) as trace:
                response = self.handle_message(message)
            self.trace_writer.write(trace)
        else:
            response = self.handle_message(message)
        return self._observe(response, method, trace_id, workspace, started)

    def reject_line(self, code: str, error: str) -> dict:
        """Answer a line that never became a request (unparseable, too long).

        It is still a request to the telemetry: one failed request of
        method ``invalid`` with a fresh ``trace_id``.
        """
        response = error_response(None, error, code)
        count_request(None, "mux", response)
        return self._observe(
            response, None, new_trace_id(), self.handle_ref.name, time.perf_counter()
        )

    def _observe(
        self,
        response: dict,
        method: Optional[str],
        trace_id: str,
        workspace: str,
        started: float,
    ) -> dict:
        """Stamp one answered line's ``trace_id`` and write its access-log line."""
        response.setdefault("trace_id", trace_id)
        if self.log_level != "quiet":
            duration_ms = (time.perf_counter() - started) * 1e3
            ACCESS_LOG.info(
                json.dumps(
                    {
                        "trace_id": trace_id,
                        "method": method,
                        "workspace": workspace,
                        "status": "ok" if response.get("ok") else "error",
                        "duration_ms": round(duration_ms, 3),
                    },
                    sort_keys=True,
                )
            )
        return response


class ThreadedAnalysisServer:
    """TCP front door: threaded connections over shared sessions.

    Each accepted connection gets its own handler thread; ``workers`` caps
    how many client connections may be live at once (connections are
    long-lived, so the cap is per *connection*, not per request).  A client
    arriving over the cap is answered immediately with a one-line
    ``server_busy`` error and disconnected — never silently queued.  All
    connections share sessions through the :class:`WorkspaceRegistry`, so
    cache warmth is global.

    Lifecycle: ``start()`` (or use as a context manager) binds the accept
    thread; ``shutdown()`` drains — stop accepting, wait for in-flight
    requests, close remaining connections, persist workspaces, join the
    handler threads.  ``port=0`` binds an ephemeral port; read
    ``server.port`` after construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 8,
        persist_dir: Optional[str] = None,
        max_entries: int = 4096,
        local_crate: str = "main",
        default_workspace: str = "default",
        log_level: str = "quiet",
        trace_dir: Optional[str] = None,
    ):
        # A bad name is a start-up error, not a server whose every
        # connection fails to bind its workspace.
        self.default_workspace = check_workspace_name(default_workspace)
        self.registry = WorkspaceRegistry(
            persist_dir=persist_dir, max_entries=max_entries, local_crate=local_crate
        )
        self.log_level = log_level
        self.trace_writer = TraceDirWriter(trace_dir) if trace_dir else None
        self.workers = max(1, workers)
        self._listener = socket.create_server((host, port), backlog=128)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: set = set()
        self._draining = threading.Event()
        self._closed = False
        self._state_cond = threading.Condition()
        self._inflight = 0
        self._conns: set = set()
        self.connections_served = 0
        self.connections_rejected = 0
        self.requests_served = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ThreadedAnalysisServer":
        """Begin accepting connections (idempotent); returns ``self``."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def __enter__(self) -> "ThreadedAnalysisServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — stable even for ``port=0`` requests."""
        return (self.host, self.port)

    def hello(self) -> dict:
        """Startup banner (also printed by the CLI): address, version, limits."""
        return {
            "serving": SERVER_NAME,
            "version": __version__,
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "protocols": list(PROTOCOLS),
            "persist_dir": self.registry.persist_dir,
            "workspace": self.default_workspace,
        }

    def stats(self) -> dict:
        """Server-level counters (connections, requests, live workspaces)."""
        with self._state_cond:
            return {
                "connections_served": self.connections_served,
                "connections_rejected": self.connections_rejected,
                "requests_served": self.requests_served,
                "inflight": self._inflight,
                "open_connections": len(self._conns),
                "workspaces": self.registry.names(),
                "draining": self._draining.is_set(),
            }

    def shutdown(self, drain: bool = True, timeout: float = 10.0) -> List[dict]:
        """Gracefully stop: drain, disconnect, persist, join.

        With ``drain`` the server waits (up to ``timeout`` seconds) for
        requests already being handled to finish before closing client
        connections; without it connections are cut immediately.  Returns
        the workspace-save summaries (empty without a ``persist_dir``).
        Idempotent.
        """
        with self._state_cond:
            if self._closed:
                return []
            self._closed = True
        self._draining.set()
        try:
            self._listener.close()
        except OSError:
            pass
        if drain:
            with self._state_cond:
                waited = 0.0
                while self._inflight > 0 and waited < timeout:
                    self._state_cond.wait(0.1)
                    waited += 0.1
        with self._state_cond:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        with self._state_cond:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=2.0)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        return self.registry.save_all()

    # -- connection handling -----------------------------------------------------

    def _accept_loop(self) -> None:
        try:
            self._listener.settimeout(0.2)
        except OSError:
            return  # shutdown() closed the listener before we got here
        while not self._draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            # Reserve a connection slot atomically with the capacity check:
            # connections are long-lived, so over-cap clients must get an
            # immediate, explicit rejection rather than queue silently.
            with self._state_cond:
                if len(self._conns) >= self.workers:
                    accepted = False
                    self.connections_rejected += 1
                else:
                    accepted = True
                    self._conns.add(conn)
                    self.connections_served += 1
                    get_registry().gauge("server_connections").set(len(self._conns))
            if not accepted:
                self._reject_client(conn)
                continue
            thread = threading.Thread(
                target=self._serve_client, args=(conn,), daemon=True,
                name=f"repro-conn-{self.connections_served}",
            )
            with self._state_cond:
                self._threads.add(thread)
                self._threads = {t for t in self._threads if t.is_alive() or t is thread}
            thread.start()

    def _reject_client(self, conn: socket.socket) -> None:
        busy = error_response(
            None, f"server at capacity ({self.workers} connections)", "server_busy"
        )
        busy["trace_id"] = new_trace_id()
        try:
            conn.sendall((json.dumps(busy, sort_keys=True) + "\n").encode("utf-8"))
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def _serve_client(self, conn: socket.socket) -> None:
        try:
            rfile = conn.makefile("r", encoding="utf-8", newline="\n")
            wfile = conn.makefile("w", encoding="utf-8", newline="\n")

            def emit(payload: dict) -> None:
                wfile.write(json.dumps(payload, sort_keys=True) + "\n")
                wfile.flush()

            # Inside the try/finally: binding the default workspace can load
            # a persisted session and fail (corrupt manifest, stale source);
            # the slot and socket must be released either way, and the
            # client deserves an error line rather than a silent EOF.
            try:
                handler = ConnectionHandler(
                    self.registry,
                    self.default_workspace,
                    log_level=self.log_level,
                    trace_writer=self.trace_writer,
                )
            except Exception as error:
                failed = error_response(
                    None,
                    f"workspace {self.default_workspace!r} failed to load: {error}",
                    "workspace_load_failed",
                )
                failed["trace_id"] = new_trace_id()
                emit(failed)
                return

            emit(handler.hello())
            # Bounded reads: an endless line costs at most one character
            # past the bound before the connection is answered and closed.
            for line in iter(lambda: rfile.readline(MAX_REQUEST_CHARS + 1), ""):
                if len(line) > MAX_REQUEST_CHARS:
                    emit(handler.reject_line(
                        "request_too_large",
                        f"request line exceeds {MAX_REQUEST_CHARS} characters",
                    ))
                    break
                line = line.strip()
                if not line:
                    continue
                inflight_gauge = get_registry().gauge("server_inflight")
                with self._state_cond:
                    self._inflight += 1
                    inflight_gauge.set(self._inflight)
                try:
                    response = handler.handle_line(line)
                finally:
                    with self._state_cond:
                        self._inflight -= 1
                        self.requests_served += 1
                        inflight_gauge.set(self._inflight)
                        self._state_cond.notify_all()
                emit(response)
                if handler.done or self._draining.is_set():
                    break
        except (OSError, ValueError):
            pass  # client went away mid-request; nothing to answer
        finally:
            with self._state_cond:
                self._conns.discard(conn)
                get_registry().gauge("server_connections").set(len(self._conns))
            try:
                conn.close()
            except OSError:
                pass
