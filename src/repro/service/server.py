"""The concurrent workspace server behind ``repro serve --port``.

This module turns the single-client stdio loops of
:mod:`repro.service.protocol` (NDJSON) and :mod:`repro.focus.server`
(JSON-RPC 2.0) into one production-shaped server:

* **Transport unification** — every connection speaks *both* dialects.
  :class:`ConnectionHandler` inspects each line: a message carrying
  ``"jsonrpc": "2.0"`` is dispatched to the LSP-lite
  :class:`~repro.focus.server.FocusServer`, anything else to the NDJSON
  :class:`~repro.service.protocol.AnalysisService`.  Both are bound to the
  same underlying :class:`~repro.service.session.AnalysisSession`, so an
  editor speaking JSON-RPC and a batch tool speaking NDJSON see one
  workspace and one warm cache.
* **Shared sessions with read/write locking** — a
  :class:`WorkspaceRegistry` keeps one session (plus one
  :class:`~repro.service.locks.RWLock`) per named workspace.  Queries take
  the read side and run concurrently; workspace mutations (``open`` /
  ``update`` / ``close`` / ``warm`` and their LSP counterparts) take the
  write side and run alone.
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
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import QueryError
from repro.obs import get_registry, new_trace_id, start_trace
from repro.obs.export import TraceDirWriter
from repro.obs.slowlog import HealthTracker, SlowLog
from repro.service.locks import RWLock
from repro.service.persist import has_workspace, open_or_create_workspace, save_workspace
from repro.service.protocol import AnalysisService
from repro.service.session import AnalysisSession
from repro.version import __version__

SERVER_NAME = "repro-flowistry"
PROTOCOLS = ("ndjson", "jsonrpc-2.0")

# One structured line per request when the access log is enabled; emitted at
# INFO so the default (no handler configured → dropped) keeps stdout-replay
# consumers byte-stable.  ``repro serve --log-level info`` wires a handler.
ACCESS_LOG = logging.getLogger("repro.access")

# Methods that mutate the shared workspace and therefore take the write side
# of the session's RW lock; everything else is a concurrent read.
NDJSON_WRITE_METHODS = frozenset({"open", "update", "close", "warm"})

# Sentinel default for ConnectionHandler's slow_log/health parameters:
# "create a private instance" — distinct from an explicit None ("disabled").
_CREATE: object = object()
JSONRPC_WRITE_METHODS = frozenset(
    {"textDocument/didOpen", "textDocument/didChange", "textDocument/didClose"}
)


def is_write_request(message: dict) -> bool:
    """Whether one parsed message needs the workspace write lock.

    Method identity is almost enough; the exception is ``analyze`` with an
    inline ``source`` (the open-and-analyze round trip), which mutates the
    workspace like ``open`` does.
    """
    if message.get("jsonrpc") == "2.0":
        return message.get("method") in JSONRPC_WRITE_METHODS
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
        manifest_debounce: float = 1.0,
    ):
        self.persist_dir = persist_dir
        self.max_entries = max_entries
        self.local_crate = local_crate
        self.manifest_debounce = manifest_debounce
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
        rewriting it on *every* keystroke-style ``didChange`` would make
        each edit an O(workspace) disk write inside the exclusive lock;
        instead writes are rate-limited to one per ``manifest_debounce``
        seconds and the handle is marked dirty in between — ``save_all``
        (the shutdown path) flushes whatever is pending.  Cache entries are
        unaffected: the store writes those through on ``put``.
        """
        if self.persist_dir is None:
            return
        now = time.monotonic()
        if now - handle.last_saved >= self.manifest_debounce:
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

    Owns one :class:`AnalysisService` (NDJSON) and one :class:`FocusServer`
    (JSON-RPC) bound to the connection's current workspace session, routes
    each incoming line to the right dialect, and wraps the dispatch in the
    workspace's read or write lock according to the method.

    Three mux-level NDJSON methods exist on top of the two dialects:
    ``{"method": "workspace", "params": {"name": ...}}`` switches this
    connection to another (shared) workspace — the name must be live or
    saved unless ``"create": true`` is passed (so a typo cannot silently
    spawn an empty workspace); without ``name`` it reports the current one.
    ``{"method": "slowlog"}`` returns the retained slow-request exemplars
    (tail-based trace sampling — see :mod:`repro.obs.slowlog`), and
    ``{"method": "health"}`` the uptime/error-rate/per-method-latency
    summary.  Both read state shared across every connection when the
    server injects its ``slow_log``/``health``; a directly-constructed
    handler gets private instances so the mux is self-contained.
    """

    def __init__(
        self,
        registry: WorkspaceRegistry,
        workspace: str = "default",
        on_mutation: Optional[Callable[[SessionHandle], None]] = None,
        log_level: str = "quiet",
        trace_writer: Optional[TraceDirWriter] = None,
        slow_log: Optional[SlowLog] = _CREATE,
        health: Optional[HealthTracker] = _CREATE,
        server_stats: Optional[Callable[[], dict]] = None,
    ):
        self.registry = registry
        self.on_mutation = on_mutation if on_mutation is not None else registry.note_mutation
        self.log_level = log_level
        self.trace_writer = trace_writer
        self.slow_log = SlowLog() if slow_log is _CREATE else slow_log
        self.health = HealthTracker() if health is _CREATE else health
        self.server_stats = server_stats
        self._bind(registry.handle(workspace))

    def _bind(self, handle: SessionHandle) -> None:
        # Imported lazily: repro.focus.server itself imports the service
        # package, so a module-level import here would be circular.
        from repro.focus.server import FocusServer

        self.handle_ref = handle
        self.ndjson = AnalysisService(handle.session)
        self.jsonrpc = FocusServer(handle.session)

    @property
    def done(self) -> bool:
        """Whether either dialect asked to end this connection."""
        return self.ndjson.shutdown_requested or self.jsonrpc.exit_requested

    def hello(self) -> dict:
        """The one-line greeting sent to every client on connect."""
        return {
            "hello": SERVER_NAME,
            "version": __version__,
            "protocols": list(PROTOCOLS),
            "workspace": self.handle_ref.name,
        }

    def _switch_workspace(self, request: dict) -> dict:
        params = request.get("params") or {}
        name = params.get("name") if isinstance(params, dict) else None
        if name is not None:
            name = str(name)
            if not params.get("create") and not self.registry.exists(name):
                return {
                    "id": request.get("id"),
                    "ok": False,
                    "error": f"no workspace named {name!r} "
                             "(pass \"create\": true to create it)",
                    "error_code": QueryError.UNKNOWN_WORKSPACE,
                }
            try:
                self._bind(self.registry.handle(name))
            except QueryError as error:
                # exists() saw a manifest but loading it failed (corrupt
                # manifest, source that no longer compiles): answer with the
                # typed error instead of unwinding the connection.
                return {
                    "id": request.get("id"),
                    "ok": False,
                    "error": str(error),
                    "error_code": error.code,
                }
            except Exception as error:
                return {
                    "id": request.get("id"),
                    "ok": False,
                    "error": f"workspace {name!r} failed to load: {error}",
                    "error_code": "workspace_load_failed",
                }
        handle = self.handle_ref
        with handle.lock.read_locked():
            result = {
                "workspace": handle.name,
                "units": handle.session.unit_names(),
                "functions": len(handle.session.function_names()),
                "workspaces": self.registry.names(),
            }
        return {"id": request.get("id"), "ok": True, "result": result}

    def _slowlog_response(self, request: dict) -> dict:
        if self.slow_log is None:
            return {
                "id": request.get("id"),
                "ok": False,
                "error": "slow-request log disabled on this server",
                "error_code": "slowlog_disabled",
            }
        params = request.get("params") or {}
        limit = params.get("limit") if isinstance(params, dict) else None
        include = params.get("traces", True) if isinstance(params, dict) else True
        return {
            "id": request.get("id"),
            "ok": True,
            "result": self.slow_log.snapshot(
                limit=int(limit) if isinstance(limit, int) else None,
                include_traces=bool(include),
            ),
        }

    def _health_response(self, request: dict) -> dict:
        extra = {"inflight": 0}
        if self.server_stats is not None:
            stats = self.server_stats()
            extra = {
                "inflight": stats.get("inflight", 0),
                "open_connections": stats.get("open_connections", 0),
                "draining": stats.get("draining", False),
            }
        return {
            "id": request.get("id"),
            "ok": True,
            "result": self.health.snapshot(extra=extra),
        }

    def handle_message(self, message: dict) -> Optional[dict]:
        """Dispatch one parsed message under the appropriate lock."""
        handle = self.handle_ref
        write = is_write_request(message)
        if message.get("jsonrpc") == "2.0":
            with handle.lock.locked(write):
                response = self.jsonrpc.handle(message)
                if write:
                    self.on_mutation(handle)
            return response
        method = message.get("method")
        if method in ("workspace", "slowlog", "health"):
            # Mux-level methods: no workspace lock — they touch connection
            # or telemetry state only, never a session.
            get_registry().counter(
                "requests_total", method=str(method), protocol="mux", status="ok"
            ).inc()
            if method == "slowlog":
                return self._slowlog_response(message)
            if method == "health":
                return self._health_response(message)
            return self._switch_workspace(message)
        with handle.lock.locked(write):
            response = self.ndjson.handle(message)
            if write:
                self.on_mutation(handle)
        return response

    @staticmethod
    def _response_status(response: Optional[dict]) -> str:
        if response is None:
            return "ok"  # notifications have no failure channel
        if response.get("ok") is False or "error" in response:
            return "error"
        return "ok"

    def handle_line(self, line: str) -> Optional[dict]:
        """Parse one wire line and dispatch it; never raises.

        The connection-level telemetry wrapper: stamps a ``trace_id`` into
        the message (inner dialects echo it), traces the request when a
        ``--trace-dir`` writer is attached *or* a slow log wants tail
        exemplars, feeds the health tracker, and emits one structured
        access log line unless the log level is ``quiet``.  Tail-based
        sampling means every request is traced but the span tree is
        *retained* only when the slow log judges the request slow.
        """
        try:
            message = json.loads(line)
        except json.JSONDecodeError as error:
            return {
                "id": None,
                "ok": False,
                "error": f"invalid JSON: {error}",
                "error_code": "parse_error",
            }
        if not isinstance(message, dict):
            return {
                "id": None,
                "ok": False,
                "error": "request must be a JSON object",
                "error_code": "parse_error",
            }
        trace_id = message.get("trace_id")
        trace_id = str(trace_id) if trace_id else new_trace_id()
        message.setdefault("trace_id", trace_id)
        method = message.get("method")
        workspace = self.handle_ref.name
        started = time.perf_counter()
        trace_path = None
        if self.trace_writer is not None or self.slow_log is not None:
            # A client-requested in-band trace ("trace": true) opens its own
            # nested trace; the server-side file then only covers the mux.
            with start_trace(
                method if isinstance(method, str) else "invalid", trace_id=trace_id
            ) as trace:
                response = self.handle_message(message)
            if self.trace_writer is not None:
                trace_path = self.trace_writer.write(trace)
        else:
            trace = None
            response = self.handle_message(message)
        duration_ms = (time.perf_counter() - started) * 1e3
        status = self._response_status(response)
        if self.health is not None:
            self.health.observe(
                method if isinstance(method, str) else None,
                duration_ms,
                ok=status == "ok",
            )
        if self.slow_log is not None:
            self.slow_log.observe(
                method if isinstance(method, str) else None,
                duration_ms,
                trace_id=trace_id,
                status=status,
                workspace=workspace,
                trace=trace.to_dict() if trace is not None else None,
                trace_path=str(trace_path) if trace_path is not None else None,
            )
        if response is not None and "trace_id" not in response:
            response["trace_id"] = trace_id
        if self.log_level != "quiet":
            ACCESS_LOG.info(
                json.dumps(
                    {
                        "trace_id": trace_id,
                        "method": method if isinstance(method, str) else None,
                        "workspace": workspace,
                        "status": status,
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
        slowlog: bool = True,
        slowlog_threshold_ms: Optional[float] = None,
        slowlog_capacity: int = 32,
    ):
        self.registry = WorkspaceRegistry(
            persist_dir=persist_dir, max_entries=max_entries, local_crate=local_crate
        )
        self.default_workspace = default_workspace
        self.log_level = log_level
        self.trace_writer = TraceDirWriter(trace_dir) if trace_dir else None
        # One slow log + health tracker shared by every connection, so
        # `slowlog`/`health` answer for the whole server regardless of
        # which connection asks.
        self.slow_log = (
            SlowLog(capacity=slowlog_capacity, threshold_ms=slowlog_threshold_ms)
            if slowlog
            else None
        )
        self.health = HealthTracker()
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
        try:
            conn.sendall(
                (json.dumps({
                    "id": None,
                    "ok": False,
                    "error": f"server at capacity ({self.workers} connections)",
                    "error_code": "server_busy",
                }, sort_keys=True) + "\n").encode("utf-8")
            )
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
                    slow_log=self.slow_log,
                    health=self.health,
                    server_stats=self.stats,
                )
            except Exception as error:
                emit({
                    "id": None,
                    "ok": False,
                    "error": f"workspace {self.default_workspace!r} failed to "
                             f"load: {error}",
                    "error_code": "workspace_load_failed",
                })
                return

            emit(handler.hello())
            for line in rfile:
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
                if response is not None:
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
