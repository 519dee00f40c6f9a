"""Line-delimited JSON protocol for driving an :class:`AnalysisSession`.

One request per line, one response per line, ordered; this is the transport
behind ``repro serve``.  A request looks like::

    {"id": 1, "method": "analyze", "params": {"function": "get_count",
     "condition": {"whole_program": true}}}

and its response::

    {"id": 1, "ok": true, "result": {...}}

Errors never kill the loop: a malformed line or a failing query produces an
``{"ok": false, "error": ..., "error_code": ...}`` response and the service
keeps reading.  ``error`` stays a human-readable string; ``error_code`` is a
stable machine-readable code (``unknown_function``, ``unknown_variable``,
``position_out_of_range``, ``protocol_error``, ...) that clients dispatch on
instead of parsing messages.  The ``shutdown`` method ends the loop (EOF
does too).

Methods: ``open``, ``update``, ``close``, ``analyze``, ``slice``, ``focus``,
``ifc``, ``warm``, ``stats``, ``metrics``, ``version``, ``ping``,
``shutdown``.  The concurrent front door (:mod:`repro.service.server`) adds
a mux-level ``workspace`` method and serves this dialect alongside JSON-RPC
on the same sockets.  ``docs/PROTOCOL.md`` documents every request/response
shape with replayable transcripts.

Telemetry: every response carries a ``trace_id``; any request may set
``"trace": true`` (top level, next to ``method``) to get the request's span
tree back under ``trace``, and ``"profile": true`` (optional
``"profile_hz"``) to sample the request with the span-stack profiler and
get the sample summary back under ``profile``; ``analyze`` accepts an
optional ``source`` param to open-and-analyze in one round trip.  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import IO, Optional

from repro.core.config import AnalysisConfig
from repro.errors import QueryError, ReproError
from repro.obs import get_registry, new_trace_id, start_trace
from repro.obs.profile import SamplingProfiler
from repro.service.session import AnalysisSession
from repro.version import __version__


class ProtocolError(ReproError):
    """A malformed request (bad JSON, unknown method, missing params)."""

    code = "protocol_error"


def condition_from_params(params: dict) -> Optional[AnalysisConfig]:
    """Build an :class:`AnalysisConfig` from a request's ``condition`` block."""
    condition = params.get("condition")
    if condition is None:
        return None
    if not isinstance(condition, dict):
        raise ProtocolError("`condition` must be an object of boolean flags")
    known = {f.name for f in dataclasses.fields(AnalysisConfig)}
    unknown = set(condition) - known
    if unknown:
        raise ProtocolError(f"unknown condition flags: {sorted(unknown)}")
    return AnalysisConfig(**condition)


class AnalysisService:
    """Dispatches protocol requests onto one session."""

    def __init__(self, session: Optional[AnalysisSession] = None):
        self.session = session or AnalysisSession()
        self.requests_handled = 0
        self.shutdown_requested = False

    # -- dispatch ----------------------------------------------------------------

    @staticmethod
    def _error_response(request_id, message: str, code: str) -> dict:
        return {"id": request_id, "ok": False, "error": message, "error_code": code}

    def handle_line(self, line: str) -> dict:
        """Parse one NDJSON request line and dispatch it; never raises."""
        try:
            request = json.loads(line)
        except json.JSONDecodeError as error:
            return self._error_response(None, f"invalid JSON: {error}", "parse_error")
        if not isinstance(request, dict):
            return self._error_response(
                None, "request must be a JSON object", "parse_error"
            )
        return self.handle(request)

    def handle(self, request: dict) -> dict:
        """Dispatch one parsed request to its ``_method_*`` handler.

        Always returns a response object; every failure mode maps to an
        ``ok: false`` response with a stable ``error_code`` — the loop (and
        the server connection above it) survives anything a query throws.

        Telemetry contract: every response carries a ``trace_id`` (a
        client-supplied one is honoured, so the front-door server can stamp
        requests before dispatch); ``"trace": true`` on any request wraps
        the handler in a trace and returns the span tree under ``trace``;
        ``"profile": true`` additionally runs the sampling profiler for the
        request's duration (optional ``"profile_hz"``) and returns the
        sample summary under ``profile`` — profiling implies an internal
        trace, because samples attribute to span stacks; each request lands
        in ``requests_total``/``request_seconds``.
        """
        request_id = request.get("id")
        self.requests_handled += 1
        trace_id = request.get("trace_id")
        trace_id = str(trace_id) if trace_id else new_trace_id()
        method = request.get("method")
        started = time.perf_counter()
        trace = None
        want_trace = request.get("trace") is True
        profiler = None
        try:
            if not isinstance(method, str):
                raise ProtocolError("missing `method`")
            handler = getattr(self, f"_method_{method}", None)
            if handler is None:
                raise ProtocolError(f"unknown method {method!r}")
            params = request.get("params", {})
            if not isinstance(params, dict):
                raise ProtocolError("`params` must be an object")
            if request.get("profile") is True:
                hz = request.get("profile_hz")
                if hz is not None and not isinstance(hz, (int, float)):
                    raise ProtocolError("`profile_hz` must be a number")
                profiler = SamplingProfiler(hz=float(hz) if hz else 97.0)
            if profiler is not None:
                # Sampling must begin before the trace root opens: stack
                # publication only sees spans entered while a profiler is
                # attached, so a late start would attribute the request to
                # the method's children instead of the method span itself.
                profiler.start()
            try:
                if want_trace or profiler is not None:
                    with start_trace(method, trace_id=trace_id) as trace:
                        result = handler(params)
                else:
                    result = handler(params)
            finally:
                if profiler is not None:
                    profiler.stop()
            response = {"id": request_id, "ok": True, "result": result}
        except QueryError as error:
            response = self._error_response(request_id, str(error), error.code)
        except ProtocolError as error:
            response = self._error_response(request_id, str(error), error.code)
        except ReproError as error:
            response = self._error_response(request_id, str(error), "repro_error")
        except (KeyError, TypeError, ValueError) as error:
            response = self._error_response(request_id, f"bad request: {error}", "bad_request")
        except Exception as error:  # the loop survives anything a query throws
            response = self._error_response(
                request_id,
                f"internal error: {type(error).__name__}: {error}",
                "internal_error",
            )
        elapsed = time.perf_counter() - started
        method_label = method if isinstance(method, str) else "invalid"
        registry = get_registry()
        registry.histogram("request_seconds", method=method_label).observe(elapsed)
        registry.counter(
            "requests_total",
            method=method_label,
            protocol="ndjson",
            status="ok" if response.get("ok") else "error",
        ).inc()
        response["trace_id"] = trace_id
        if trace is not None and want_trace:
            response["trace"] = trace.to_dict()
        if profiler is not None:
            response["profile"] = profiler.profile.to_dict()
        return response

    # -- methods -----------------------------------------------------------------

    def _method_ping(self, params: dict) -> dict:
        return {
            "pong": True,
            "version": __version__,
            "requests_handled": self.requests_handled,
        }

    def _method_version(self, params: dict) -> dict:
        return {"name": "repro-flowistry", "version": __version__}

    def _method_open(self, params: dict) -> dict:
        source = params.get("source")
        if not isinstance(source, str):
            raise ProtocolError("`open` needs a string `source`")
        unit = params.get("unit", "main")
        local_crate = params.get("local_crate")
        previous_crate = self.session.local_crate
        if local_crate is not None:
            self.session.local_crate = str(local_crate)
        try:
            return self.session.open_unit(str(unit), source)
        except Exception:
            # Keep the failed open fully transactional: the crate selection
            # must roll back along with the unit map.
            self.session.local_crate = previous_crate
            raise

    def _method_update(self, params: dict) -> dict:
        source = params.get("source")
        if not isinstance(source, str):
            raise ProtocolError("`update` needs a string `source`")
        return self.session.update_unit(str(params.get("unit", "main")), source)

    def _method_close(self, params: dict) -> dict:
        return self.session.close_unit(str(params.get("unit", "main")))

    def _method_analyze(self, params: dict) -> dict:
        source = params.get("source")
        if source is not None:
            # Open-and-analyze in one request: the single round trip whose
            # trace covers the whole pipeline (parse → fixpoint → cache).
            # Callers routing through the concurrent server take the write
            # lock for it (see repro.service.server.is_write_request).
            if not isinstance(source, str):
                raise ProtocolError("`source` must be a string when present")
            self._method_open(params)
        return self.session.analyze(
            function=params.get("function"),
            config=condition_from_params(params),
        )

    def _method_slice(self, params: dict) -> dict:
        function = params.get("function")
        variable = params.get("variable")
        if not isinstance(function, str) or not isinstance(variable, str):
            raise ProtocolError("`slice` needs string `function` and `variable`")
        return self.session.slice(
            function,
            variable,
            direction=str(params.get("direction", "backward")),
            config=condition_from_params(params),
        )

    def _method_focus(self, params: dict) -> dict:
        line = params.get("line")
        col = params.get("col")
        function = params.get("function")
        variable = params.get("variable")
        by_cursor = line is not None and col is not None
        by_name = isinstance(function, str) and isinstance(variable, str)
        if not by_cursor and not by_name:
            raise ProtocolError(
                "`focus` needs integer `line` and `col`, or string `function` and `variable`"
            )
        if by_cursor and not (isinstance(line, int) and isinstance(col, int)):
            raise ProtocolError("`focus` positions must be 1-based integers")
        unit = params.get("unit")
        return self.session.focus(
            line=line if by_cursor else None,
            col=col if by_cursor else None,
            function=function if by_name else None,
            variable=variable if by_name else None,
            direction=str(params.get("direction", "both")),
            config=condition_from_params(params),
            unit=str(unit) if unit is not None else None,
        )

    def _method_ifc(self, params: dict) -> dict:
        return self.session.ifc(
            secret_types=[str(t) for t in params.get("secret_types", [])],
            secret_variables=[str(v) for v in params.get("secret_variables", [])],
            sinks=[str(s) for s in params.get("sinks", [])],
            config=condition_from_params(params),
        )

    def _method_warm(self, params: dict) -> dict:
        return self.session.warm(config=condition_from_params(params))

    def _method_stats(self, params: dict) -> dict:
        return self.session.stats()

    def _method_metrics(self, params: dict) -> dict:
        """The process-wide metrics registry snapshot (plus session counters).

        Counters/histograms are cumulative since process start; consumers
        wanting a window take two snapshots and diff
        (:func:`repro.obs.snapshot_delta`).
        """
        snapshot = get_registry().snapshot()
        snapshot["session"] = {
            "counters": dict(self.session.counters),
            "store": self.session.store.stats.to_dict(),
        }
        return snapshot

    def _method_shutdown(self, params: dict) -> dict:
        self.shutdown_requested = True
        return {"shutdown": True, "requests_handled": self.requests_handled}


def serve(in_stream: IO[str], out_stream: IO[str], session: Optional[AnalysisSession] = None) -> int:
    """Run the request/response loop until EOF or ``shutdown``; returns 0."""
    service = AnalysisService(session)
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        response = service.handle_line(line)
        out_stream.write(json.dumps(response, sort_keys=True) + "\n")
        try:
            out_stream.flush()
        except (AttributeError, OSError):
            pass
        if service.shutdown_requested:
            break
    return 0
