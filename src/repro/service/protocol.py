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
does too, and so does a line over :data:`MAX_REQUEST_CHARS`, after its
``request_too_large`` answer).

Methods: ``open``, ``update``, ``close``, ``analyze``, ``slice``, ``focus``,
``ifc``, ``warm``, ``stats``, ``metrics``, ``version``, ``ping``,
``shutdown``.  The concurrent front door (:mod:`repro.service.server`)
serves the same protocol on sockets and adds the mux-level ``workspace``
method.  ``docs/PROTOCOL.md`` documents every request/response shape with
replayable transcripts.

Telemetry: every response carries a ``trace_id``, including the
``parse_error`` answer to a line that is not a JSON object (counted as a
failed request of method ``invalid``); any request may set
``"trace": true`` (top level, next to ``method``) to get the request's span
tree back under ``trace``; ``analyze`` accepts an optional ``source`` param
to open-and-analyze in one round trip.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import time
from typing import IO, List, Optional

from repro.core.config import AnalysisConfig
from repro.errors import QueryError, ReproError
from repro.obs import get_registry, new_trace_id, start_trace
from repro.service.session import AnalysisSession
from repro.version import __version__

# The longest request line a client may send, counting its newline, on stdio
# and on sockets.  A longer line is never buffered whole: the reader stops
# one character past the bound, answers ``request_too_large`` and stops
# reading.
MAX_REQUEST_CHARS = 8 * 1024 * 1024


class ProtocolError(ReproError):
    """A malformed request (bad JSON, unknown method, missing params)."""

    code = "protocol_error"


class MalformedRequest(ProtocolError):
    """A request line that is not a JSON object."""

    code = "parse_error"


def decode_request(line: str) -> dict:
    """One request line as a JSON object; raises :class:`MalformedRequest`."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        raise MalformedRequest(f"invalid JSON: {error}") from None
    if not isinstance(request, dict):
        raise MalformedRequest("request must be a JSON object")
    return request


def error_response(request_id, message: str, code: str) -> dict:
    """An ``ok: false`` response with its typed ``error_code``."""
    return {"id": request_id, "ok": False, "error": message, "error_code": code}


def count_request(method, protocol: str, response: dict) -> None:
    """Add one answered request to ``requests_total`` under its real status."""
    get_registry().counter(
        "requests_total",
        method=method if isinstance(method, str) else "invalid",
        protocol=protocol,
        status="ok" if response.get("ok") else "error",
    ).inc()


# The paper's three evaluation conditions are the only flags a request sets.
CONDITION_FLAGS = ("whole_program", "mut_blind", "ref_blind")


def condition_from_params(params: dict) -> Optional[AnalysisConfig]:
    """Build an :class:`AnalysisConfig` from a request's ``condition`` block.

    Each key must be one of :data:`CONDITION_FLAGS` and each value a JSON
    boolean; anything else is a :class:`ProtocolError`, raised before any
    engine exists for the condition.
    """
    condition = params.get("condition")
    if condition is None:
        return None
    if not isinstance(condition, dict):
        raise ProtocolError("`condition` must be an object of boolean flags")
    unknown = set(condition) - set(CONDITION_FLAGS)
    if unknown:
        raise ProtocolError(f"unknown condition flags: {sorted(unknown)}")
    for flag, value in condition.items():
        if type(value) is not bool:
            raise ProtocolError(
                f"condition flag {flag!r} must be true or false, got {json.dumps(value)}"
            )
    return AnalysisConfig(**condition)


def _string_list_param(params: dict, key: str) -> List[str]:
    """``params[key]`` as a list of strings; absent means empty.

    Anything but a JSON array of strings is a :class:`ProtocolError` naming
    the key: a bare string would otherwise be read one character at a time.
    """
    value = params.get(key, [])
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ProtocolError(f"`{key}` must be an array of strings")
    return value


class AnalysisService:
    """Dispatches protocol requests onto one session."""

    def __init__(self, session: Optional[AnalysisSession] = None):
        self.session = session or AnalysisSession()
        self.requests_handled = 0
        self.shutdown_requested = False

    # -- dispatch ----------------------------------------------------------------

    def handle_line(self, line: str) -> dict:
        """Parse one NDJSON request line and dispatch it; never raises."""
        try:
            request = decode_request(line)
        except MalformedRequest as error:
            return self.reject_line(error.code, str(error))
        return self.handle(request)

    def reject_line(self, code: str, error: str) -> dict:
        """Answer a line that never became a request (unparseable, too long).

        It is still a request to the telemetry: one failed request of
        method ``invalid`` with a fresh ``trace_id``.
        """
        response = error_response(None, error, code)
        count_request(None, "ndjson", response)
        response["trace_id"] = new_trace_id()
        return response

    def handle(self, request: dict) -> dict:
        """Dispatch one parsed request to its ``_method_*`` handler.

        Always returns a response object; every failure mode maps to an
        ``ok: false`` response with a stable ``error_code`` — the loop (and
        the server connection above it) survives anything a query throws.

        Telemetry contract: every response carries a ``trace_id`` (a
        client-supplied one is honoured, so the front-door server can stamp
        requests before dispatch); ``"trace": true`` on any request wraps
        the handler in a trace and returns the span tree under ``trace``;
        each request lands in ``requests_total``/``request_seconds``.
        """
        request_id = request.get("id")
        self.requests_handled += 1
        trace_id = request.get("trace_id")
        trace_id = str(trace_id) if trace_id else new_trace_id()
        method = request.get("method")
        started = time.perf_counter()
        trace = None
        try:
            if not isinstance(method, str):
                raise ProtocolError("missing `method`")
            handler = getattr(self, f"_method_{method}", None)
            if handler is None:
                raise ProtocolError(f"unknown method {method!r}")
            params = request.get("params", {})
            if not isinstance(params, dict):
                raise ProtocolError("`params` must be an object")
            if request.get("trace") is True:
                with start_trace(method, trace_id=trace_id) as trace:
                    result = handler(params)
            else:
                result = handler(params)
            response = {"id": request_id, "ok": True, "result": result}
        except QueryError as error:
            response = error_response(request_id, str(error), error.code)
        except ProtocolError as error:
            response = error_response(request_id, str(error), error.code)
        except ReproError as error:
            response = error_response(request_id, str(error), "repro_error")
        except (KeyError, TypeError, ValueError) as error:
            response = error_response(request_id, f"bad request: {error}", "bad_request")
        except Exception as error:  # the loop survives anything a query throws
            response = error_response(
                request_id,
                f"internal error: {type(error).__name__}: {error}",
                "internal_error",
            )
        elapsed = time.perf_counter() - started
        get_registry().histogram(
            "request_seconds", method=method if isinstance(method, str) else "invalid"
        ).observe(elapsed)
        count_request(method, "ndjson", response)
        response["trace_id"] = trace_id
        if trace is not None:
            response["trace"] = trace.to_dict()
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
        config = condition_from_params(params)
        source = params.get("source")
        if source is not None:
            # Open-and-analyze in one request: the single round trip whose
            # trace covers the whole pipeline (parse → fixpoint → cache).
            # Callers routing through the concurrent server take the write
            # lock for it (see repro.service.server.is_write_request).
            if not isinstance(source, str):
                raise ProtocolError("`source` must be a string when present")
            self._method_open(params)
        return self.session.analyze(function=params.get("function"), config=config)

    def _method_slice(self, params: dict) -> dict:
        function = params.get("function")
        variable = params.get("variable")
        if not isinstance(function, str) or not isinstance(variable, str):
            raise ProtocolError("`slice` needs string `function` and `variable`")
        unit = params.get("unit")
        return self.session.slice(
            function,
            variable,
            direction=str(params.get("direction", "backward")),
            config=condition_from_params(params),
            unit=str(unit) if unit is not None else None,
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
            secret_types=_string_list_param(params, "secret_types"),
            secret_variables=_string_list_param(params, "secret_variables"),
            sinks=_string_list_param(params, "sinks"),
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
    """Run the request/response loop until EOF or ``shutdown``; returns 0.

    A line longer than :data:`MAX_REQUEST_CHARS` is answered with one
    ``request_too_large`` error, and the loop stops reading.
    """
    service = AnalysisService(session)

    def emit(response: dict) -> None:
        out_stream.write(json.dumps(response, sort_keys=True) + "\n")
        try:
            out_stream.flush()
        except (AttributeError, OSError):
            pass

    for line in iter(lambda: in_stream.readline(MAX_REQUEST_CHARS + 1), ""):
        if len(line) > MAX_REQUEST_CHARS:
            emit(service.reject_line(
                "request_too_large",
                f"request line exceeds {MAX_REQUEST_CHARS} characters",
            ))
            break
        line = line.strip()
        if not line:
            continue
        emit(service.handle_line(line))
        if service.shutdown_requested:
            break
    return 0
