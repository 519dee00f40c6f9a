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

:data:`PARAMS` declares every method and its params, and each request is
checked against it before dispatch.  The concurrent front door
(:mod:`repro.service.server`) serves the same protocol on sockets and adds
the mux-level ``workspace`` method.  ``docs/PROTOCOL.md`` documents every
request/response shape with replayable transcripts.

Telemetry: every response carries a ``trace_id``; any request may set
``"trace": true`` (top level, next to ``method``) to get the request's span
tree back under ``trace``.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import reprlib
import time
from typing import IO, Callable, Dict, NamedTuple, Optional, Tuple

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
    """A malformed request envelope (unknown method, ``params`` not an object)."""

    code = "protocol_error"


class MalformedRequest(ProtocolError):
    """A request line that is not a JSON object."""

    code = "parse_error"


class InvalidParams(ProtocolError):
    """A request param its method does not take, lacks, or has the wrong type of."""

    code = QueryError.INVALID_PARAMS


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
        method=method_label(method),
        protocol=protocol,
        status="ok" if response.get("ok") else "error",
    ).inc()


# -- the request schema ----------------------------------------------------------

# The paper's three evaluation conditions are the only flags a request sets.
CONDITION_FLAGS = ("whole_program", "mut_blind", "ref_blind")


class ParamType(NamedTuple):
    """A JSON type a param takes: its name in ``docs/PROTOCOL.md`` and its test."""

    name: str
    accepts: Callable[[object], bool]


def one_of(*choices: str) -> ParamType:
    """A string from a fixed set."""
    return ParamType("one of " + ", ".join(map(json.dumps, choices)), lambda v: v in choices)


STRING = ParamType("string", lambda v: isinstance(v, str))
INTEGER = ParamType("integer", lambda v: type(v) is int)  # a JSON boolean is no integer
BOOLEAN = ParamType("boolean", lambda v: type(v) is bool)
STRINGS = ParamType(
    "array of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)
)
CONDITION = ParamType(
    "object of boolean flags " + ", ".join(CONDITION_FLAGS),
    lambda v: isinstance(v, dict)
    and set(v) <= set(CONDITION_FLAGS)
    and all(type(flag) is bool for flag in v.values()),
)
REQUIRED = object()  # the default of a param every request must send
_CONDITION = {"condition": (CONDITION, None)}

# Every method's params, name -> (type, default or REQUIRED).  A default of
# None means absent: a client never sends ``null``.  ``workspace`` is the
# socket mux's own method (repro.service.server).
PARAMS: Dict[str, Dict[str, Tuple[ParamType, object]]] = {
    "open": {"source": (STRING, REQUIRED), "unit": (STRING, "main"),
             "local_crate": (STRING, None)},
    "update": {"source": (STRING, REQUIRED), "unit": (STRING, "main")},
    "close": {"unit": (STRING, "main")},
    # ``source``, ``unit`` and ``local_crate`` open a unit before analysing.
    "analyze": {"function": (STRING, None), "source": (STRING, None), "unit": (STRING, "main"),
                "local_crate": (STRING, None), **_CONDITION},
    "slice": {"function": (STRING, REQUIRED), "variable": (STRING, REQUIRED),
              "direction": (one_of("backward", "forward"), "backward"),
              "unit": (STRING, None), **_CONDITION},
    "focus": {"line": (INTEGER, None), "col": (INTEGER, None),
              "function": (STRING, None), "variable": (STRING, None),
              "direction": (one_of("backward", "forward", "both"), "both"),
              "unit": (STRING, None), **_CONDITION},
    "ifc": {"secret_types": (STRINGS, ()), "secret_variables": (STRINGS, ()),
            "sinks": (STRINGS, ()), **_CONDITION},
    "warm": _CONDITION,
    "stats": {}, "metrics": {}, "version": {}, "ping": {}, "shutdown": {},
    "workspace": {"name": (STRING, None), "create": (BOOLEAN, False)},
}


def method_label(method) -> str:
    """A request's ``method`` metric label: ``invalid`` unless in :data:`PARAMS`."""
    return method if isinstance(method, str) and method in PARAMS else "invalid"


def checked_params(method: str, params) -> dict:
    """``params`` of a ``method`` request checked against :data:`PARAMS`,
    with every default filled in.

    ``params`` that is not an object is a :class:`ProtocolError`.  An unknown
    param, a missing required one or a value of the wrong type (``null``
    included) is ``invalid_params``, naming the method, the param and the value.
    """
    if not isinstance(params, dict):
        raise ProtocolError("`params` must be an object")
    schema = PARAMS[method]
    for name, value in params.items():
        if name not in schema:
            raise InvalidParams(f"`{method}` has no param `{name}` (got {reprlib.repr(value)})")
        kind = schema[name][0]
        if not kind.accepts(value):
            raise InvalidParams(
                f"`{method}` param `{name}` takes {kind.name}, got {reprlib.repr(value)}"
            )
    for name, (_, default) in schema.items():
        if default is REQUIRED and name not in params:
            raise InvalidParams(f"`{method}` needs param `{name}`")
    return {name: params.get(name, default) for name, (_, default) in schema.items()}


def condition_from_params(params: dict) -> Optional[AnalysisConfig]:
    """The :class:`AnalysisConfig` a request's checked ``condition`` selects."""
    condition = params.get("condition")
    return None if condition is None else AnalysisConfig(**condition)


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
        requests before dispatch); ``"trace": true`` returns the span tree
        under ``trace``; each request lands in ``requests_total`` and
        ``request_seconds`` under :func:`method_label`.
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
            if handler is None or method not in PARAMS:
                raise ProtocolError(f"unknown method {method!r}")
            params = checked_params(method, request.get("params", {}))
            if request.get("trace") is True:
                with start_trace(method, trace_id=trace_id) as trace:
                    result = handler(params)
            else:
                result = handler(params)
            response = {"id": request_id, "ok": True, "result": result}
        except ReproError as error:
            response = error_response(request_id, str(error), error.code)
        except Exception as error:  # the loop survives anything a query throws
            message = f"internal error: {type(error).__name__}: {error}"
            response = error_response(request_id, message, "internal_error")
        elapsed = time.perf_counter() - started
        get_registry().histogram("request_seconds", method=method_label(method)).observe(elapsed)
        count_request(method, "ndjson", response)
        response["trace_id"] = trace_id
        if trace is not None:
            response["trace"] = trace.to_dict()
        return response

    # -- methods -----------------------------------------------------------------

    def _method_ping(self, params: dict) -> dict:
        return {"pong": True, "version": __version__, "requests_handled": self.requests_handled}

    def _method_version(self, params: dict) -> dict:
        return {"name": "repro-flowistry", "version": __version__}

    def _method_open(self, params: dict) -> dict:
        return self.session.open_units(
            [(params["unit"], params["source"])], local_crate=params["local_crate"]
        )

    def _method_update(self, params: dict) -> dict:
        return self.session.update_unit(params["unit"], params["source"])

    def _method_close(self, params: dict) -> dict:
        return self.session.close_unit(params["unit"])

    def _method_analyze(self, params: dict) -> dict:
        if params["source"] is not None:
            # Open-and-analyze in one request: the single round trip whose
            # trace covers the whole pipeline (parse → fixpoint → cache).
            # Callers routing through the concurrent server take the write
            # lock for it (see repro.service.server.is_write_request).
            self._method_open(params)
        return self.session.analyze(params["function"], config=condition_from_params(params))

    def _method_slice(self, params: dict) -> dict:
        return self.session.slice(
            params["function"], params["variable"], direction=params["direction"],
            config=condition_from_params(params), unit=params["unit"],
        )

    def _method_focus(self, params: dict) -> dict:
        return self.session.focus(
            line=params["line"], col=params["col"], function=params["function"],
            variable=params["variable"], direction=params["direction"],
            config=condition_from_params(params), unit=params["unit"],
        )

    def _method_ifc(self, params: dict) -> dict:
        return self.session.ifc(
            params["secret_types"], params["secret_variables"], params["sinks"],
            config=condition_from_params(params),
        )

    def _method_warm(self, params: dict) -> dict:
        return self.session.warm(config=condition_from_params(params))

    def _method_stats(self, params: dict) -> dict:
        return self.session.stats()

    def _method_metrics(self, params: dict) -> dict:
        """The process-wide metrics registry snapshot (cumulative since process
        start; :func:`repro.obs.snapshot_delta` diffs two), plus session counters."""
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
