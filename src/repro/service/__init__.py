"""Incremental analysis service.

The paper's headline claim is that *modular* flow analysis is fast enough for
interactive use (median ~370µs per function).  This package turns the one-shot
library into a long-lived service that exploits that modularity:

* :mod:`repro.service.cache` — a content-addressed :class:`SummaryStore`
  keyed by (function fingerprint, analysis condition) with an in-memory LRU
  tier and an optional JSON-on-disk tier,
* :mod:`repro.service.invalidate` — call-graph-aware invalidation: an edit
  evicts exactly the functions whose results could change (just the edited
  function under the modular condition — the paper's modularity payoff),
* :mod:`repro.service.scheduler` — the batch scheduler, one pass that
  analyses every local function into the store (``warm``), and the
  process-pool fan-out mass evaluation runs on,
* :mod:`repro.service.session` — the :class:`AnalysisSession` façade owning a
  mutable workspace of MiniRust sources and answering analyze/slice/ifc
  queries through the cache,
* :mod:`repro.service.protocol` — a line-delimited JSON request/response
  protocol driving a session over stdio (``repro serve`` / ``repro query``),
* :mod:`repro.service.locks` — the readers–writer lock shared sessions use,
* :mod:`repro.service.persist` — on-disk workspace persistence (manifest +
  cache tier) so a restarted server answers its first query warm,
* :mod:`repro.service.server` — the concurrent front door: a thread-pool TCP
  server speaking the same protocol to many clients over shared, RW-locked,
  persistent sessions (``repro serve --port``).
"""

from repro.service.cache import (
    CacheKey,
    CacheStats,
    FingerprintIndex,
    FunctionRecord,
    SummaryStore,
    config_cache_key,
)
from repro.service.invalidate import InvalidationPlan, apply_invalidation, plan_invalidation
from repro.service.locks import RWLock
from repro.service.persist import (
    has_workspace,
    list_workspaces,
    load_workspace,
    open_or_create_workspace,
    save_workspace,
)
from repro.service.scheduler import BatchResult, BatchScheduler
from repro.service.session import AnalysisSession
from repro.service.protocol import AnalysisService, serve
from repro.service.server import (
    ConnectionHandler,
    SessionHandle,
    ThreadedAnalysisServer,
    WorkspaceRegistry,
)

__all__ = [
    "AnalysisService",
    "AnalysisSession",
    "BatchResult",
    "BatchScheduler",
    "CacheKey",
    "CacheStats",
    "ConnectionHandler",
    "FingerprintIndex",
    "FunctionRecord",
    "InvalidationPlan",
    "RWLock",
    "SessionHandle",
    "SummaryStore",
    "ThreadedAnalysisServer",
    "WorkspaceRegistry",
    "apply_invalidation",
    "config_cache_key",
    "has_workspace",
    "list_workspaces",
    "load_workspace",
    "open_or_create_workspace",
    "plan_invalidation",
    "save_workspace",
    "serve",
]
