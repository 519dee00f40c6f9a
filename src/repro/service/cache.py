"""Content-addressed summary cache: the persistence layer of the service.

Keys are *content fingerprints*, not positions: a function's cache key hashes
the text of everything its result can depend on.  Under the modular condition
that is just its own lowered body plus the **signatures** of its direct
callees (the paper's Section 2.3 rule: a call is approximated from the callee
type alone).  Under the whole-program condition it is the lowered bodies of
the function's entire reachable call-graph cone within the local crate.  An
edit therefore changes exactly the keys of the functions whose results could
change — stale entries become unreachable garbage rather than wrong answers,
and :mod:`repro.service.invalidate` exists to *reclaim* them, not to keep the
cache correct.

The store has two tiers: an in-memory LRU of JSON-serialisable values, and an
optional directory of JSON files that survives the process (one file per
entry, named by the SHA-256 of the key).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.analysis import FunctionFlowResult
from repro.core.config import AnalysisConfig
from repro.core.engine import FlowEngine, RecursiveSummaryProvider
from repro.core.summaries import WholeProgramSummary
from repro.core.theta import is_arg_location
from repro.mir.callgraph import CallGraph
from repro.mir.indices import index_body
from repro.mir.ir import Body, Location, Place, RETURN_LOCAL
from repro.mir.lower import LoweredProgram
from repro.mir.pretty import pretty_body
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span


# Cached-value kinds: a per-function analysis record served to queries, a
# parameter-level whole-program summary consumed by the recursive provider,
# and a precomputed all-places focus table served to cursor queries.
KIND_RECORD = "record"
KIND_SUMMARY = "summary"
KIND_FOCUS = "focus"

# On-disk / wire format version of cached values.  Bumped to 2 when records
# moved to the compact index form (a per-record location table plus integer
# indices) and body fingerprints started covering the interning-table digest;
# the version participates in every key digest, so entries written by an
# older release are simply unreachable rather than misdecoded.
CACHE_FORMAT_VERSION = 2


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def config_cache_key(config: AnalysisConfig) -> str:
    """A canonical, order-stable rendering of every field of ``config``.

    Derived from the dataclass itself so a future ``AnalysisConfig`` field
    automatically becomes part of the key instead of silently colliding
    results from different configurations.
    """
    parts = []
    for f in dataclasses.fields(AnalysisConfig):
        value = getattr(config, f.name)
        parts.append(f"{f.name}={int(value) if isinstance(value, bool) else value}")
    return ",".join(parts)


def condition_is_whole_program(condition: str) -> bool:
    """Whether a rendered condition key names the whole-program condition."""
    return "whole_program=1" in condition.split(",")


@dataclass(frozen=True)
class CacheKey:
    """Identity of one cached value."""

    kind: str
    fn_name: str
    fingerprint: str
    condition: str

    def file_name(self) -> str:
        """The disk-tier file name: a digest of the full key, ``.json``."""
        return _digest(
            f"v{CACHE_FORMAT_VERSION}|{self.kind}|{self.fn_name}|"
            f"{self.fingerprint}|{self.condition}"
        ) + ".json"

    def to_json_dict(self) -> Dict[str, str]:
        """The key's JSON form (stored next to the value for verification)."""
        return {
            "kind": self.kind,
            "fn_name": self.fn_name,
            "fingerprint": self.fingerprint,
            "condition": self.condition,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, str]) -> "CacheKey":
        """Rebuild a key from :meth:`to_json_dict` output."""
        return cls(
            kind=str(data["kind"]),
            fn_name=str(data["fn_name"]),
            fingerprint=str(data["fingerprint"]),
            condition=str(data["condition"]),
        )


class FingerprintIndex:
    """Fingerprints of every function of one checked+lowered program.

    ``signature_fingerprint`` covers extern and cross-crate functions (the
    modular analysis only ever sees their signatures); ``body_fingerprint``
    covers local bodies; ``shallow_fingerprint`` and ``cone_fingerprint`` are
    the per-condition cache keys described in the module docstring.
    """

    def __init__(
        self,
        lowered: LoweredProgram,
        signatures: Dict[str, object],
        local_crate: str,
        call_graph: CallGraph,
    ):
        self.lowered = lowered
        self.signatures = signatures
        self.local_crate = local_crate
        self.call_graph = call_graph
        self._sig: Dict[str, str] = {}
        self._body: Dict[str, Optional[str]] = {}
        self._shallow: Dict[str, str] = {}
        self._cone: Dict[str, str] = {}

    def signature_fingerprint(self, name: str) -> str:
        """Fingerprint of the function's rendered signature (any function)."""
        if name not in self._sig:
            sig = self.signatures.get(name)
            rendered = sig.pretty() if sig is not None else f"<unknown {name}>"
            self._sig[name] = _digest(rendered)
        return self._sig[name]

    def body_fingerprint(self, name: str) -> Optional[str]:
        """Fingerprint of the lowered body text, or ``None`` for extern fns.

        Covers the body's interning tables too (their digest is derived from
        the same body, so content addressing is unchanged): summaries and
        records are serialised in index form, and a value must never be
        decoded against tables other than the ones it was encoded with.
        """
        if name not in self._body:
            body = self.lowered.body(name)
            if body is None:
                self._body[name] = None
            else:
                tables = index_body(body, seed_statements=True)
                self._body[name] = _digest(
                    f"{body.crate}::{pretty_body(body)}|tables={tables.digest()}"
                )
        return self._body[name]

    def _node_fingerprint(self, name: str) -> str:
        """Body fingerprint for local-crate bodies, signature otherwise —
        mirroring which information the whole-program analysis may use."""
        body = self.lowered.body(name)
        if body is not None and body.crate == self.local_crate:
            return self.body_fingerprint(name) or self.signature_fingerprint(name)
        return self.signature_fingerprint(name)

    def shallow_fingerprint(self, name: str) -> str:
        """Modular-condition key: own body + direct callees' signatures."""
        if name not in self._shallow:
            parts = [self.body_fingerprint(name) or self.signature_fingerprint(name)]
            for callee in self.call_graph.unique_callees(name):
                parts.append(f"{callee}={self.signature_fingerprint(callee)}")
            self._shallow[name] = _digest("|".join(parts))
        return self._shallow[name]

    def cone_fingerprint(self, name: str) -> str:
        """Whole-program-condition key: the reachable call-graph cone."""
        if name not in self._cone:
            parts = []
            for node in sorted(self.call_graph.reachable_from(name) | {name}):
                parts.append(f"{node}={self._node_fingerprint(node)}")
            self._cone[name] = _digest("|".join(parts))
        return self._cone[name]

    def record_fingerprint(self, name: str, config: AnalysisConfig) -> str:
        """The content fingerprint a query under ``config`` is keyed by."""
        if config.whole_program:
            return self.cone_fingerprint(name)
        return self.shallow_fingerprint(name)

    def record_key(self, name: str, config: AnalysisConfig) -> CacheKey:
        """Store key for the function's query-facing analysis record."""
        return CacheKey(
            kind=KIND_RECORD,
            fn_name=name,
            fingerprint=self.record_fingerprint(name, config),
            condition=config_cache_key(config),
        )

    def focus_key(self, name: str, config: AnalysisConfig) -> CacheKey:
        """Key for the function's precomputed focus table.

        Focus tables derive from the same analysis result as records, so
        they share the record fingerprint — an edit that would change the
        record also orphans the table.
        """
        return CacheKey(
            kind=KIND_FOCUS,
            fn_name=name,
            fingerprint=self.record_fingerprint(name, config),
            condition=config_cache_key(config),
        )

    def summary_key(self, name: str, config: AnalysisConfig) -> CacheKey:
        """Store key for a callee's whole-program summary (cone-addressed)."""
        return CacheKey(
            kind=KIND_SUMMARY,
            fn_name=name,
            fingerprint=self.cone_fingerprint(name),
            condition=config_cache_key(config),
        )

    def snapshot(self) -> Dict[str, Tuple[str, Optional[str]]]:
        """(signature fp, body fp) per known function — the edit-diff input."""
        names = set(self.call_graph.nodes) | set(self.lowered.bodies) | set(self.signatures)
        return {
            name: (self.signature_fingerprint(name), self.body_fingerprint(name))
            for name in names
        }


@dataclass
class CacheStats:
    """Counters surfaced in service responses (`stats` blocks)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    invalidations: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    corrupt_records: int = 0  # undecodable disk records moved aside

    def to_dict(self) -> Dict[str, int]:
        """The counters as the JSON ``stats`` block responses carry."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "corrupt_records": self.corrupt_records,
        }


class SummaryStore:
    """Two-tier (memory LRU + optional JSON directory) cache of JSON values.

    The store is thread-safe: every public operation holds an internal
    reentrant lock, so the concurrent server can share one store across many
    reader threads (LRU reordering and stats counters mutate on ``get``, so
    even logically read-only traffic needs the lock).
    """

    def __init__(self, max_entries: int = 4096, disk_dir: Optional[Path] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, dict]" = OrderedDict()
        # Every key seen this process, per function name: the index used by
        # name-based invalidation (content addressing already guarantees that
        # stale entries can never be *served*; this lets us reclaim them).
        self._by_name: Dict[str, Set[CacheKey]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    # -- tiers -----------------------------------------------------------------

    def _disk_path(self, key: CacheKey) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / key.file_name()

    def _load_from_disk(self, key: CacheKey) -> Optional[dict]:
        path = self._disk_path(key)
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except ValueError:  # truncated or garbled bytes (UTF-8 or JSON)
            payload = None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if payload.get("key") != key.to_json_dict():
            # Hash-prefix collision or foreign file: never serve it.
            return None
        value = payload.get("value")
        if not isinstance(value, dict):
            self._quarantine(path)
            return None
        return value

    def _quarantine(self, path: Path) -> None:
        """Move an undecodable record aside as ``*.corrupt``: it is counted
        once, never re-read, and the next ``put`` fills the slot again."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass
        self.stats.corrupt_records += 1
        obs_metrics.get_registry().counter("cache_corrupt_records_total").inc()

    def _write_to_disk(self, key: CacheKey, value: dict) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            _write_record(path, key, value)
            self.stats.disk_writes += 1
        except OSError:
            pass  # The disk tier is best-effort; memory stays authoritative.

    # -- public API -------------------------------------------------------------

    def get(self, key: CacheKey) -> Optional[dict]:
        """The cached value for ``key``, consulting memory then disk.

        A memory hit refreshes the entry's LRU position; a disk hit promotes
        the entry back into the memory tier.  Returns ``None`` on a miss.
        """
        with obs_span("cache_get", kind=key.kind) as sp:
            tier = "miss"
            value: Optional[dict] = None
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    tier = "memory"
                    value = self._entries[key]
                else:
                    value = self._load_from_disk(key)
                    if value is not None:
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                        self._insert(key, value, write_disk=False)
                        tier = "disk"
                    else:
                        self.stats.misses += 1
            obs_metrics.get_registry().counter(
                "cache_get_total", kind=key.kind, tier=tier
            ).inc()
            if sp is not None:
                sp.set(tier=tier, fn=key.fn_name)
            return value

    def put(self, key: CacheKey, value: dict) -> None:
        """Store ``value`` under ``key`` in memory and (if enabled) on disk."""
        with obs_span("cache_put", kind=key.kind) as sp:
            with self._lock:
                self._insert(key, value, write_disk=True)
                self.stats.puts += 1
            obs_metrics.get_registry().counter("cache_put_total", kind=key.kind).inc()
            if sp is not None:
                sp.set(fn=key.fn_name)

    def _insert(self, key: CacheKey, value: dict, write_disk: bool) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._by_name.setdefault(key.fn_name, set()).add(key)
        while len(self._entries) > self.max_entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self.disk_dir is None:
                # Nothing left to reclaim for this key: drop its name-index
                # entry too, or a long-lived session leaks one key per edit.
                names = self._by_name.get(evicted_key.fn_name)
                if names is not None:
                    names.discard(evicted_key)
            # With a disk tier the entry stays on disk (and in the name
            # index, so invalidation can still unlink the file): the LRU
            # bounds memory, not persistence.
        if write_disk:
            self._write_to_disk(key, value)

    def invalidate_function(
        self, fn_name: str, predicate: Optional[Callable[[CacheKey], bool]] = None
    ) -> int:
        """Drop every known entry for ``fn_name`` (memory and disk).

        ``predicate`` restricts which keys are dropped (e.g. only
        whole-program conditions).  Returns the number of entries removed.
        """
        with self._lock:
            removed = 0
            keys = sorted(
                self._by_name.get(fn_name, ()),
                key=lambda k: (k.kind, k.condition, k.fingerprint),
            )
            for key in keys:
                if predicate is not None and not predicate(key):
                    continue
                self._by_name[fn_name].discard(key)
                in_memory = self._entries.pop(key, None) is not None
                on_disk = False
                path = self._disk_path(key)
                if path is not None and path.is_file():
                    try:
                        path.unlink()
                        on_disk = True
                    except OSError:
                        pass
                if in_memory or on_disk:
                    removed += 1
            self.stats.invalidations += removed
            return removed

    def clear(self) -> None:
        """Wipe both tiers: a cleared entry must not resurrect from disk."""
        with self._lock:
            self._entries.clear()
            self._by_name.clear()
            if self.disk_dir is not None:
                for path in self.disk_dir.glob("*.json"):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def flush_to(self, disk_dir: Path) -> int:
        """Write every in-memory entry into ``disk_dir`` (the disk-tier format).

        Used by workspace persistence to snapshot a memory-only store into a
        directory that a future :class:`SummaryStore` can adopt as its disk
        tier.  When ``disk_dir`` is already this store's own disk tier the
        entries were written through on ``put`` and this is a cheap no-op
        refresh.  Returns the number of entries written.
        """
        with self._lock:
            disk_dir = Path(disk_dir)
            disk_dir.mkdir(parents=True, exist_ok=True)
            written = 0
            for key, value in self._entries.items():
                try:
                    _write_record(disk_dir / key.file_name(), key, value)
                    written += 1
                except OSError:
                    continue
            return written


def _write_record(path: Path, key: CacheKey, value: dict) -> None:
    """Write one disk-tier record atomically: the bytes go to a temp file
    beside ``path`` that ``os.replace`` then renames over it, so a reader
    sees the old record or the new one, never a half-written one."""
    temp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        temp.write_text(
            json.dumps({"key": key.to_json_dict(), "value": value}, sort_keys=True),
            encoding="utf-8",
        )
        os.replace(temp, path)
    except OSError:
        try:
            temp.unlink()
        except OSError:
            pass
        raise


@dataclass
class FunctionRecord:
    """The query-facing cached result of analysing one function.

    Serialised in the **compact index form** (cache format version
    {CACHE_FORMAT_VERSION}): the record carries one interning table —
    ``locations``, the sorted ``[block, statement]`` pairs the exit state
    mentions, with the synthetic argument tags in their in-engine encoding
    (``block == -2``) — and every per-variable dependency list is a list of
    integer indices into it.  Dependency sets overlap heavily across
    variables (that is what Θ's join produces), so the table is written once
    instead of per variable, and the record round-trips losslessly.
    """

    fn_name: str
    crate: str
    condition: str
    fingerprint: str
    dependency_sizes: Dict[str, int]
    exit_deps: Dict[str, List[Tuple[int, int]]]

    def to_json_dict(self) -> dict:
        """The record as the JSON value stored in the :class:`SummaryStore`."""
        table: List[Tuple[int, int]] = sorted(
            {loc for locs in self.exit_deps.values() for loc in locs}
        )
        index = {loc: i for i, loc in enumerate(table)}
        return {
            "format": CACHE_FORMAT_VERSION,
            "fn_name": self.fn_name,
            "crate": self.crate,
            "condition": self.condition,
            "fingerprint": self.fingerprint,
            "dependency_sizes": dict(self.dependency_sizes),
            "locations": [list(loc) for loc in table],
            "exit_deps": {
                var: [index[loc] for loc in locs]
                for var, locs in self.exit_deps.items()
            },
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FunctionRecord":
        """Rebuild a record from :meth:`to_json_dict` output (lossless)."""
        table = [(int(loc[0]), int(loc[1])) for loc in data["locations"]]
        return cls(
            fn_name=str(data["fn_name"]),
            crate=str(data["crate"]),
            condition=str(data["condition"]),
            fingerprint=str(data["fingerprint"]),
            dependency_sizes={str(k): int(v) for k, v in data["dependency_sizes"].items()},
            exit_deps={
                str(var): [table[int(i)] for i in indices]
                for var, indices in data["exit_deps"].items()
            },
        )

    @classmethod
    def from_result(
        cls, result: FunctionFlowResult, fingerprint: str, condition: str
    ) -> "FunctionRecord":
        """Serialise a fresh analysis result into its cacheable record."""
        body = result.body
        theta = result.exit_theta
        exit_deps: Dict[str, List[Tuple[int, int]]] = {}
        for local in body.locals:
            if local.index == RETURN_LOCAL:
                label = "<return>"
            else:
                label = local.name if local.name is not None else f"_{local.index}"
            deps = theta.read_conflicts(Place.from_local(local.index))
            exit_deps[label] = sorted((loc.block, loc.statement) for loc in deps)
        return cls(
            fn_name=body.fn_name,
            crate=body.crate,
            condition=condition,
            fingerprint=fingerprint,
            dependency_sizes=result.dependency_sizes(),
            exit_deps=exit_deps,
        )

    # -- derived views ----------------------------------------------------------

    def deps_of(self, variable: str) -> List[Location]:
        """The variable's exit-Θ dependency locations, deserialised."""
        if variable not in self.exit_deps:
            raise KeyError(f"function {self.fn_name!r} has no variable {variable!r}")
        return [Location(block, statement) for block, statement in self.exit_deps[variable]]

    def backward_slice_locations(self, variable: str) -> List[Location]:
        """Backward slice of ``variable`` at exit: its non-argument deps."""
        return [loc for loc in self.deps_of(variable) if not is_arg_location(loc)]


class StoreBackedSummaryProvider(RecursiveSummaryProvider):
    """Recursive whole-program provider that round-trips callee summaries
    through a :class:`SummaryStore`.

    Summary keys use the callee's *cone* fingerprint, so a stored summary is
    served only while every body it transitively depends on is unchanged.
    Each value also records the summary's computation height — the provider
    uses it to refuse hits that the current recursion's depth budget could
    not have computed fresh, keeping warm results byte-equal to cold ones.
    """

    def __init__(self, engine: FlowEngine, store: SummaryStore, fingerprints: FingerprintIndex):
        super().__init__(engine, root_crate=engine.local_crate)
        self.store = store
        self.fingerprints = fingerprints

    def lookup_summary(
        self, callee: str, body: Body
    ) -> Optional[Tuple[WholeProgramSummary, int]]:
        """A stored ``(summary, height)`` for ``callee``, or ``None`` on miss."""
        key = self.fingerprints.summary_key(callee, self.engine.config)
        data = self.store.get(key)
        if data is None or "summary" not in data:
            return None
        return (
            WholeProgramSummary.from_json_dict(data["summary"]),
            int(data.get("height", 1)),
        )

    def store_summary(
        self, callee: str, body: Body, summary: WholeProgramSummary, height: int
    ) -> None:
        """Persist a freshly computed callee summary with its height."""
        key = self.fingerprints.summary_key(callee, self.engine.config)
        self.store.put(key, {"summary": summary.to_json_dict(), "height": height})
