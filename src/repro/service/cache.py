"""Content-addressed result cache: the persistence layer of the service.

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
entry, named by the SHA-256 of the key).  It holds three kinds of value,
each derived from one analysis of one function and served to queries:
analysis records, focus tables and call flows.  It is the session's only
cache of flow results; engines keep none, and memoise only whole-program
callee summaries, for one workspace generation.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple

from repro.core.analysis import FunctionFlowResult
from repro.core.config import AnalysisConfig
from repro.mir.callgraph import CallGraph
from repro.mir.lower import LoweredProgram
from repro.mir.pretty import pretty_body
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span


# Cached-value kinds: a per-function analysis record served to ``analyze``,
# a precomputed all-places focus table served to focus and slice queries,
# and the dependencies at each call that ``ifc`` checks a policy against.
KIND_RECORD = "record"
KIND_FOCUS = "focus"
KIND_CALLS = "calls"

# On-disk / wire format version of cached values.  Bumped to 2 when records
# moved to a compact index form (a per-record location table plus integer
# indices) and body fingerprints started covering the interning-table digest;
# bumped to 3 when focus tables stopped storing spans and gained a
# place-to-entry index, so a warm query decodes just the entry it needs;
# bumped to 4 when a record shrank to its per-variable dependency sizes;
# bumped to 5 when a focus table shrank to its entries and place index, and
# the store stopped holding whole-program summaries; bumped to 6 when the
# store gained the ``calls`` kind and body fingerprints stopped covering the
# interning-table digest.  The version participates in every key digest, so
# entries written by an older release are simply unreachable rather than
# misdecoded.
CACHE_FORMAT_VERSION = 6


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@functools.lru_cache(maxsize=64)
def config_cache_key(config: AnalysisConfig) -> str:
    """A canonical, order-stable rendering of every field of ``config``.

    Derived from the dataclass itself so a future ``AnalysisConfig`` field
    automatically becomes part of the key instead of silently colliding
    results from different configurations.  Every store key and engine
    lookup needs it, and configurations are frozen and few (the wire names
    eight), so each is rendered once.
    """
    parts = []
    for f in dataclasses.fields(AnalysisConfig):
        value = getattr(config, f.name)
        parts.append(f"{f.name}={int(value) if isinstance(value, bool) else value}")
    return ",".join(parts)


def condition_is_whole_program(condition: str) -> bool:
    """Whether a rendered condition key names the whole-program condition."""
    return "whole_program=1" in condition.split(",")


class CacheKey(NamedTuple):
    """Identity of one cached value.

    A plain tuple of four strings, so hashing and comparing a key on every
    store lookup run in C.
    """

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

    ``previous``, the index of an earlier program, lends the fingerprints
    it already computed for the very ``Body`` and ``FnSig`` objects this
    program still holds.  Only the fingerprint strings are copied, so the
    new index keeps nothing of the earlier program alive.
    """

    def __init__(
        self,
        lowered: LoweredProgram,
        signatures: Dict[str, object],
        local_crate: str,
        call_graph: CallGraph,
        previous: Optional["FingerprintIndex"] = None,
    ):
        self.lowered = lowered
        self.signatures = signatures
        self.local_crate = local_crate
        self.call_graph = call_graph
        self._sig: Dict[str, str] = {}
        self._body: Dict[str, Optional[str]] = {}
        self._shallow: Dict[str, str] = {}
        self._cone: Dict[str, str] = {}
        if previous is not None:
            bodies, previous_bodies = lowered.bodies, previous.lowered.bodies
            for name, fingerprint in previous._body.items():
                if fingerprint is not None and bodies.get(name) is previous_bodies.get(name):
                    self._body[name] = fingerprint
            previous_signatures = previous.signatures
            for name, fingerprint in previous._sig.items():
                signature = signatures.get(name)
                if signature is not None and signature is previous_signatures.get(name):
                    self._sig[name] = fingerprint

    def signature_fingerprint(self, name: str) -> str:
        """Fingerprint of the function's rendered signature (any function)."""
        if name not in self._sig:
            sig = self.signatures.get(name)
            rendered = sig.pretty() if sig is not None else f"<unknown {name}>"
            self._sig[name] = _digest(rendered)
        return self._sig[name]

    def body_fingerprint(self, name: str) -> Optional[str]:
        """Fingerprint of the lowered body text (with its crate), or
        ``None`` for extern fns."""
        if name not in self._body:
            body = self.lowered.body(name)
            self._body[name] = (
                None if body is None else _digest(f"{body.crate}::{pretty_body(body)}")
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

    def key(self, kind: str, name: str, config: AnalysisConfig) -> CacheKey:
        """Store key for the function's value of ``kind`` under ``config``.

        Every kind derives from the same analysis result, so all share the
        record fingerprint: an edit that would change one orphans them all.
        """
        return CacheKey(
            kind=kind,
            fn_name=name,
            fingerprint=self.record_fingerprint(name, config),
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
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    tier = "memory"
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
    """The query-facing cached result of analysing one function: what
    ``analyze`` answers, the size of each local's dependency set at exit.

    Stored as that mapping and nothing else (since cache format 4).  The
    function, its fingerprint and its condition are the entry's key.
    """

    dependency_sizes: Dict[str, int]

    def to_json_dict(self) -> Dict[str, int]:
        """The record as the JSON value stored in the :class:`SummaryStore`."""
        return dict(self.dependency_sizes)

    @classmethod
    def from_json_dict(cls, data: Dict[str, int]) -> "FunctionRecord":
        """Rebuild a record from :meth:`to_json_dict` output."""
        return cls(dependency_sizes={str(k): int(v) for k, v in data.items()})

    @classmethod
    def from_result(cls, result: FunctionFlowResult) -> "FunctionRecord":
        """The record of a fresh analysis result."""
        return cls(dependency_sizes=result.dependency_sizes())

