"""Tests for the content-addressed summary store and fingerprint index."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from helpers import HELPER_CALLER_SOURCE, analyze, lowered_from

from repro.core.config import MODULAR, WHOLE_PROGRAM, AnalysisConfig
from repro.mir.callgraph import build_call_graph
from repro.obs.metrics import get_registry
from repro.service.cache import (
    KIND_CALLS,
    KIND_FOCUS,
    KIND_RECORD,
    CacheKey,
    FingerprintIndex,
    FunctionRecord,
    SummaryStore,
    condition_is_whole_program,
    config_cache_key,
)
from repro.service.session import AnalysisSession


CHAIN_SOURCE = """
fn leaf(x: u32) -> u32 {
    x + 1
}

fn mid(x: u32) -> u32 {
    leaf(x) + 2
}

fn root(x: u32) -> u32 {
    mid(x) + 3
}
"""


def make_key(fn_name="f", fingerprint="abc", condition="wp=0", kind="record"):
    return CacheKey(kind=kind, fn_name=fn_name, fingerprint=fingerprint, condition=condition)


def fingerprints_for(source: str) -> FingerprintIndex:
    checked, lowered = lowered_from(source)
    return FingerprintIndex(
        lowered, checked.signatures, checked.program.local_crate, build_call_graph(lowered)
    )


class TestConfigCacheKey:
    def test_all_fields_distinguish(self):
        base = AnalysisConfig()
        variants = [
            AnalysisConfig(whole_program=True),
            AnalysisConfig(mut_blind=True),
            AnalysisConfig(ref_blind=True),
            AnalysisConfig(max_whole_program_depth=7),
            AnalysisConfig(strong_updates=False),
            AnalysisConfig(track_control_deps=False),
        ]
        keys = {config_cache_key(c) for c in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_whole_program_predicate(self):
        assert condition_is_whole_program(config_cache_key(WHOLE_PROGRAM))
        assert not condition_is_whole_program(config_cache_key(MODULAR))


class TestSummaryStore:
    def test_miss_then_hit(self):
        store = SummaryStore()
        key = make_key()
        assert store.get(key) is None
        store.put(key, {"v": 1})
        assert store.get(key) == {"v": 1}
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.puts == 1

    def test_lru_eviction_order(self):
        store = SummaryStore(max_entries=2)
        a, b, c = (make_key(fingerprint=fp) for fp in ("a", "b", "c"))
        store.put(a, {"v": "a"})
        store.put(b, {"v": "b"})
        assert store.get(a) == {"v": "a"}  # refresh a: b is now LRU
        store.put(c, {"v": "c"})
        assert store.stats.evictions == 1
        assert store.get(b) is None
        assert store.get(a) is not None
        assert store.get(c) is not None

    def test_memory_only_eviction_also_drops_name_index(self):
        store = SummaryStore(max_entries=2)
        for i in range(10):
            store.put(make_key(fingerprint=f"fp{i}"), {"v": i})
        # With no disk tier, evicted keys have nothing left to reclaim and
        # must not accumulate in the per-function key index.
        assert len(store._by_name["f"]) == 2

    def test_disk_tier_survives_store_instance(self, tmp_path):
        key = make_key()
        first = SummaryStore(disk_dir=tmp_path / "cache")
        first.put(key, {"v": 42})
        assert first.stats.disk_writes == 1

        second = SummaryStore(disk_dir=tmp_path / "cache")
        assert second.get(key) == {"v": 42}
        assert second.stats.disk_hits == 1
        # Promoted into memory: a second get is served without disk.
        assert second.get(key) == {"v": 42}
        assert second.stats.disk_hits == 1

    def test_disk_entry_validates_key(self, tmp_path):
        key = make_key()
        store = SummaryStore(disk_dir=tmp_path)
        store.put(key, {"v": 1})
        path = tmp_path / key.file_name()
        payload = json.loads(path.read_text())
        payload["key"]["fingerprint"] = "tampered"
        path.write_text(json.dumps(payload))

        fresh = SummaryStore(disk_dir=tmp_path)
        assert fresh.get(key) is None

    def test_truncated_record_is_quarantined_once(self, tmp_path):
        key = make_key()
        SummaryStore(disk_dir=tmp_path).put(key, {"v": 1})
        path = tmp_path / key.file_name()
        path.write_bytes(path.read_bytes()[:10])  # a torn write
        counter = get_registry().counter("cache_corrupt_records_total")
        before = counter.value

        store = SummaryStore(disk_dir=tmp_path)
        assert store.get(key) is None
        assert (store.stats.misses, store.stats.corrupt_records) == (1, 1)
        assert counter.value == before + 1
        assert not path.exists()
        assert (tmp_path / (key.file_name() + ".corrupt")).is_file()

        # Moved aside, so the next lookup is a plain miss, not a re-read.
        assert store.get(key) is None
        assert (store.stats.misses, store.stats.corrupt_records) == (2, 1)
        assert counter.value == before + 1

        store.put(key, {"v": 2})
        assert SummaryStore(disk_dir=tmp_path).get(key) == {"v": 2}

    def test_torn_disk_write_keeps_the_previous_record(self, tmp_path, monkeypatch):
        key = make_key()
        store = SummaryStore(disk_dir=tmp_path)
        store.put(key, {"v": 1})
        write_text = Path.write_text

        def torn_write(path, data, *args, **kwargs):
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", torn_write)
        store.put(key, {"v": 2})  # the disk tier is best-effort: no raise
        monkeypatch.undo()

        assert SummaryStore(disk_dir=tmp_path).get(key) == {"v": 1}
        assert [path.name for path in tmp_path.iterdir()] == [key.file_name()]

    def test_clear_also_wipes_the_disk_tier(self, tmp_path):
        key = make_key()
        store = SummaryStore(disk_dir=tmp_path)
        store.put(key, {"v": 1})
        store.clear()
        assert store.get(key) is None
        assert not (tmp_path / key.file_name()).exists()

    def test_invalidate_function_memory_and_disk(self, tmp_path):
        store = SummaryStore(disk_dir=tmp_path)
        mine = make_key(fn_name="f")
        other = make_key(fn_name="g")
        store.put(mine, {"v": 1})
        store.put(other, {"v": 2})
        removed = store.invalidate_function("f")
        assert removed == 1
        assert store.get(mine) is None
        assert store.get(other) == {"v": 2}
        assert not (tmp_path / mine.file_name()).exists()

    def test_invalidate_with_predicate_is_selective(self):
        store = SummaryStore()
        modular = make_key(condition=config_cache_key(MODULAR))
        whole = make_key(condition=config_cache_key(WHOLE_PROGRAM))
        store.put(modular, {"v": 1})
        store.put(whole, {"v": 2})
        removed = store.invalidate_function(
            "f", predicate=lambda k: condition_is_whole_program(k.condition)
        )
        assert removed == 1
        assert store.get(modular) is not None
        assert store.get(whole) is None


class TestFunctionRecord:
    def test_round_trip_preserves_sizes(self):
        result = analyze(HELPER_CALLER_SOURCE, "caller")
        record = FunctionRecord.from_result(result)
        rebuilt = FunctionRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
        assert rebuilt == record
        assert rebuilt.dependency_sizes == result.dependency_sizes()

    def test_warm_stores_the_sizes_and_nothing_else(self, tmp_path):
        session = AnalysisSession(cache_dir=str(tmp_path))
        session.open_unit("main", CHAIN_SOURCE)
        session.warm()
        engine = session.engine(MODULAR)
        for name in ("leaf", "mid", "root"):
            key = session._fingerprints.key(KIND_RECORD, name, MODULAR)
            sizes = engine.analyze_function(name).dependency_sizes()
            assert session.store.get(key) == sizes
            stored = json.loads((tmp_path / key.file_name()).read_text(encoding="utf-8"))
            assert stored == {"key": key.to_json_dict(), "value": sizes}

    def test_whole_program_analyze_stores_records_only(self, tmp_path):
        # Callee summaries stay in the engine: root's analysis reaches mid
        # and leaf, yet the store gains just the three records.
        session = AnalysisSession(cache_dir=str(tmp_path))
        session.open_unit("main", CHAIN_SOURCE)
        session.analyze(config=WHOLE_PROGRAM)
        stored = [json.loads(path.read_text(encoding="utf-8")) for path in tmp_path.glob("*.json")]
        assert sorted((s["key"]["kind"], s["key"]["fn_name"]) for s in stored) == [
            ("record", "leaf"),
            ("record", "mid"),
            ("record", "root"),
        ]


class TestFingerprintIndex:
    def test_body_edit_changes_only_edited_shallow_fingerprint(self):
        old = fingerprints_for(CHAIN_SOURCE)
        new = fingerprints_for(CHAIN_SOURCE.replace("x + 1", "x + 9"))
        assert old.shallow_fingerprint("leaf") != new.shallow_fingerprint("leaf")
        assert old.shallow_fingerprint("mid") == new.shallow_fingerprint("mid")
        assert old.shallow_fingerprint("root") == new.shallow_fingerprint("root")

    def test_body_edit_changes_cone_of_all_transitive_callers(self):
        old = fingerprints_for(CHAIN_SOURCE)
        new = fingerprints_for(CHAIN_SOURCE.replace("x + 1", "x + 9"))
        for name in ("leaf", "mid", "root"):
            assert old.cone_fingerprint(name) != new.cone_fingerprint(name)

    def test_signature_edit_changes_direct_caller_shallow_fingerprint(self):
        edited = CHAIN_SOURCE.replace(
            "fn leaf(x: u32)", "fn leaf(x: u32, y: u32)"
        ).replace("leaf(x)", "leaf(x, 0)")
        old = fingerprints_for(CHAIN_SOURCE)
        new = fingerprints_for(edited)
        assert old.shallow_fingerprint("mid") != new.shallow_fingerprint("mid")
        # root does not call leaf directly: its modular key is unaffected.
        assert old.shallow_fingerprint("root") == new.shallow_fingerprint("root")

    def test_key_selects_fingerprint_kind(self):
        index = fingerprints_for(CHAIN_SOURCE)
        for kind in (KIND_RECORD, KIND_FOCUS, KIND_CALLS):
            assert index.key(kind, "root", MODULAR).fingerprint == index.shallow_fingerprint(
                "root"
            )
            assert index.key(
                kind, "root", WHOLE_PROGRAM
            ).fingerprint == index.cone_fingerprint("root")
