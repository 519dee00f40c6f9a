"""Tests for the concurrent workspace server (locks, registry, mux, sockets,
persistence, graceful shutdown)."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from helpers import GET_COUNT_SOURCE

from repro.errors import QueryError
from repro.obs import MetricsRegistry, get_registry, snapshot_delta
from repro.service.locks import RWLock
from repro.service.persist import (
    has_workspace,
    list_workspaces,
    load_workspace,
    save_workspace,
)
from repro.service.server import (
    ConnectionHandler,
    ThreadedAnalysisServer,
    WorkspaceRegistry,
)
from repro.service.session import AnalysisSession
from repro.version import __version__


SECOND_SOURCE = """
fn double(x: u32) -> u32 { x + x }
"""


# ---------------------------------------------------------------------------
# RWLock
# ---------------------------------------------------------------------------


class TestRWLock:
    def test_readers_are_concurrent(self):
        lock = RWLock()
        inside = threading.Barrier(2, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # both readers must be inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = RWLock()
        order = []
        lock.acquire_write()

        def reader():
            with lock.read_locked():
                order.append("reader")

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        order.append("writer-done")
        lock.release_write()
        t.join(timeout=5)
        assert order == ["writer-done", "reader"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        got_write = threading.Event()

        def writer():
            with lock.write_locked():
                got_write.set()

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)
        # A new reader must queue behind the waiting writer.
        late_reader_entered = threading.Event()

        def late_reader():
            with lock.read_locked():
                late_reader_entered.set()

        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        assert not late_reader_entered.is_set()
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert got_write.is_set() and late_reader_entered.is_set()

    def test_wait_and_hold_histograms_advance_under_contention(self):
        registry = MetricsRegistry()
        lock = RWLock(registry=registry)

        # A writer holds the lock while a reader waits: the reader's wait
        # time must reflect the writer's hold time.
        lock.acquire_write()
        reader_done = threading.Event()

        def reader():
            with lock.read_locked():
                reader_done.set()

        t = threading.Thread(target=reader)
        t.start()
        time.sleep(0.05)
        lock.release_write()
        t.join(timeout=5)
        assert reader_done.is_set()

        snap = registry.snapshot()["histograms"]
        write_hold = snap['lock_hold_seconds{mode="write"}']
        read_wait = snap['lock_wait_seconds{mode="read"}']
        read_hold = snap['lock_hold_seconds{mode="read"}']
        assert write_hold["count"] == 1 and write_hold["sum"] >= 0.05
        assert read_wait["count"] == 1 and read_wait["sum"] >= 0.04
        assert read_hold["count"] == 1

        # The reverse: readers hold while a writer waits.
        lock.acquire_read()
        writer_done = threading.Event()

        def writer():
            with lock.write_locked():
                writer_done.set()

        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.05)
        lock.release_read()
        w.join(timeout=5)
        assert writer_done.is_set()
        snap = registry.snapshot()["histograms"]
        assert snap['lock_wait_seconds{mode="write"}']["sum"] >= 0.04
        assert snap['lock_hold_seconds{mode="read"}']["count"] == 2

    def test_uncontended_acquisitions_record_near_zero_waits(self):
        registry = MetricsRegistry()
        lock = RWLock(registry=registry)
        with lock.read_locked():
            pass
        with lock.write_locked():
            pass
        snap = registry.snapshot()["histograms"]
        for mode in ("read", "write"):
            wait = snap[f'lock_wait_seconds{{mode="{mode}"}}']
            assert wait["count"] == 1 and wait["max"] < 0.05

    def test_metrics_snapshot_is_safe_under_concurrent_lock_traffic(self):
        """Snapshots taken while many threads hammer the same lock's
        histograms must never raise and must observe monotone counts."""
        registry = MetricsRegistry()
        lock = RWLock(registry=registry)
        stop = threading.Event()
        failures = []

        def worker():
            while not stop.is_set():
                with lock.read_locked():
                    pass

        def snapshotter():
            last = 0
            while not stop.is_set():
                try:
                    snap = registry.snapshot()
                except Exception as error:  # pragma: no cover - the failure mode
                    failures.append(error)
                    return
                hist = snap["histograms"].get('lock_hold_seconds{mode="read"}')
                if hist is not None:
                    assert hist["count"] >= last
                    last = hist["count"]

        threads = [threading.Thread(target=worker) for _ in range(4)]
        threads.append(threading.Thread(target=snapshotter))
        for t in threads:
            t.start()
        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert not failures
        final = registry.snapshot()["histograms"]['lock_hold_seconds{mode="read"}']
        assert final["count"] > 0


# ---------------------------------------------------------------------------
# Write/read classification
# ---------------------------------------------------------------------------


class TestIsWriteRequest:
    def test_ndjson_methods(self):
        from repro.service.server import is_write_request

        for method in ("open", "update", "close", "warm"):
            assert is_write_request({"method": method})
        for method in ("analyze", "slice", "focus", "stats", "metrics", "ping"):
            assert not is_write_request({"method": method})

    def test_analyze_with_inline_source_takes_the_write_lock(self):
        from repro.service.server import is_write_request

        assert is_write_request(
            {"method": "analyze", "params": {"source": "fn f() -> u32 { 1 }"}}
        )
        assert not is_write_request({"method": "analyze", "params": {"function": "f"}})


# ---------------------------------------------------------------------------
# Registry + connection mux (no sockets)
# ---------------------------------------------------------------------------


class TestConnectionHandler:
    def test_registry_shares_one_session_per_workspace(self):
        registry = WorkspaceRegistry()
        a = ConnectionHandler(registry)
        b = ConnectionHandler(registry)
        assert a.handle_ref.session is b.handle_ref.session

    def test_hello_carries_version_and_protocols(self):
        handler = ConnectionHandler(WorkspaceRegistry())
        hello = handler.hello()
        assert hello["version"] == __version__
        assert hello["protocols"] == ["ndjson"]

    def test_workspace_method_switches_and_lists(self):
        registry = WorkspaceRegistry()
        handler = ConnectionHandler(registry)
        handler.handle_line(
            json.dumps({"id": 1, "method": "open", "params": {"source": SECOND_SOURCE}})
        )
        # A typo cannot silently create a workspace, and counts as an error...
        before = get_registry().snapshot()
        typo = handler.handle_line(
            json.dumps({"id": 9, "method": "workspace", "params": {"name": "scratch"}})
        )
        counted = snapshot_delta(before, get_registry().snapshot())["counters"]
        assert typo["ok"] is False and typo["error_code"] == "unknown_workspace"
        assert counted.get(
            'requests_total{method="workspace",protocol="mux",status="error"}'
        ) == 1
        assert 'requests_total{method="workspace",protocol="mux",status="ok"}' not in counted
        # ...but an explicit create works.
        switched = handler.handle_line(
            json.dumps({"id": 2, "method": "workspace",
                        "params": {"name": "scratch", "create": True}})
        )
        assert switched["ok"]
        assert switched["result"]["workspace"] == "scratch"
        assert switched["result"]["units"] == []
        assert switched["result"]["workspaces"] == ["default", "scratch"]
        # Switching back finds the original workspace intact.
        back = handler.handle_line(json.dumps({"id": 3, "method": "workspace",
                                               "params": {"name": "default"}}))
        assert back["result"]["functions"] == 1

    def test_parse_error_is_answered_not_raised(self):
        handler = ConnectionHandler(WorkspaceRegistry())
        before = get_registry().snapshot()
        response = handler.handle_line("{nope")
        assert response["ok"] is False and response["error_code"] == "parse_error"
        # Still a request to the telemetry: a trace id, one failed request.
        assert len(response["trace_id"]) == 16
        counted = snapshot_delta(before, get_registry().snapshot())["counters"]
        assert counted.get(
            'requests_total{method="invalid",protocol="mux",status="error"}'
        ) == 1

    def test_version_method(self):
        handler = ConnectionHandler(WorkspaceRegistry())
        response = handler.handle_line(json.dumps({"id": 5, "method": "version"}))
        assert response["ok"] and response["result"]["version"] == __version__

    @pytest.mark.parametrize(
        "name",
        ["../escaped", "<absolute>", "a/b", "..", "", 7, ["x"]],
        ids=["parent", "absolute", "nested", "dotdot", "empty", "int", "list"],
    )
    def test_workspace_name_must_be_one_plain_path_component(self, tmp_path, name):
        persist = tmp_path / "persist"
        if name == "<absolute>":
            name = str(tmp_path / "absolute")
        registry = WorkspaceRegistry(persist_dir=str(persist))
        handler = ConnectionHandler(registry)
        before = registry.names()
        response = handler.handle_line(json.dumps(
            {"id": 1, "method": "workspace", "params": {"name": name, "create": True}}
        ))
        assert response["ok"] is False
        assert response["error_code"] == "invalid_params"
        assert repr(name) in response["error"]
        assert registry.names() == before
        # Had the switch gone through, these would write the workspace's
        # manifest and cache records wherever its name pointed.
        for message in (
            {"id": 2, "method": "open", "params": {"source": SECOND_SOURCE}},
            {"id": 3, "method": "analyze", "params": {}},
        ):
            assert handler.handle_line(json.dumps(message))["ok"]
        assert handler.handle_ref.name == "default"
        outside = [
            path for path in tmp_path.rglob("*")
            if path != persist and persist not in path.parents
        ]
        assert outside == []

    def test_mux_opens_a_trace_only_for_a_trace_dir(self, tmp_path, monkeypatch):
        import repro.service.server as server_module
        from repro.obs.export import TraceDirWriter

        opened = []
        real_start_trace = server_module.start_trace

        def counting_start_trace(*args, **kwargs):
            opened.append(args)
            return real_start_trace(*args, **kwargs)

        monkeypatch.setattr(server_module, "start_trace", counting_start_trace)
        ping = json.dumps({"id": 1, "method": "ping"})
        assert ConnectionHandler(WorkspaceRegistry()).handle_line(ping)["ok"]
        assert opened == []
        writer = TraceDirWriter(tmp_path)
        handler = ConnectionHandler(WorkspaceRegistry(), trace_writer=writer)
        assert handler.handle_line(ping)["ok"]
        assert len(opened) == 1

    @pytest.mark.parametrize(
        "message, ok, saves",
        [
            ({"method": "open", "params": {"unit": 7}}, False, 0),
            ({"method": "open", "params": {"unit": "b", "source": "fn broken("}}, False, 0),
            ({"method": "close", "params": {"unit": "nope"}}, False, 0),
            ({"method": "warm"}, True, 0),
            ({"method": "open", "params": {"unit": "b", "source": SECOND_SOURCE}}, True, 1),
            # The open succeeds, then the query fails: the workspace changed.
            ({"method": "analyze",
              "params": {"unit": "b", "source": SECOND_SOURCE, "function": "nope"}}, False, 1),
        ],
        ids=["bad-param", "unparseable", "unknown-unit", "warm", "open", "partial-analyze"],
    )
    def test_manifest_is_refreshed_only_after_a_change(
        self, tmp_path, monkeypatch, message, ok, saves
    ):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MANIFEST_DEBOUNCE_SECONDS", 0.0)
        handler = ConnectionHandler(WorkspaceRegistry(persist_dir=str(tmp_path)))
        opened = {"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}}
        assert handler.handle_message(opened)["ok"]
        calls = []
        monkeypatch.setattr(server_module, "save_workspace", lambda *args: calls.append(args))
        assert handler.handle_message({"id": 2, **message})["ok"] is ok
        assert len(calls) == saves


# ---------------------------------------------------------------------------
# The socket server
# ---------------------------------------------------------------------------


def connect(server):
    sock = socket.create_connection(server.address, timeout=10)
    rfile = sock.makefile("r", encoding="utf-8", newline="\n")
    wfile = sock.makefile("w", encoding="utf-8", newline="\n")
    hello = json.loads(rfile.readline())
    return sock, rfile, wfile, hello


def request(rfile, wfile, payload):
    wfile.write(json.dumps(payload, sort_keys=True) + "\n")
    wfile.flush()
    return json.loads(rfile.readline())


class TestThreadedServer:
    def test_hello_and_basic_round_trip(self):
        with ThreadedAnalysisServer(port=0, workers=2) as server:
            sock, rfile, wfile, hello = connect(server)
            assert hello == {
                "hello": "repro-flowistry",
                "version": __version__,
                "protocols": ["ndjson"],
                "workspace": "default",
            }
            pong = request(rfile, wfile, {"id": 1, "method": "ping"})
            assert pong["ok"] and pong["result"]["version"] == __version__
            sock.close()

    def test_many_clients_share_one_warm_cache(self):
        with ThreadedAnalysisServer(port=0, workers=4) as server:
            sock, rfile, wfile, _ = connect(server)
            request(rfile, wfile,
                    {"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}})
            first = request(rfile, wfile,
                            {"id": 2, "method": "analyze",
                             "params": {"function": "get_count"}})
            assert first["result"]["functions"]["get_count"]["cache"] == "miss"
            sock.close()

            # A *different* client connects and is served from the same cache.
            sock2, rfile2, wfile2, _ = connect(server)
            second = request(rfile2, wfile2,
                             {"id": 1, "method": "analyze",
                              "params": {"function": "get_count"}})
            assert second["result"]["functions"]["get_count"]["cache"] == "hit"
            sock2.close()

    def test_concurrent_clients_get_identical_answers(self):
        with ThreadedAnalysisServer(port=0, workers=8) as server:
            sock, rfile, wfile, _ = connect(server)
            request(rfile, wfile,
                    {"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}})
            sock.close()

            results = []
            errors = []

            def client():
                try:
                    csock, crfile, cwfile, _ = connect(server)
                    response = request(
                        crfile, cwfile,
                        {"id": 1, "method": "slice",
                         "params": {"function": "get_count", "variable": "h"}},
                    )
                    payload = response["result"]
                    payload.pop("cache", None)
                    payload.pop("stats", None)
                    results.append(payload)
                    csock.close()
                except Exception as error:  # surfaced via the errors list
                    errors.append(error)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
            assert not errors
            assert len(results) == 6
            assert all(r == results[0] for r in results)

    def test_edits_interleaved_with_queries_stay_coherent(self):
        with ThreadedAnalysisServer(port=0, workers=8) as server:
            sock, rfile, wfile, _ = connect(server)
            request(rfile, wfile,
                    {"id": 0, "method": "open", "params": {"source": GET_COUNT_SOURCE}})

            stop = threading.Event()
            problems = []

            def reader():
                try:
                    csock, crfile, cwfile, _ = connect(server)
                    while not stop.is_set():
                        response = request(
                            crfile, cwfile,
                            {"id": 1, "method": "analyze",
                             "params": {"function": "get_count"}},
                        )
                        if not response.get("ok"):
                            problems.append(response)
                            break
                    csock.close()
                except Exception as error:
                    problems.append(error)

            threads = [threading.Thread(target=reader) for _ in range(3)]
            for t in threads:
                t.start()
            # Writer: toggle an edit (whitespace change => body fingerprints
            # shift through re-lowering of spans) a few times mid-traffic.
            for i in range(4):
                edited = GET_COUNT_SOURCE + ("\n" * (i % 2))
                response = request(
                    rfile, wfile,
                    {"id": 10 + i, "method": "update",
                     "params": {"unit": "main", "source": edited}},
                )
                assert response["ok"]
            stop.set()
            for t in threads:
                t.join(timeout=20)
            sock.close()
            assert not problems

    def test_over_capacity_client_is_rejected_not_queued(self):
        with ThreadedAnalysisServer(port=0, workers=1) as server:
            sock, rfile, wfile, _ = connect(server)  # occupies the only slot
            extra = socket.create_connection(server.address, timeout=10)
            line = extra.makefile("r", encoding="utf-8").readline()
            rejection = json.loads(line)
            assert rejection["ok"] is False
            assert rejection["error_code"] == "server_busy"
            assert len(rejection["trace_id"]) == 16
            extra.close()
            # The occupying client is still fully served.
            pong = request(rfile, wfile, {"id": 1, "method": "ping"})
            assert pong["ok"]
            assert server.stats()["connections_rejected"] == 1
            sock.close()

    def test_oversized_request_line_is_refused_then_closed(self, monkeypatch):
        from repro.service import server as server_module

        monkeypatch.setattr(server_module, "MAX_REQUEST_CHARS", 1024)
        with ThreadedAnalysisServer(port=0, workers=2) as server:
            sock, rfile, wfile, _ = connect(server)
            wfile.write("x" * 2000)  # no newline: the line never ends
            wfile.flush()
            refused = json.loads(rfile.readline())
            assert refused["ok"] is False
            assert refused["error_code"] == "request_too_large"
            assert len(refused["trace_id"]) == 16
            assert rfile.readline() == ""  # then EOF
            sock.close()
            # Other clients are served, a line under the bound included.
            sock2, rfile2, wfile2, _ = connect(server)
            pong = request(rfile2, wfile2, {"id": 1, "method": "ping", "pad": "x" * 900})
            assert pong["ok"]
            sock2.close()
            assert get_registry().snapshot()["gauges"]["server_inflight"] == 0

    def test_graceful_shutdown_drains_and_disconnects(self):
        server = ThreadedAnalysisServer(port=0, workers=2).start()
        sock, rfile, wfile, _ = connect(server)
        request(rfile, wfile,
                {"id": 1, "method": "open", "params": {"source": SECOND_SOURCE}})
        summaries = server.shutdown()
        assert summaries == []  # no persist dir
        # The held connection sees EOF rather than a hang.
        assert rfile.readline() == ""
        sock.close()
        assert server.stats()["draining"] is True
        # Idempotent.
        assert server.shutdown() == []

    def test_corrupt_workspace_is_answered_not_dropped(self, tmp_path):
        persist = tmp_path / "persist"
        (persist / "broken").mkdir(parents=True)
        (persist / "broken" / "manifest.json").write_text("{not json", encoding="utf-8")
        with ThreadedAnalysisServer(port=0, workers=2, persist_dir=str(persist)) as server:
            sock, rfile, wfile, _ = connect(server)
            # exists() sees the manifest, loading it fails: typed error, and
            # the connection (and its capacity slot) survives.
            response = request(rfile, wfile, {"id": 1, "method": "workspace",
                                              "params": {"name": "broken"}})
            assert response["ok"] is False
            assert response["error_code"] == "unknown_workspace"
            pong = request(rfile, wfile, {"id": 2, "method": "ping"})
            assert pong["ok"]
            sock.close()

    def test_bad_default_workspace_name_fails_at_construction(self, tmp_path):
        with pytest.raises(QueryError) as info:
            ThreadedAnalysisServer(
                port=0, persist_dir=str(tmp_path), default_workspace="../x"
            )
        assert info.value.code == QueryError.INVALID_PARAMS
        assert list(tmp_path.iterdir()) == []

    def test_workspace_whose_units_split_an_item_fails_to_load(self, tmp_path):
        # Units are parsed one by one, so a crate block may not open in one
        # unit and close in the next, even though the joined text parses.
        persist = tmp_path / "persist"
        (persist / "split").mkdir(parents=True)
        units = [
            {"name": "a", "source": "crate dep {\nfn g() -> u32 { 1 }"},
            {"name": "b", "source": "}"},
        ]
        (persist / "split" / "manifest.json").write_text(
            json.dumps({"units": units}), encoding="utf-8"
        )
        handler = ConnectionHandler(WorkspaceRegistry(persist_dir=str(persist)))
        response = handler.handle_line(
            json.dumps({"id": 1, "method": "workspace", "params": {"name": "split"}})
        )
        assert response["ok"] is False
        assert response["error_code"] == "workspace_load_failed"
        assert handler.handle_line(json.dumps({"id": 2, "method": "ping"}))["ok"]

    def test_corrupt_default_workspace_reports_load_failure(self, tmp_path):
        persist = tmp_path / "persist"
        (persist / "default").mkdir(parents=True)
        (persist / "default" / "manifest.json").write_text("{not json", encoding="utf-8")
        with ThreadedAnalysisServer(port=0, workers=2, persist_dir=str(persist)) as server:
            sock = socket.create_connection(server.address, timeout=10)
            line = json.loads(sock.makefile("r", encoding="utf-8").readline())
            assert line["ok"] is False
            assert line["error_code"] == "workspace_load_failed"
            assert len(line["trace_id"]) == 16
            sock.close()
            # The failed bind released its capacity slot (the server-side
            # cleanup runs just after the error line is flushed).
            deadline = time.time() + 5
            while server.stats()["open_connections"] and time.time() < deadline:
                time.sleep(0.02)
            assert server.stats()["open_connections"] == 0

    def test_persist_dir_server_restarts_warm(self, tmp_path):
        persist = str(tmp_path / "persist")
        with ThreadedAnalysisServer(port=0, workers=2, persist_dir=persist) as server:
            sock, rfile, wfile, _ = connect(server)
            request(rfile, wfile,
                    {"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}})
            warm = request(rfile, wfile, {"id": 2, "method": "analyze", "params": {}})
            assert warm["ok"]
            sock.close()
        assert has_workspace(persist, "default")

        with ThreadedAnalysisServer(port=0, workers=2, persist_dir=persist) as server:
            sock, rfile, wfile, _ = connect(server)
            response = request(rfile, wfile, {"id": 1, "method": "analyze", "params": {}})
            assert response["ok"]
            assert response["result"]["cache_misses"] == 0
            assert all(f["cache"] == "hit"
                       for f in response["result"]["functions"].values())
            sock.close()


# ---------------------------------------------------------------------------
# Workspace persistence (direct API)
# ---------------------------------------------------------------------------


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        session = AnalysisSession()
        session.open_unit("main", GET_COUNT_SOURCE)
        session.analyze()  # populate the (memory-only) store
        summary = save_workspace(session, tmp_path, "ws")
        assert summary["units"] == ["main"]
        assert summary["cache_entries_flushed"] >= 1

        restored = load_workspace(tmp_path, "ws")
        assert restored.unit_names() == ["main"]
        result = restored.analyze()
        assert result["cache_misses"] == 0
        assert result["stats"]["disk_hits"] >= 1

    def test_open_units_is_transactional_and_order_safe(self):
        # caller/callee split across units: opening both at once must work...
        session = AnalysisSession()
        caller = "fn use_it(x: u32) -> u32 { helper(x) }"
        callee = "fn helper(x: u32) -> u32 { x + 1 }"
        info = session.open_units([("caller", caller), ("callee", callee)])
        assert info["functions"] == 2
        # ...and a failing batch must leave the workspace untouched.
        with pytest.raises(Exception):
            session.open_units([("bad", "fn broken(")])
        assert session.unit_names() == ["caller", "callee"]

    def test_list_workspaces(self, tmp_path):
        session = AnalysisSession()
        session.open_unit("main", SECOND_SOURCE)
        save_workspace(session, tmp_path, "alpha")
        save_workspace(session, tmp_path, "beta")
        listed = list_workspaces(tmp_path)
        assert [w["workspace"] for w in listed] == ["alpha", "beta"]
        assert all(w["version"] == __version__ for w in listed)

    def test_load_missing_workspace_is_a_typed_error(self, tmp_path):
        from repro.errors import QueryError

        with pytest.raises(QueryError) as excinfo:
            load_workspace(tmp_path, "nope")
        assert excinfo.value.code == "unknown_workspace"
