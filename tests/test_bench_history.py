"""Tests for the benchmark history ledger: atomic appends, trajectories,
regression verdicts, the gate, backfill, and the `repro bench` runner."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.eval.bench import (
    BENCH_SUITE,
    TRACKED,
    bench_report,
    policy_for,
    record_run,
    render_bench_report,
    run_suite,
)
from repro.obs.history import (
    BenchRecord,
    FileLock,
    HistoryLedger,
    MetricPolicy,
    backfill_reports,
    config_fingerprint,
    evaluate_metric,
    flatten_numeric,
    sparkline,
)


def _record(metric, value, ts, run_id="r", config="-", unit=""):
    return BenchRecord(
        run_id=run_id, timestamp=ts, git_sha="abc123", metric=metric,
        value=value, unit=unit, config=config,
    )


# ---------------------------------------------------------------------------
# Ledger mechanics
# ---------------------------------------------------------------------------


class TestLedger:
    def test_append_read_round_trip(self, tmp_path):
        ledger = HistoryLedger(tmp_path / "history")
        n = ledger.append(
            [
                _record("m.speedup", 2.5, 1.0, unit="x"),
                _record("m.p50_ms", 12.0, 1.0, unit="ms"),
            ]
        )
        assert n == 2
        records = ledger.read()
        assert [(r.metric, r.value, r.unit) for r in records] == [
            ("m.speedup", 2.5, "x"),
            ("m.p50_ms", 12.0, "ms"),
        ]
        assert records[0].git_sha == "abc123"

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        ledger = HistoryLedger(tmp_path)
        ledger.append(_record("m", 1.0, 1.0))
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write("{truncated json\n")
            handle.write('{"metric": "no-required-fields"}\n')
        ledger.append(_record("m", 2.0, 2.0))
        records, corrupt = ledger.read_with_errors()
        assert [r.value for r in records] == [1.0, 2.0]
        assert corrupt == 2

    def test_missing_file_reads_empty(self, tmp_path):
        ledger = HistoryLedger(tmp_path / "nowhere")
        assert ledger.read() == []
        assert ledger.trajectories() == {}

    def test_trajectories_sort_by_timestamp(self, tmp_path):
        ledger = HistoryLedger(tmp_path)
        ledger.append(
            [
                _record("m", 3.0, 30.0, run_id="c"),
                _record("m", 1.0, 10.0, run_id="a"),
                _record("m", 2.0, 20.0, run_id="b"),
                _record("other", 9.0, 10.0),
            ]
        )
        trajectories = ledger.trajectories()
        assert [r.value for r in trajectories["m"]] == [1.0, 2.0, 3.0]
        assert [r.value for r in trajectories["other"]] == [9.0]

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        """Two runners appending simultaneously must produce a ledger of
        exclusively valid lines — no interleaved partial writes."""
        ledger = HistoryLedger(tmp_path)
        per_thread, threads = 25, 4

        def runner(which):
            own = HistoryLedger(tmp_path)  # separate instance, same files
            for index in range(per_thread):
                own.append(
                    _record(f"m.{which}", float(index), float(index),
                            run_id=f"run-{which}")
                )

        pool = [threading.Thread(target=runner, args=(t,)) for t in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in pool)

        records, corrupt = ledger.read_with_errors()
        assert corrupt == 0
        assert len(records) == per_thread * threads
        # Every line parses as exactly one record and no lock file remains.
        for line in ledger.path.read_text(encoding="utf-8").splitlines():
            json.loads(line)
        assert not ledger.lock_path.exists()

    def test_file_lock_blocks_and_releases(self, tmp_path):
        path = tmp_path / "x.lock"
        with FileLock(path):
            assert path.exists()
            with pytest.raises(TimeoutError):
                FileLock(path, timeout=0.1).acquire()
        assert not path.exists()

    def test_stale_lock_is_broken(self, tmp_path):
        path = tmp_path / "x.lock"
        path.write_text("12345\n", encoding="utf-8")
        ancient = time.time() - 3600
        os.utime(path, (ancient, ancient))
        lock = FileLock(path, timeout=2.0)
        lock.acquire()  # must not time out: the stale lock is presumed dead
        lock.release()
        assert not path.exists()


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class TestVerdicts:
    def test_insufficient_with_fewer_than_two_points(self):
        policy = MetricPolicy("m", direction="higher", gate=True)
        verdict = evaluate_metric([_record("m", 2.0, 1.0)], policy)
        assert verdict["verdict"] == "insufficient"
        assert verdict["baseline"] is None

    def test_baseline_is_median_of_previous_window(self):
        policy = MetricPolicy("m", direction="lower", tolerance=0.10, window=3)
        records = [_record("m", v, float(i)) for i, v in enumerate([100, 10, 20, 30, 21])]
        verdict = evaluate_metric(records, policy)
        # Window of 3 before the latest: [10, 20, 30] -> median 20; the
        # outlier first point has aged out.
        assert verdict["baseline"] == 20.0
        assert verdict["latest"] == 21.0
        assert verdict["verdict"] == "ok"

    @pytest.mark.parametrize(
        "direction,values,expected",
        [
            ("higher", [2.0, 2.0, 1.0], "regressed"),   # speedup halved
            ("higher", [2.0, 2.0, 4.0], "improved"),
            ("lower", [10.0, 10.0, 20.0], "regressed"),  # latency doubled
            ("lower", [10.0, 10.0, 5.0], "improved"),
            ("lower", [10.0, 10.0, 10.5], "ok"),
        ],
    )
    def test_direction_and_tolerance(self, direction, values, expected):
        policy = MetricPolicy("m", direction=direction, tolerance=0.25)
        records = [_record("m", v, float(i)) for i, v in enumerate(values)]
        assert evaluate_metric(records, policy)["verdict"] == expected

    def test_invalid_direction_raises(self):
        with pytest.raises(ValueError):
            MetricPolicy("m", direction="sideways")

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▄▄▄"
        rising = sparkline([1.0, 2.0, 3.0, 4.0])
        assert rising[0] == "▁" and rising[-1] == "█"
        assert len(sparkline(list(range(100)), width=24)) == 24


# ---------------------------------------------------------------------------
# Report + gate (the acceptance path)
# ---------------------------------------------------------------------------


class TestReportAndGate:
    def test_two_runs_build_a_trajectory_with_verdict(self, tmp_path):
        ledger = HistoryLedger(tmp_path)
        config = {"suite": ["theta_join"], "scale": 0.1}
        rid1, n1 = record_run(
            ledger, {"theta_join.speedup": 3.0}, timestamp=100.0, config=config
        )
        rid2, n2 = record_run(
            ledger, {"theta_join.speedup": 3.1}, timestamp=200.0, config=config
        )
        assert rid1 != rid2 and n1 == n2 == 1
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["metric"] == "theta_join.speedup"
        assert row["runs"] == 2 and row["n"] == 2
        assert row["verdict"] == "ok" and row["tracked"] and row["gate"]
        assert row["unit"] == "x"
        assert len(row["trend"]) == 2
        assert report["gate"]["ok"]
        rendered = render_bench_report(report)
        assert "theta_join.speedup" in rendered and "gate: ok" in rendered

    def test_injected_slowdown_flips_verdict_and_fails_gate(self, tmp_path):
        """The acceptance check: a synthetic 2x slowdown on a gated ratio
        metric must flip the verdict to regressed and fail the gate."""
        ledger = HistoryLedger(tmp_path)
        config = {"suite": ["fig2"], "scale": 0.1}
        for ts, speedup in ((100.0, 3.0), (200.0, 3.05), (300.0, 2.95)):
            record_run(
                ledger, {"fig2.engine_speedup": speedup}, timestamp=ts, config=config
            )
        healthy = bench_report(ledger)
        assert healthy["gate"]["ok"]

        # Injected regression: the engine got 2x slower, so the speedup halves.
        record_run(
            ledger, {"fig2.engine_speedup": 3.0 / 2.0}, timestamp=400.0, config=config
        )
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["verdict"] == "regressed"
        assert not report["gate"]["ok"]
        assert report["gate"]["failures"] == ["fig2.engine_speedup"]
        assert "gate: FAILED" in render_bench_report(report)

    def test_latency_regressions_report_but_never_gate(self, tmp_path):
        ledger = HistoryLedger(tmp_path)
        config = {"suite": ["focus"], "scale": 0.1}
        for ts, p50 in ((100.0, 10.0), (200.0, 10.0), (300.0, 100.0)):
            record_run(ledger, {"focus.cold_p50_ms": p50}, timestamp=ts, config=config)
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["verdict"] == "regressed" and not row["gate"]
        assert report["gate"]["ok"]  # absolute wall-time never gates

    def test_config_change_resets_the_comparison(self, tmp_path):
        """A scale change must not be read as a regression: only records
        sharing the latest record's config fingerprint are compared."""
        ledger = HistoryLedger(tmp_path)
        big = {"suite": ["theta_join"], "scale": 1.0}
        small = {"suite": ["theta_join"], "scale": 0.05}
        record_run(ledger, {"theta_join.speedup": 4.0}, timestamp=100.0, config=big)
        record_run(ledger, {"theta_join.speedup": 4.1}, timestamp=200.0, config=big)
        record_run(ledger, {"theta_join.speedup": 1.0}, timestamp=300.0, config=small)
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["runs"] == 1  # only the small-scale record is comparable
        assert row["verdict"] == "insufficient"
        assert report["gate"]["ok"]

    def test_untracked_metrics_get_the_default_policy(self):
        policy = policy_for("brand.new_metric")
        assert not policy.gate
        assert policy.metric == "brand.new_metric"
        assert set(TRACKED) <= {
            name for name in TRACKED
        }  # tracked registry is self-consistent

    def test_config_fingerprint_stability(self):
        assert config_fingerprint(None) == "-"
        assert config_fingerprint({}) == "-"
        a = config_fingerprint({"scale": 0.1, "suite": ["x"]})
        b = config_fingerprint({"suite": ["x"], "scale": 0.1})
        assert a == b and len(a) == 12
        assert config_fingerprint({"scale": 0.2, "suite": ["x"]}) != a


# ---------------------------------------------------------------------------
# Runner (end-to-end on the cheapest suite member)
# ---------------------------------------------------------------------------


class TestRunner:
    def test_run_suite_twice_yields_two_entry_trajectory(self, tmp_path):
        ledger = HistoryLedger(tmp_path)
        for ts in (100.0, 200.0):
            metrics, config = run_suite(scale=0.02, only=["theta_join"])
            expected = {
                "theta_join.speedup",
                "theta_join.object_us_per_join",
                "theta_join.bitset_us_per_join",
            }
            assert set(metrics) == expected
            record_run(ledger, metrics, timestamp=ts, config=config)
        report = bench_report(ledger)
        by_metric = {row["metric"]: row for row in report["metrics"]}
        assert by_metric["theta_join.speedup"]["runs"] == 2
        assert by_metric["theta_join.speedup"]["verdict"] in ("ok", "improved")
        assert by_metric["theta_join.bitset_us_per_join"]["unit"] == "us"

    def test_unknown_suite_name_raises_before_recording(self, tmp_path):
        with pytest.raises(KeyError, match="nope"):
            run_suite(scale=0.02, only=["nope"])
        assert set(BENCH_SUITE) == {"theta_join", "fig2", "focus", "load"}


# ---------------------------------------------------------------------------
# Backfill
# ---------------------------------------------------------------------------


class TestBackfill:
    def test_flatten_numeric_excludes_booleans_and_indexes_lists(self):
        flat = flatten_numeric(
            {"a": {"b": 1, "ok": True}, "list": [10, {"x": 2.5}], "name": "str"}
        )
        assert flat == {"a.b": 1.0, "list.0": 10.0, "list.1.x": 2.5}

    def test_backfill_ingests_reports_and_skips_run_meta(self, tmp_path):
        report_dir = tmp_path / "reports"
        report_dir.mkdir()
        (report_dir / "engine_speedup.json").write_text(
            json.dumps(
                {
                    "theta_join": {"speedup": 5.0},
                    "run_meta": {"duration_seconds": 1.5},
                }
            ),
            encoding="utf-8",
        )
        (report_dir / "broken.json").write_text("{not json", encoding="utf-8")
        ledger = HistoryLedger(tmp_path / "history")
        appended = backfill_reports(
            report_dir, ledger, run_id="backfill-1", timestamp=123.0
        )
        assert appended == 1
        (record,) = ledger.read()
        assert record.metric == "engine_speedup.theta_join.speedup"
        assert record.value == 5.0
        assert record.config == "backfill"
        assert record.timestamp == 123.0
