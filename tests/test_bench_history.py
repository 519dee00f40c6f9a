"""Tests for the benchmark history ledger: atomic appends, trajectories,
regression verdicts, and the gate behind `repro bench report`."""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.eval.bench import (
    TRACKED,
    bench_report,
    policy_for,
    record_run,
    render_bench_report,
)
from repro.obs.history import (
    BenchRecord,
    FileLock,
    HistoryLedger,
    MetricPolicy,
    config_fingerprint,
    evaluate_metric,
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
            # A zero baseline is judged by the sign of the latest value.
            ("lower", [0.0, 0.0, 3.0], "regressed"),
            ("higher", [0.0, 0.0, 1.0], "improved"),
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
    MASSRUN = {"suite": ["massrun"], "count": 500, "size": "medium", "workers": 4}

    def test_two_runs_build_a_trajectory_with_verdict(self, tmp_path):
        ledger = HistoryLedger(tmp_path)
        rid1, n1 = record_run(
            ledger, {"massrun.pass_rate": 1.0}, timestamp=100.0, config=self.MASSRUN
        )
        rid2, n2 = record_run(
            ledger, {"massrun.pass_rate": 1.0}, timestamp=200.0, config=self.MASSRUN
        )
        assert rid1 != rid2 and n1 == n2 == 1
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["metric"] == "massrun.pass_rate"
        assert row["runs"] == 2 and row["n"] == 2
        assert row["verdict"] == "ok" and row["tracked"] and row["gate"]
        assert row["unit"] == ""
        assert len(row["trend"]) == 2
        assert report["gate"]["ok"]
        rendered = render_bench_report(report)
        assert "massrun.pass_rate" in rendered and "gate: ok" in rendered

    def test_injected_slowdown_flips_verdict_and_fails_gate(self, tmp_path):
        """The acceptance check: half the programs failing an oracle on a
        gated metric must flip the verdict to regressed and fail the gate."""
        ledger = HistoryLedger(tmp_path)
        for ts in (100.0, 200.0):
            record_run(
                ledger, {"massrun.pass_rate": 1.0}, timestamp=ts, config=self.MASSRUN
            )
        healthy = bench_report(ledger)
        assert healthy["gate"]["ok"]

        record_run(
            ledger, {"massrun.pass_rate": 0.5}, timestamp=300.0, config=self.MASSRUN
        )
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["verdict"] == "regressed"
        assert not report["gate"]["ok"]
        assert report["gate"]["failures"] == ["massrun.pass_rate"]
        assert "gate: FAILED" in render_bench_report(report)

    def test_latency_regressions_report_but_never_gate(self, tmp_path):
        ledger = HistoryLedger(tmp_path)
        config = {"source": "benchmarks", "scale": 0.15}
        for ts, p50 in ((100.0, 10.0), (200.0, 10.0), (300.0, 100.0)):
            record_run(ledger, {"load.p50_ms": p50}, timestamp=ts, config=config)
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["verdict"] == "regressed" and not row["gate"]
        assert row["unit"] == "ms"
        assert report["gate"]["ok"]  # absolute wall-time never gates

    def test_config_change_resets_the_comparison(self, tmp_path):
        """A corpus change must not be read as a regression: only records
        sharing the latest record's config fingerprint are compared."""
        ledger = HistoryLedger(tmp_path)
        small = dict(self.MASSRUN, count=50)
        record_run(ledger, {"massrun.pass_rate": 1.0}, timestamp=100.0, config=self.MASSRUN)
        record_run(ledger, {"massrun.pass_rate": 1.0}, timestamp=200.0, config=self.MASSRUN)
        record_run(ledger, {"massrun.pass_rate": 0.5}, timestamp=300.0, config=small)
        report = bench_report(ledger)
        (row,) = report["metrics"]
        assert row["runs"] == 1  # only the 50-program record is comparable
        assert row["verdict"] == "insufficient"
        assert report["gate"]["ok"]

    def test_untracked_metrics_get_the_default_policy(self):
        policy = policy_for("brand.new_metric")
        assert not policy.gate
        assert policy.metric == "brand.new_metric"
        assert all(name == tracked.metric for name, tracked in TRACKED.items())
        assert set(TRACKED) == {
            "load.throughput_rps", "load.p50_ms", "load.p99_ms",
            "massrun.pass_rate", "massrun.programs_per_second",
            "massrun.p50_ms", "massrun.p95_ms",
        }

    def test_config_fingerprint_stability(self):
        assert config_fingerprint(None) == "-"
        assert config_fingerprint({}) == "-"
        a = config_fingerprint({"scale": 0.1, "suite": ["x"]})
        b = config_fingerprint({"suite": ["x"], "scale": 0.1})
        assert a == b and len(a) == 12
        assert config_fingerprint({"scale": 0.2, "suite": ["x"]}) != a
