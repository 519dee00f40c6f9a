"""Tests for the evaluation statistics helpers."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.eval.stats import (
    crate_correlation,
    histogram,
    interaction_regression,
    per_crate_nonzero_counts,
    per_crate_variable_counts,
    percent_differences,
    summarize_differences,
)


def key(crate, fn, var):
    return (crate, fn, var)


def test_percent_differences_basic_formula():
    baseline = {key("c", "f", "x"): 2, key("c", "f", "y"): 4}
    other = {key("c", "f", "x"): 5, key("c", "f", "y"): 4}
    diffs = percent_differences(baseline, other)
    assert diffs[key("c", "f", "x")] == pytest.approx(150.0)
    assert diffs[key("c", "f", "y")] == pytest.approx(0.0)


def test_percent_differences_skips_missing_and_clamps_zero_baseline():
    baseline = {key("c", "f", "x"): 0, key("c", "f", "gone"): 3}
    other = {key("c", "f", "x"): 2}
    diffs = percent_differences(baseline, other)
    assert diffs == {key("c", "f", "x"): pytest.approx(200.0)}


def test_summarize_differences_headline_numbers():
    diffs = {
        key("c", "f", "a"): 0.0,
        key("c", "f", "b"): 0.0,
        key("c", "f", "c"): 50.0,
        key("c", "f", "d"): 150.0,
    }
    summary = summarize_differences(diffs, label="test")
    assert summary.total == 4
    assert summary.num_zero == 2
    assert summary.num_nonzero == 2
    assert summary.fraction_zero == pytest.approx(0.5)
    assert summary.median_nonzero_percent == pytest.approx(100.0)
    assert summary.mean_nonzero_percent == pytest.approx(100.0)
    assert summary.max_percent == pytest.approx(150.0)
    row = summary.row()
    assert row["comparison"] == "test"
    assert row["identical_pct"] == 50.0


def test_summarize_differences_empty_input():
    summary = summarize_differences({}, label="empty")
    assert summary.total == 0
    assert summary.fraction_zero == 1.0
    assert summary.median_nonzero_percent == 0.0


def test_median_with_odd_number_of_nonzero_values():
    diffs = {key("c", "f", str(i)): value for i, value in enumerate([10.0, 20.0, 90.0])}
    summary = summarize_differences(diffs)
    assert summary.median_nonzero_percent == pytest.approx(20.0)


def test_histogram_has_zero_bin_and_counts_everything():
    diffs = {key("c", "f", str(i)): value for i, value in enumerate([0.0, 0.0, 5.0, 50.0, 500.0])}
    bins = histogram(diffs, num_bins=5)
    assert bins[0] == ("0", 2)
    assert sum(count for _label, count in bins[1:]) == 3


def test_histogram_without_positive_values():
    diffs = {key("c", "f", "a"): 0.0}
    bins = histogram(diffs, num_bins=4)
    assert bins == [("0", 1)]


def test_histogram_log_scale_bins_are_monotone():
    diffs = {key("c", "f", str(i)): float(v) for i, v in enumerate([1, 10, 100, 1000])}
    bins = histogram(diffs, num_bins=6, include_zero_bin=False)
    assert sum(count for _label, count in bins) == 4


def test_per_crate_counts():
    diffs = {
        key("a", "f", "x"): 0.0,
        key("a", "f", "y"): 10.0,
        key("b", "g", "z"): 20.0,
    }
    nonzero = per_crate_nonzero_counts(diffs)
    totals = per_crate_variable_counts(diffs.keys())
    assert nonzero == {"a": 1, "b": 1}
    assert totals == {"a": 2, "b": 1}


def test_crate_correlation_perfect_linear_relationship():
    diffs = {}
    for crate_index, crate in enumerate(["c1", "c2", "c3", "c4"]):
        total = 10 * (crate_index + 1)
        nonzero = 2 * (crate_index + 1)
        for i in range(total):
            value = 10.0 if i < nonzero else 0.0
            diffs[key(crate, "f", str(i))] = value
    assert crate_correlation(diffs) == pytest.approx(1.0)


def test_crate_correlation_single_crate_is_one():
    diffs = {key("only", "f", "x"): 1.0}
    assert crate_correlation(diffs) == 1.0


def test_interaction_regression_recovers_additive_effects():
    # Construct synthetic sizes: baseline 10, mut-blind adds 4, ref-blind adds
    # 2, no interaction.  The regression must find significant main effects
    # and an interaction term near zero.
    sizes = {}
    n = 200
    for mut_blind in (False, True):
        for ref_blind in (False, True):
            table = {}
            for i in range(n):
                value = 10 + (4 if mut_blind else 0) + (2 if ref_blind else 0)
                # Small deterministic jitter so the variance is not zero.
                value += (i % 3) - 1
                table[key("c", "f", f"v{i}")] = value
            sizes[(mut_blind, ref_blind)] = table
    regression = interaction_regression(sizes)
    assert regression.n_observations == 4 * n
    assert regression.term("mut_blind").coefficient == pytest.approx(4.0, abs=0.3)
    assert regression.term("ref_blind").coefficient == pytest.approx(2.0, abs=0.3)
    assert abs(regression.term("mut_blind:ref_blind").coefficient) < 0.3
    assert regression.term("mut_blind").significant()
    assert regression.term("ref_blind").significant()
    assert not regression.term("mut_blind:ref_blind").significant()


def test_interaction_regression_unknown_term_raises():
    sizes = {(False, False): {key("c", "f", "x"): 1}}
    regression = interaction_regression(sizes)
    with pytest.raises(KeyError):
        regression.term("nope")


def test_interaction_regression_requires_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now fails
    with pytest.raises(RuntimeError, match="requires numpy and scipy"):
        interaction_regression({(False, False): {key("c", "f", "x"): 1}})


def test_cli_and_session_imports_do_not_load_numpy():
    # numpy is an optional extra used only inside interaction_regression; a
    # module-level import anywhere on the CLI or session path would make
    # every process pay for it.
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = "import sys, repro.cli, repro.service.session; print('numpy' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert completed.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Shared latency-percentile helpers (used by perf, load, and the benchmarks)
# ---------------------------------------------------------------------------


def test_percentile_nearest_rank():
    from repro.eval.stats import percentile

    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(samples, 0.0) == 1.0
    assert percentile(samples, 0.5) == 3.0
    assert percentile(samples, 1.0) == 5.0
    # Nearest-rank: every answer is an actual sample.
    assert percentile(samples, 0.9) in samples
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0


def test_median_interpolates_even_counts():
    from repro.eval.stats import median

    assert median([]) == 0.0
    assert median([3.0]) == 3.0
    assert median([1.0, 2.0, 4.0]) == 2.0
    assert median([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.5)


def test_latency_summary_ms_units_and_keys():
    from repro.eval.stats import latency_summary_ms

    samples = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms, in seconds
    summary = latency_summary_ms(samples)
    assert set(summary) == {"p50", "p95", "p99"}
    assert summary["p50"] == pytest.approx(50.0, abs=1.0)
    assert summary["p95"] == pytest.approx(95.0, abs=1.0)
    assert summary["p99"] == pytest.approx(99.0, abs=1.0)
    assert latency_summary_ms([], fractions=(0.5,)) == {"p50": 0.0}


# ---------------------------------------------------------------------------
# Totality properties (documented in the stats docstrings, pinned here)
# ---------------------------------------------------------------------------


def _pseudo_random_samples(seed: int, count: int) -> list:
    """Deterministic LCG sample sets — property-style coverage, no RNG deps."""
    state, samples = seed, []
    for _ in range(count):
        state = (state * 1103515245 + 12345) % (2**31)
        samples.append(state / 2**31 * 1000.0)
    return samples


@pytest.mark.parametrize("seed", [1, 7, 42, 1234])
@pytest.mark.parametrize("count", [1, 2, 3, 10, 101])
def test_percentile_result_is_always_an_actual_sample(seed, count):
    from repro.eval.stats import percentile

    samples = _pseudo_random_samples(seed, count)
    for fraction in (0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
        result = percentile(samples, fraction)
        assert result in samples  # nearest-rank, never interpolated
        assert min(samples) <= result <= max(samples)


@pytest.mark.parametrize("seed", [3, 99])
def test_percentile_is_monotone_in_the_fraction(seed):
    from repro.eval.stats import percentile

    samples = _pseudo_random_samples(seed, 50)
    fractions = [i / 20 for i in range(21)]
    results = [percentile(samples, f) for f in fractions]
    assert results == sorted(results)
    assert results[0] == min(samples) and results[-1] == max(samples)


def test_percentile_total_on_degenerate_inputs():
    from repro.eval.stats import percentile

    # Empty input and out-of-range fractions must not raise: the benchmark
    # harness feeds these (zero-sample warm runs, caller-supplied fractions).
    assert percentile([], 0.5) == 0.0
    assert percentile([], 0.0) == 0.0
    assert percentile([2.0], -1.0) == 2.0  # fraction clamps low
    assert percentile([2.0], 7.5) == 2.0  # fraction clamps high
    assert percentile([1.0, 2.0], 7.5) == 2.0
    assert percentile([1.0, 2.0], -7.5) == 1.0


def test_percentile_is_permutation_invariant():
    from repro.eval.stats import percentile

    samples = _pseudo_random_samples(11, 31)
    shuffled = samples[7:] + samples[:7]
    for fraction in (0.1, 0.5, 0.99):
        assert percentile(samples, fraction) == percentile(shuffled, fraction)


@pytest.mark.parametrize("count", [0, 1, 5, 100])
def test_latency_summary_ms_is_total_and_ordered(count):
    from repro.eval.stats import latency_summary_ms

    samples = _pseudo_random_samples(5, count) if count else []
    summary = latency_summary_ms(samples, fractions=(0.50, 0.95, 0.99))
    assert set(summary) == {"p50", "p95", "p99"}
    assert summary["p50"] <= summary["p95"] <= summary["p99"]
    if count == 0:
        assert summary == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    else:
        # Values convert seconds -> ms and stay within the sample envelope
        # (modulo the 4-digit rounding the summary applies).
        assert summary["p99"] <= max(samples) * 1000.0 + 1e-3
        assert summary["p50"] >= min(samples) * 1000.0 - 1e-3
