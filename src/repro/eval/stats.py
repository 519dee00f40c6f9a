"""Statistics over dependency-set sizes: the numbers behind Figures 2–4.

The paper's quantitative evaluation (Section 5.2) reports, for pairs of
analysis conditions, the distribution of *percentage increases* in dependency
set size per variable: the fraction of variables with no difference, and the
median of the non-zero differences.  It additionally reports a per-crate
correlation (R² ≈ 0.79 between a crate's number of analysed variables and its
number of non-zero differences) and a linear-regression interaction test
showing Mut-blind × Ref-blind has no significant interaction.

This module implements those computations over the raw
``(crate, function, variable) → size`` tables produced by
:mod:`repro.eval.experiments`.  Only the interaction regression needs
numpy/scipy (the ``stats`` extra), and imports them when called; everything
else is pure Python, so importing this module never loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


VarKey = Tuple[str, str, str]  # (crate, function, variable)


def percent_differences(
    baseline: Mapping[VarKey, int], other: Mapping[VarKey, int]
) -> Dict[VarKey, float]:
    """Per-variable percentage increase of ``other`` relative to ``baseline``.

    Follows the paper's formula: for baseline size ``b`` and other size ``o``,
    the difference is ``(o - b) / b`` (as a percentage).  Variables missing
    from either table are skipped; a zero baseline (which can only happen for
    never-written unit temporaries) is clamped to 1 to keep the ratio finite.
    """
    out: Dict[VarKey, float] = {}
    for key, base_size in baseline.items():
        if key not in other:
            continue
        other_size = other[key]
        denominator = max(base_size, 1)
        out[key] = 100.0 * (other_size - base_size) / denominator
    return out


@dataclass
class DiffSummary:
    """Headline statistics of one condition comparison (Section 5.2 style)."""

    label: str
    total: int
    num_zero: int
    num_nonzero: int
    median_nonzero_percent: float
    mean_nonzero_percent: float
    max_percent: float

    @property
    def fraction_zero(self) -> float:
        return self.num_zero / self.total if self.total else 1.0

    @property
    def fraction_nonzero(self) -> float:
        return self.num_nonzero / self.total if self.total else 0.0

    def row(self) -> Dict[str, object]:
        return {
            "comparison": self.label,
            "variables": self.total,
            "identical": self.num_zero,
            "identical_pct": round(100.0 * self.fraction_zero, 1),
            "nonzero": self.num_nonzero,
            "nonzero_pct": round(100.0 * self.fraction_nonzero, 1),
            "median_nonzero_increase_pct": round(self.median_nonzero_percent, 1),
            "mean_nonzero_increase_pct": round(self.mean_nonzero_percent, 1),
            "max_increase_pct": round(self.max_percent, 1),
        }


def median(values: Sequence[float]) -> float:
    """The interpolated median of ``values`` (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


_median = median  # backwards-compatible private alias


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``samples`` (nearest-rank, 0 ≤ f ≤ 1).

    The single latency-percentile implementation shared by the perf harness
    (:mod:`repro.eval.perf`), the load harness (:mod:`repro.eval.load`) and
    the benchmark suite.  Nearest-rank keeps every reported value an actual
    observed sample, which matters when tails are sparse.

    Total on degenerate input, by contract:

    * empty ``samples`` → ``0.0`` (never an ``IndexError``),
    * a single sample → that sample, for every ``fraction``,
    * ``fraction`` outside ``[0, 1]`` → clamped to the min/max sample.

    For non-empty input the result is always one of the samples, lies
    between ``min(samples)`` and ``max(samples)``, and is monotone in
    ``fraction`` — the invariants pinned by ``tests/test_stats.py``.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def latency_summary_ms(
    samples_seconds: Sequence[float],
    fractions: Sequence[float] = (0.50, 0.95, 0.99),
    digits: int = 4,
) -> Dict[str, float]:
    """Latency percentiles in milliseconds, keyed ``p50``/``p95``/... .

    Takes samples in *seconds* (what ``time.perf_counter`` differences give)
    and reports milliseconds, the unit every harness table prints.

    Total like :func:`percentile`: an empty input yields every requested
    key with value ``0.0``, and a single sample yields that sample (in ms)
    at every key — so report renderers never special-case empty windows.
    """
    ordered = sorted(samples_seconds)
    return {
        f"p{int(round(fraction * 100))}": round(percentile(ordered, fraction) * 1e3, digits)
        for fraction in fractions
    }


def summarize_differences(
    differences: Mapping[VarKey, float], label: str = ""
) -> DiffSummary:
    """Summarise a per-variable difference table: %-identical, median non-zero."""
    values = list(differences.values())
    nonzero = [v for v in values if abs(v) > 1e-9]
    return DiffSummary(
        label=label,
        total=len(values),
        num_zero=len(values) - len(nonzero),
        num_nonzero=len(nonzero),
        median_nonzero_percent=_median(nonzero),
        mean_nonzero_percent=(sum(nonzero) / len(nonzero)) if nonzero else 0.0,
        max_percent=max(values) if values else 0.0,
    )


def histogram(
    differences: Mapping[VarKey, float],
    num_bins: int = 20,
    log_scale: bool = True,
    include_zero_bin: bool = True,
) -> List[Tuple[str, int]]:
    """Bin the non-zero percentage differences, Figure 2/3 style.

    With ``log_scale`` the bins are logarithmically spaced between the
    smallest and largest positive difference (the paper's x-axis is a log
    scale "with zero added for comparison"); a dedicated ``0`` bin is
    prepended when ``include_zero_bin``.
    """
    values = list(differences.values())
    positive = sorted(v for v in values if v > 1e-9)
    zero_count = sum(1 for v in values if abs(v) <= 1e-9)

    bins: List[Tuple[str, int]] = []
    if include_zero_bin:
        bins.append(("0", zero_count))
    if not positive:
        return bins

    low = max(positive[0], 1e-3)
    high = max(positive[-1], low * 1.0001)
    edges: List[float] = []
    for index in range(num_bins + 1):
        if log_scale:
            log_low, log_high = math.log10(low), math.log10(high)
            edges.append(10 ** (log_low + (log_high - log_low) * index / num_bins))
        else:
            edges.append(low + (high - low) * index / num_bins)

    counts = [0] * num_bins
    for value in positive:
        placed = False
        for index in range(num_bins):
            if value <= edges[index + 1] + 1e-12:
                counts[index] += 1
                placed = True
                break
        if not placed:
            counts[-1] += 1
    for index in range(num_bins):
        label = f"({edges[index]:.2g}, {edges[index + 1]:.2g}]"
        bins.append((label, counts[index]))
    return bins


def per_crate_nonzero_counts(
    differences: Mapping[VarKey, float]
) -> Dict[str, int]:
    """Number of non-zero differences per crate (the Figure 4 breakdown)."""
    out: Dict[str, int] = {}
    for (crate, _fn, _var), value in differences.items():
        if abs(value) > 1e-9:
            out[crate] = out.get(crate, 0) + 1
        else:
            out.setdefault(crate, 0)
    return out


def per_crate_variable_counts(keys: Iterable[VarKey]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for crate, _fn, _var in keys:
        out[crate] = out.get(crate, 0) + 1
    return out


def crate_correlation(differences: Mapping[VarKey, float]) -> float:
    """R² between per-crate variable counts and non-zero-difference counts.

    The paper reports R² = 0.79 for this correlation (Section 5.4.1): larger
    crates have more non-zero differences.
    """
    nonzero = per_crate_nonzero_counts(differences)
    totals = per_crate_variable_counts(differences.keys())
    crates = sorted(totals)
    if len(crates) < 2:
        return 1.0
    xs = [float(totals[c]) for c in crates]
    ys = [float(nonzero.get(c, 0)) for c in crates]
    return _r_squared(xs, ys)


def _r_squared(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    r = cov / math.sqrt(var_x * var_y)
    return r * r


@dataclass
class RegressionTerm:
    """One coefficient of the interaction regression."""

    name: str
    coefficient: float
    std_error: float
    t_statistic: float
    p_value: float

    def significant(self, alpha: float = 0.001) -> bool:
        return self.p_value < alpha


@dataclass
class InteractionRegression:
    """OLS of dependency-set size on the Mut-blind / Ref-blind indicators.

    Reproduces the Section 5.2 check: each ablation is individually
    significant while their interaction is not.
    """

    terms: List[RegressionTerm] = field(default_factory=list)
    n_observations: int = 0

    def term(self, name: str) -> RegressionTerm:
        for term in self.terms:
            if term.name == name:
                return term
        raise KeyError(name)


def interaction_regression(
    sizes_by_condition: Mapping[Tuple[bool, bool], Mapping[VarKey, int]]
) -> InteractionRegression:
    """Fit ``size ~ mut_blind + ref_blind + mut_blind:ref_blind``.

    ``sizes_by_condition`` maps ``(mut_blind, ref_blind)`` flag pairs to the
    per-variable size tables measured under that condition (whole-program
    disabled), i.e. the 2×2 sub-grid of the paper's 2³ design.
    """
    try:
        import numpy as np
        from scipy import stats
    except ImportError as exc:
        raise RuntimeError("interaction_regression requires numpy and scipy") from exc

    rows: List[Tuple[float, float, float]] = []
    ys: List[float] = []
    for (mut_blind, ref_blind), sizes in sizes_by_condition.items():
        for _key, size in sizes.items():
            rows.append((1.0, 1.0 if mut_blind else 0.0, 1.0 if ref_blind else 0.0))
            ys.append(float(size))
    X = np.array([[c, m, r, m * r] for c, m, r in rows])
    y = np.array(ys)
    n, k = X.shape

    beta, residuals, rank, _sv = np.linalg.lstsq(X, y, rcond=None)
    fitted = X @ beta
    resid = y - fitted
    dof = max(n - k, 1)
    sigma2 = float(resid @ resid) / dof
    xtx_inv = np.linalg.pinv(X.T @ X)
    std_errors = np.sqrt(np.maximum(np.diag(xtx_inv) * sigma2, 1e-30))
    t_stats = beta / std_errors
    p_values = 2.0 * stats.t.sf(np.abs(t_stats), dof)

    names = ["intercept", "mut_blind", "ref_blind", "mut_blind:ref_blind"]
    terms = [
        RegressionTerm(
            name=name,
            coefficient=float(beta[i]),
            std_error=float(std_errors[i]),
            t_statistic=float(t_stats[i]),
            p_value=float(p_values[i]),
        )
        for i, name in enumerate(names)
    ]
    return InteractionRegression(terms=terms, n_observations=n)
