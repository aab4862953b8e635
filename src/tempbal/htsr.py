"""Heavy-tailed metrics of eigenvalue spectra.

The tail of a trained layer's ESD is modeled as a truncated power law
p(lambda) ~ lambda^(-alpha) for lambda_min < lambda < lambda_max. The
exponent is estimated closed-form from the top k order statistics of the
ascending eigenvalues {lambda_i}_{i=1..n}:

    alpha = 1 + k / sum_{i=1..k} ln(lambda_{n-i+1} / lambda_{n-k})

k fixes the lower truncation threshold lambda_min = lambda_{n-k}. Three
threshold policies are supported:

    median     k = floor(n/2), i.e. fit on the largest half of the spectrum
    ks         k chosen to minimize the Kolmogorov-Smirnov distance between
               the empirical tail CDF and the fitted power-law CDF
    fixfinger  lambda_min placed at the peak of the ESD, located on a
               histogram of log10(lambda)

A flat tail, one whose log-sum is roundoff, yields an +inf sentinel instead
of an error so that degenerate layers can still be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, integral
from .esd import ESD, compute_esd, orient, roundoff_floor
from .weight_store import WeightSnapshot

POLICY_VARIANTS = ("median", "ks", "fixfinger")
MAX_HISTOGRAM_BINS = 10_000  # a histogram allocates O(bins); analyze writes a row per bin and layer
# the eigenvalues of a layer whose singular values are all equal differ by roundoff
# only, yet a k-value tail's log-sum reaches 2.8 k n eps at n = 4, 1.6 k n eps at
# n = 8 and under k n eps from n = 16 on (probe: m <= 200, scales 1e-3 to 1e3)
FLAT_TAIL_ROUNDOFFS = 4
KS_CANDIDATES = 64  # KS distances computed at once: under the n x n Gram's size for every n


class DegenerateSpectrumError(NumericalError):
    """Fewer than 4 eigenvalues, or all of them zero: no tail exists to fit."""


class DegenerateThresholdError(NumericalError):
    """The tail threshold lambda_{n-k} is zero; log-ratios are undefined."""


@dataclass(frozen=True)
class LambdaMinPolicy:
    """How to pick the tail count k (equivalently the threshold lambda_min)."""

    variant: str = "median"
    histogram_bins: int = 100

    def __post_init__(self):
        object.__setattr__(self, "histogram_bins", integral(self.histogram_bins, "histogram_bins"))
        if self.variant not in POLICY_VARIANTS:
            raise ConfigError(f"unknown policy variant {self.variant!r}, expected one of {POLICY_VARIANTS}")
        if not 2 <= self.histogram_bins <= MAX_HISTOGRAM_BINS:
            raise ConfigError(f"histogram_bins must be in [2, {MAX_HISTOGRAM_BINS}], got {self.histogram_bins}")


@dataclass(frozen=True)
class LayerMetrics:
    """Per-layer heavy-tail quantities used for scheduling and diagnostics, in metrics.csv column order."""

    k: int
    lambda_min: float
    alpha_hill: float
    spectral_norm: float
    alpha_weighted: float


def _is_flat(log_sum, k, n: int):
    """Whether the log-sum of a k-value tail of n eigenvalues is roundoff, so the tail reads as flat.

    log_sum and k may be arrays of candidates, tested elementwise.
    """
    return log_sum <= FLAT_TAIL_ROUNDOFFS * k * roundoff_floor(n)


def hill_alpha(esd: ESD, k: int) -> float:
    """Closed-form tail exponent from the top k of n ascending eigenvalues.

    Returns 1 + k / sum_{i=1..k} ln(lambda_{n-i+1}/lambda_{n-k}). A flat
    tail, whose log-sum is at most FLAT_TAIL_ROUNDOFFS * k * roundoff_floor(n)
    (all top k+1 eigenvalues equal up to roundoff), returns math.inf at any
    scale of the eigenvalues.
    """
    lam = esd.eigenvalues
    n = lam.size
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    threshold = lam[n - k - 1]
    if threshold <= 0.0:
        raise DegenerateThresholdError(
            f"{esd.source_name!r}: tail threshold lambda_(n-k) is zero for k={k}"
        )
    log_sum = float(np.sum(np.log(lam[n - k:] / threshold)))
    if _is_flat(log_sum, k, n):
        return math.inf
    return 1.0 + k / log_sum


def _select_k_ks(lam: np.ndarray, source_name: str = "") -> int:
    """k minimizing the KS distance of the fitted truncated power law.

    For each candidate k the model CDF on the tail is
    F(lambda) = 1 - (lambda/lambda_{n-k})^(1-alpha); the empirical CDF is
    the right-continuous step function i/k at the i-th smallest tail value.
    A flat tail (see hill_alpha) reads as k values at the threshold, where
    the degenerate model is 0, so its distance is 1. Ties in the distance
    break toward larger k. Candidates whose threshold is zero cannot be fit;
    with fewer than two left, DegenerateSpectrumError names source_name.

    Every candidate's log-sum comes from one cumulative sum of the
    log-eigenvalues (Clauset, Shalizi and Newman 2009), taken relative to the
    largest so that a flat tail's sum stays at roundoff size. The distances
    are computed KS_CANDIDATES candidates at a time, a block of at most
    KS_CANDIDATES x n values.
    """
    n = lam.size
    k_max = min(n, np.count_nonzero(lam)) - 1  # the largest k whose threshold lambda_{n-k} is positive
    if k_max < 2:
        raise DegenerateSpectrumError(f"{source_name!r}: no candidate k admits a power-law fit")
    # logs[p] = ln(lambda_{n-p} / lambda_n): candidate k's tail is logs[:k] and its threshold logs[k]
    logs = np.log(lam[n - k_max - 1:][::-1])
    logs -= logs[0]
    tail_sums = np.cumsum(logs)
    best_k, best_d = 0, math.inf
    for first in range(2, k_max + 1, KS_CANDIDATES):
        ks = np.arange(first, min(first + KS_CANDIDATES, k_max + 1))
        log_sums = tail_sums[ks - 1] - ks * logs[ks]
        flat = _is_flat(log_sums, ks, n)
        alphas = 1.0 + ks / np.where(flat, 1.0, log_sums)
        # row k, column p: the tail value of rank k - p above the threshold; both CDFs read 0 at columns p >= k
        empirical = np.maximum(ks[:, None] - np.arange(ks[-1]), 0) / ks[:, None]
        model = np.maximum(logs[: ks[-1]] - logs[ks, None], 0.0)
        model *= (1.0 - alphas)[:, None]
        model = 1.0 - np.exp(model, out=model)
        d = np.where(flat, 1.0, np.max(np.abs(empirical - model), axis=1))
        last = d.size - 1 - int(np.argmin(d[::-1]))  # the largest k of the block's smallest distance
        if d[last] <= best_d:
            best_k, best_d = int(ks[last]), d[last]
    return best_k


def log10_histogram(eigenvalues: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges of a histogram of log10(lambda) over the positive ascending eigenvalues.

    Spectra span decades, so the ESD is binned on a log scale; zero
    eigenvalues have no logarithm and are left out. Positive eigenvalues that
    read as one value, because they are flat (hill_alpha's test of the tail
    above the smallest) or their log span is too narrow for bins distinct
    edges, are binned the way numpy bins a zero span: all in bin bins//2 of a
    range one decade wide, here centered on the smallest log, so that none of
    them sits on an edge at any scale.
    """
    positive = eigenvalues[eigenvalues > 0]
    logs = np.log10(positive)
    if positive.size:
        flat = _is_flat(float(np.sum(np.log(positive / positive[0]))), positive.size - 1, eigenvalues.size)
        edges = np.linspace(logs[0], logs[-1], bins + 1)
        if flat or np.any(edges[:-1] >= edges[1:]):
            lower = logs[0] - (bins // 2 + 0.5) / bins
            return np.histogram(logs, bins=bins, range=(lower, lower + 1.0))
    return np.histogram(logs, bins=bins)


def _select_k_fixfinger(lam: np.ndarray, bins: int) -> int:
    """k from the ESD peak: count eigenvalues strictly above the peak bin's left edge.

    The peak is read off log10_histogram, the histogram `tempbal analyze`
    writes. Ties in the peak break toward smaller lambda. The count is taken
    on the same log10 values the histogram bins, so when the peak is the
    first bin its edge, the smallest positive eigenvalue, is never above
    itself. A flat spectrum's peak holds every positive eigenvalue, all above
    its left edge. The count clamps into [2, n-1].
    """
    n = lam.size
    counts, edges = log10_histogram(lam, bins)
    peak_bin = int(np.argmax(counts))
    k = int(np.sum(np.log10(lam[lam > 0]) > edges[peak_bin]))
    return min(max(k, 2), n - 1)


def select_k(esd: ESD, policy: LambdaMinPolicy) -> int:
    """Tail count k for the configured threshold policy."""
    lam = esd.eigenvalues
    n = lam.size
    if n < 4:
        raise DegenerateSpectrumError(f"{esd.source_name!r}: need at least 4 eigenvalues, got {n}")
    if lam[-1] <= 0.0:
        raise DegenerateSpectrumError(f"{esd.source_name!r}: all eigenvalues are zero")
    if policy.variant == "median":
        return n // 2
    if policy.variant == "ks":
        return _select_k_ks(lam, esd.source_name)
    return _select_k_fixfinger(lam, policy.histogram_bins)


def layer_metrics(esd: ESD, policy: LambdaMinPolicy) -> LayerMetrics:
    """Fit the tail under the given policy and collect the per-layer metrics.

    alpha_weighted is alpha_hill * log10(lambda_max); it propagates the +inf
    sentinel when the tail is flat.
    """
    k = select_k(esd, policy)
    alpha = hill_alpha(esd, k)
    spectral_norm = esd.lambda_max
    if math.isinf(alpha):
        weighted = math.inf
    else:
        weighted = alpha * math.log10(spectral_norm)
    return LayerMetrics(
        k=k,
        lambda_min=float(esd.eigenvalues[esd.eigenvalues.size - k - 1]),
        alpha_hill=alpha,
        spectral_norm=spectral_norm,
        alpha_weighted=weighted,
    )


@dataclass(frozen=True)
class LayerAnalysis:
    """Outcome of analyzing one snapshot layer; error is set for degenerate layers."""

    name: str
    n: int
    m: int
    esd: ESD | None
    metrics: LayerMetrics | None
    error: str | None


def _analyze_layer(layer, policy: LambdaMinPolicy) -> LayerAnalysis:
    n, m = orient(layer)
    spectrum = None
    try:
        spectrum = compute_esd(layer)
        metrics = layer_metrics(spectrum, policy)
    except (NumericalError, np.linalg.LinAlgError) as exc:  # a ValueError from a defect propagates
        return LayerAnalysis(layer.name, n, m, spectrum, None, str(exc))
    return LayerAnalysis(layer.name, n, m, spectrum, metrics, None)


def analyze_snapshot(snapshot: WeightSnapshot, policy: LambdaMinPolicy) -> list[LayerAnalysis]:
    """Per-layer ESD metrics for a whole snapshot, in layer order.

    Numerical failures on a layer are captured in its row instead of
    aborting the snapshot.
    """
    return [_analyze_layer(layer, policy) for layer in snapshot.layers]
