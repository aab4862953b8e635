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

A perfectly flat tail (zero log-sum) yields an +inf sentinel instead of an
error so that degenerate layers can still be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .esd import ESD, OrientedMatrix, compute_esd, orient
from .weight_store import WeightSnapshot

POLICY_VARIANTS = ("median", "ks", "fixfinger")
MAX_HISTOGRAM_BINS = 10_000  # a histogram allocates O(bins); analyze writes a row per bin and layer


class DegenerateSpectrumError(NumericalError):
    """All eigenvalues are zero; no tail exists to fit."""


class DegenerateThresholdError(NumericalError):
    """The tail threshold lambda_{n-k} is zero; log-ratios are undefined."""


class ConvergenceError(NumericalError):
    """A top singular pair (power iteration, or the SNR gradient's eigensolve) missed its residual bound."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class LambdaMinPolicy:
    """How to pick the tail count k (equivalently the threshold lambda_min)."""

    variant: str = "median"
    histogram_bins: int = 100

    def __post_init__(self):
        if self.variant not in POLICY_VARIANTS:
            raise ConfigError(f"unknown policy variant {self.variant!r}, expected one of {POLICY_VARIANTS}")
        if not 2 <= self.histogram_bins <= MAX_HISTOGRAM_BINS:
            raise ConfigError(f"histogram_bins must be in [2, {MAX_HISTOGRAM_BINS}], got {self.histogram_bins}")


@dataclass(frozen=True)
class LayerMetrics:
    """Per-layer heavy-tail quantities used for scheduling and diagnostics."""

    alpha_hill: float
    k: int
    lambda_min: float
    spectral_norm: float
    alpha_weighted: float


def hill_alpha(esd: ESD, k: int) -> float:
    """Closed-form tail exponent from the top k of n ascending eigenvalues.

    Returns 1 + k / sum_{i=1..k} ln(lambda_{n-i+1}/lambda_{n-k}). A zero
    log-sum (all top k+1 eigenvalues equal) returns math.inf.
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
    if log_sum == 0.0:
        return math.inf
    return 1.0 + k / log_sum


def _select_k_ks(lam: np.ndarray) -> int:
    """k minimizing the KS distance of the fitted truncated power law.

    For each candidate k the model CDF on the tail is
    F(lambda) = 1 - (lambda/lambda_{n-k})^(1-alpha); the empirical CDF is
    the right-continuous step function i/k at the i-th smallest tail value.
    Ties in the distance break toward larger k. Candidates whose threshold
    is zero cannot be fit and are skipped.
    """
    n = lam.size
    best_k = None
    best_d = math.inf
    log_lam = np.log(lam, out=np.full(n, -math.inf), where=lam > 0)
    for k in range(2, n):
        threshold = lam[n - k - 1]
        if threshold <= 0.0:
            continue
        tail_logs = log_lam[n - k:] - math.log(threshold)
        log_sum = float(tail_logs.sum())
        if log_sum == 0.0:
            # flat tail: the degenerate model jumps to 1 above the threshold
            model = np.where(tail_logs > 0, 1.0, 0.0)
        else:
            alpha = 1.0 + k / log_sum
            model = 1.0 - np.exp((1.0 - alpha) * tail_logs)
        empirical = np.arange(1, k + 1) / k
        d = float(np.max(np.abs(empirical - model)))
        if d <= best_d:
            best_d = d
            best_k = k
    if best_k is None:
        raise DegenerateSpectrumError("no candidate k admits a power-law fit")
    return best_k


def log10_histogram(eigenvalues: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges of a histogram of log10(lambda) over the positive eigenvalues.

    Spectra span decades, so the ESD is binned on a log scale; zero
    eigenvalues have no logarithm and are left out.
    """
    return np.histogram(np.log10(eigenvalues[eigenvalues > 0]), bins=bins)


def _select_k_fixfinger(lam: np.ndarray, bins: int) -> int:
    """k from the ESD peak: count eigenvalues strictly above the peak bin's left edge.

    The peak is read off log10_histogram, the histogram `tempbal analyze`
    writes. Ties in the peak break toward smaller lambda. The count is taken
    on the same log10 values the histogram bins, so when the peak is the
    first bin its edge, the smallest positive eigenvalue, is never above
    itself. The count clamps into [2, n-1].
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
        raise ValueError(f"{esd.source_name!r}: need at least 4 eigenvalues, got {n}")
    if lam[-1] <= 0.0:
        raise DegenerateSpectrumError(f"{esd.source_name!r}: all eigenvalues are zero")
    if policy.variant == "median":
        return n // 2
    if policy.variant == "ks":
        return _select_k_ks(lam)
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
        alpha_hill=alpha,
        k=k,
        lambda_min=float(esd.eigenvalues[esd.eigenvalues.size - k - 1]),
        spectral_norm=spectral_norm,
        alpha_weighted=weighted,
    )


def power_iteration_sigma(
    mat: OrientedMatrix | np.ndarray,
    tol: float = 1e-7,
    max_iter: int = 100,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Top singular value and unit vectors (sigma, u, v) by power iteration.

    Alternates v <- normalize(W^T u), u <- normalize(W v) from a fixed
    pseudo-random unit start vector (default_rng(0), the same on every
    call). Unlike a structured start such as the all-ones vector, it does
    not fall into the left null space of layers whose columns sum to zero
    or that have low rank. The W^T u of one residual is the next step's
    W^T u, so an iteration costs two mat-vecs. Convergence is declared
    when the pair residual ||W^T u - sigma v|| <= tol * sigma, which also
    makes ||W v - sigma u|| <= tol * sigma hold at return (it is zero by
    construction of u). The zero matrix returns sigma = 0.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    w = mat.values if isinstance(mat, OrientedMatrix) else np.asarray(mat, dtype=np.float64)
    name = mat.source_name if isinstance(mat, OrientedMatrix) else "matrix"
    if not np.all(np.isfinite(w)):
        raise NumericalError(f"{name!r}: non-finite entries in weight matrix")
    n, m = w.shape
    u = np.random.default_rng(0).standard_normal(n)
    u /= np.linalg.norm(u)
    if not w.any():
        return 0.0, u, np.zeros(m)
    wu = w.T @ u
    residual = math.inf
    for _ in range(max_iter):
        # u^T W v = ||W^T u||, which is nonzero once u lies in the range of W
        v = wu / np.linalg.norm(wu)
        wv = w @ v
        sigma = float(np.linalg.norm(wv))
        u = wv / sigma
        wu = w.T @ u
        residual = float(np.linalg.norm(wu - sigma * v))
        if residual <= tol * sigma:
            return sigma, u, v
    raise ConvergenceError(
        f"{name!r}: power iteration did not converge in {max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual,
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
    oriented = orient(layer)
    spectrum = None
    try:
        spectrum = compute_esd(oriented)
        metrics = layer_metrics(spectrum, policy)
    except (NumericalError, ValueError) as exc:
        return LayerAnalysis(layer.name, oriented.n, oriented.m, spectrum, None, str(exc))
    return LayerAnalysis(layer.name, oriented.n, oriented.m, spectrum, metrics, None)


def analyze_snapshot(snapshot: WeightSnapshot, policy: LambdaMinPolicy) -> list[LayerAnalysis]:
    """Per-layer ESD metrics for a whole snapshot, in layer order.

    Numerical failures on a layer are captured in its row instead of
    aborting the snapshot.
    """
    return [_analyze_layer(layer, policy) for layer in snapshot.layers]
