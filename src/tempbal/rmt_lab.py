"""Synthetic spectra for validating the tail-exponent machinery.

Two characterizations of a power-law spectrum are related here. If the
descending eigenvalues of a Q x Q Gram matrix decay as
lambda_k = lambda_1 * k^(-s), the density of eigenvalues behaves like
lambda^(-(1/s + 1)), so the Hill exponent of the ESD satisfies

    alpha = 1 + 1/s        equivalently  s = 1/(alpha - 1)

synth_pl_matrix builds matrices with exactly prescribed decaying spectra
(a random left orthogonal frame only: the Gram spectrum never sees a right
one), sweep_specs checks the cells of a sweep, verify_s_alpha sweeps the
relation on a grid of s, and spike_experiment demonstrates how a rank-1
update ejects an eigenvalue from a random bulk ("bulk+spike").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .esd import ESD, OrientedMatrix, compute_esd, roundoff_floor
from .htsr import LambdaMinPolicy, layer_metrics

# top/second eigenvalue ratio above which a spike counts as ejected
SPIKE_SEPARATION = 3.0
# a Q x Q float64 matrix is then 512 MiB; a sweep cell's arrays peak at about four
# of them, and with LAPACK's work space its resident memory rises by about five
MAX_SIZE = 8192


@dataclass(frozen=True)
class PLSpectrumSpec:
    """Prescription for a matrix whose Gram spectrum decays as lambda1 * k^(-s)."""

    size: int
    decay: float
    lambda1: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 8 <= self.size <= MAX_SIZE:
            raise ConfigError(f"size must be in [8, {MAX_SIZE}], got {self.size}")
        if self.decay < 0:
            raise ConfigError(f"decay exponent must be nonnegative, got {self.decay}")
        if self.lambda1 <= 0:
            raise ConfigError(f"lambda1 must be positive, got {self.lambda1}")


def pl_eigenvalues(spec: PLSpectrumSpec) -> np.ndarray:
    """The prescribed descending eigenvalues lambda1 * k^(-s), k = 1..size."""
    k = np.arange(1, spec.size + 1, dtype=np.float64)
    return spec.lambda1 * k ** (-spec.decay)


def synth_pl_matrix(spec: PLSpectrumSpec) -> OrientedMatrix:
    """Square matrix whose Gram eigenvalues equal the prescribed spectrum.

    W = U diag(sqrt(lambda_k)) with U the orthogonal QR factor of a seeded
    Gaussian, so compute_esd(W), the spectrum of W W^T = U diag(lambda) U^T,
    reproduces the prescription up to roundoff. No right singular frame is
    drawn, nor are U's column signs fixed: W W^T is blind to both.
    """
    rng = np.random.default_rng(spec.seed)
    w, _ = np.linalg.qr(rng.normal(size=(spec.size, spec.size)))
    w *= np.sqrt(pl_eigenvalues(spec))
    return OrientedMatrix(
        values=w, source_name=f"pl_q{spec.size}_s{spec.decay:g}", transposed=False
    )


def max_decay(size: int) -> float:
    """Supremum of the decays verify_s_alpha accepts at this size: (size//2 + 1)^(-s) = roundoff_floor(size)."""
    return -math.log(roundoff_floor(size)) / math.log(size // 2 + 1)


@dataclass(frozen=True)
class SAlphaRow:
    """One cell of the s vs alpha verification table."""

    size: int
    decay: float
    alpha_hill: float
    alpha_pred: float
    rel_err: float


def sweep_specs(size: int, s_grid: list[float], seed: int = 0) -> list[PLSpectrumSpec]:
    """The checked cells of one size of the s vs alpha sweep, one seeded spec per s.

    Nothing is synthesized. Raises ConfigError for an empty grid, a size
    outside [8, MAX_SIZE] or an s <= 0. Every s must also keep the median
    fit's threshold, the prescribed eigenvalue (size//2 + 1)^(-s), above
    compute_esd's roundoff floor, roundoff_floor(size), or the fit would rest
    on an eigenvalue read as zero: s < max_decay(size).
    """
    if not s_grid:
        raise ConfigError("s grid must be nonempty")
    specs = []
    for idx, s in enumerate(s_grid):
        if s <= 0:
            raise ConfigError(f"decay exponents must be positive for the sweep, got {s}")
        cell_seed = np.random.SeedSequence([seed, size, idx]).generate_state(1)[0]
        specs.append(PLSpectrumSpec(size=size, decay=s, seed=int(cell_seed)))
        if (size // 2 + 1) ** -s <= roundoff_floor(size):
            raise ConfigError(
                f"decay {s:g} at Q={size}: the median threshold {size // 2 + 1}^-s falls under "
                f"the ESD's roundoff floor Q*eps; need s < {max_decay(size):.4g}"
            )
    return specs


def verify_s_alpha(
    size: int,
    s_grid: list[float],
    seed: int = 0,
) -> list[SAlphaRow]:
    """Tabulate the fitted Hill exponent against the prediction 1 + 1/s.

    For each cell of sweep_specs(size, s_grid, seed) a fresh matrix with
    spectrum k^(-s) is synthesized and fit with the median threshold policy
    (k = n/2), whose threshold is the prescribed eigenvalue (n//2 + 1)^(-s).
    """
    policy = LambdaMinPolicy(variant="median")
    rows = []
    for spec in sweep_specs(size, s_grid, seed):
        metrics = layer_metrics(compute_esd(synth_pl_matrix(spec)), policy)
        pred = 1.0 + 1.0 / spec.decay
        rows.append(
            SAlphaRow(
                size=size,
                decay=spec.decay,
                alpha_hill=metrics.alpha_hill,
                alpha_pred=pred,
                rel_err=abs(metrics.alpha_hill - pred) / pred,
            )
        )
    return rows


@dataclass(frozen=True)
class SpikeResult:
    esd_before: ESD
    esd_after: ESD
    spike_detected: bool
    spike_scale: float = field(default=0.0, compare=False)


def spike_experiment(
    bulk: OrientedMatrix, spike_scale: float, seed: int = 0
) -> SpikeResult:
    """Add a rank-1 update spike_scale * a b^T to a bulk matrix.

    a and b are seeded unit vectors. The spike counts as detected when the
    top eigenvalue after the update exceeds SPIKE_SEPARATION times the
    second one.
    """
    if spike_scale < 0:
        raise ValueError(f"spike_scale must be nonnegative, got {spike_scale}")
    rng = np.random.default_rng(seed)
    a = rng.normal(size=bulk.n)
    a /= np.linalg.norm(a)
    b = rng.normal(size=bulk.m)
    b /= np.linalg.norm(b)
    before = compute_esd(bulk)
    bumped = OrientedMatrix(
        values=bulk.values + spike_scale * np.outer(a, b),
        source_name=f"{bulk.source_name}+spike",
        transposed=bulk.transposed,
    )
    after = compute_esd(bumped)
    lam = after.eigenvalues
    if lam.size < 2:
        detected = False
    elif lam[-2] == 0.0:
        detected = lam[-1] > 0.0
    else:
        detected = lam[-1] > SPIKE_SEPARATION * lam[-2]
    return SpikeResult(
        esd_before=before, esd_after=after, spike_detected=bool(detected), spike_scale=spike_scale
    )
