"""Synthetic spectra for validating the tail-exponent machinery.

Two characterizations of a power-law spectrum are related here. If the
descending eigenvalues of a Q x Q Gram matrix decay as
lambda_k = lambda_1 * k^(-s), the density of eigenvalues behaves like
lambda^(-(1/s + 1)), so the Hill exponent of the ESD satisfies

    alpha = 1 + 1/s        equivalently  s = 1/(alpha - 1)

synth_pl_matrix builds square layers whose matrices have exactly
prescribed decaying spectra by scaling the columns of an orthogonal frame
from random_frame: the DCT-II basis with its rows in a seeded order and
with seeded signs. W W^T = U diag(lambda) U^T has the prescribed spectrum
for every orthogonal U, so any exactly orthogonal frame will do; a dense
one spreads each eigenvalue over the rows as a random rotation would, and
a sign-flipped DCT is the usual cheap stand-in for one (Ailon & Chazelle,
2009). Only a left frame is built: the Gram spectrum never sees a right
one. A PLSpectrumSpec is itself a layer: it builds its W when it is read,
as a StoredLayer reads its file, and keeps none. sweep_specs checks the
cells of one size of a sweep, verify_s_alpha plans and checks every cell of
a grid of sizes and s before it builds any, then hands compute_esd each
cell's spec, and spike_experiment demonstrates how a rank-1 update ejects
an eigenvalue from a random bulk ("bulk+spike").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, integral
from .esd import ESD, compute_esd, matrix, roundoff_floor
from .htsr import LambdaMinPolicy, layer_metrics
from .weight_store import LayerTensor

# top/second eigenvalue ratio above which a spike counts as ejected
SPIKE_SEPARATION = 3.0
# a Q x Q float64 matrix is then 512 MiB. A sweep holds two of them at a time: in a
# cell's gram, the Gram and the W the spec builds when gram reads it (the numpy arrays
# alone: 2.13 at Q = 2048 under tracemalloc, with one strip's product), then the Gram
# and the eigensolver's copy, which takes W's memory. With LAPACK's work space its
# resident memory rises by about two and a half (2.42 at Q = 2048, over a process that
# has only imported tempbal.cli)
MAX_SIZE = 8192
# rows of the frame gathered at a time, and the width of the column split in random_frame
FRAME_BLOCK = 64


@dataclass(frozen=True)
class PLSpectrumSpec:
    """Prescription for a matrix whose Gram spectrum decays as lambda1 * k^(-s), and the layer of that matrix.

    As a layer it builds W = synth_pl_matrix(self).values when it is read, as
    a StoredLayer reads its file, and keeps none. gram allocates the Gram
    before it asks for the one block, so W is freed when gram returns and
    the eigensolver's copy of the Gram can reuse its memory.
    """

    size: int
    decay: float
    lambda1: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "size", integral(self.size, "size"))
        if not 8 <= self.size <= MAX_SIZE:
            raise ConfigError(f"size must be in [8, {MAX_SIZE}], got {self.size}")
        if not 0 <= self.decay < math.inf:
            raise ConfigError(f"decay exponent must be finite and nonnegative, got {self.decay}")
        if not 0 < self.lambda1 < math.inf:
            raise ConfigError(f"lambda1 must be finite and positive, got {self.lambda1}")

    @property
    def name(self) -> str:
        return f"pl_q{self.size}_s{self.decay:g}"

    @property
    def shape(self) -> tuple[int, int]:
        return self.size, self.size

    @property
    def values(self) -> np.ndarray:
        """W, built at each access."""
        return synth_pl_matrix(self).values

    def row_blocks(self, rows: int) -> tuple[np.ndarray]:
        """W as one block, built at this call, whatever rows asks."""
        return (self.values,)


def pl_eigenvalues(spec: PLSpectrumSpec) -> np.ndarray:
    """The prescribed descending eigenvalues lambda1 * k^(-s), k = 1..size."""
    k = np.arange(1, spec.size + 1, dtype=np.float64)
    return spec.lambda1 * k ** (-spec.decay)


def random_frame(size: int, seed: int) -> np.ndarray:
    """A seeded orthogonal size x size frame: the DCT-II basis, rows shuffled and sign-flipped.

    The orthonormal DCT-II basis C[j, k] = sqrt(2/Q) c_k cos(pi (2j+1) k / (2Q)),
    with c_0 = 1/sqrt(2) and c_k = 1 otherwise, is orthogonal, and so is any
    reordering or sign flip of its rows: row i of the frame is +-C[p_i], the
    order p and the signs drawn from default_rng(seed). The phases (2j+1)k
    are reduced mod 4Q in integers and looked up in a table of the 4Q values
    cos(pi t / (2Q)), each computed from an angle within pi/4, so every entry
    is within about two ulps at any size. A phase is the sum of the reduced
    phases of k's multiple of FRAME_BLOCK and of its remainder, so it lies
    below 8Q and is looked up in the table repeated twice: one division per
    FRAME_BLOCK entries. Rows are gathered FRAME_BLOCK at a time straight
    into the frame, so the build holds the frame and one block of phases.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(size)
    flips = rng.integers(0, 2, size=size)
    step = math.pi / (2 * size)
    t = np.arange(size + 1)
    quarter = np.where(2 * t <= size, np.cos(t * step), np.sin((size - t) * step))  # t in [0, Q]
    half = np.concatenate([quarter, -quarter[-2::-1]])  # t in [0, 2Q]: cos(pi - x) = -cos(x)
    table = np.concatenate([half, half[-2:0:-1]]) * math.sqrt(2.0 / size)  # cos(2 pi - x) = cos(x)
    table = np.tile(table, 2)  # t in [0, 8Q)
    high = np.arange(0, size, FRAME_BLOCK)
    low = np.arange(FRAME_BLOCK)
    frame = np.empty((size, size))
    for start in range(0, size, FRAME_BLOCK):
        mult = 2 * order[start : start + FRAME_BLOCK] + 1  # these rows' phases are mult * k
        high_phases = np.multiply.outer(mult, high) % (4 * size)
        low_phases = np.multiply.outer(mult, low) % (4 * size)
        phases = (high_phases[:, :, None] + low_phases[:, None]).reshape(mult.size, -1)[:, :size]
        np.take(table, phases, out=frame[start : start + FRAME_BLOCK])
    frame *= np.where(flips, -1.0, 1.0)[:, None]
    frame[:, 0] *= math.sqrt(0.5)
    return frame


def synth_pl_matrix(spec: PLSpectrumSpec) -> LayerTensor:
    """Square layer whose Gram eigenvalues equal the prescribed spectrum.

    W = U diag(sqrt(lambda_k)) with U = random_frame(spec.size, spec.seed),
    the seeded shuffled and sign-flipped DCT-II basis, scaled in place, so
    building W holds no second size x size array. compute_esd(W), the
    spectrum of W W^T = U diag(lambda) U^T, reproduces the prescription up
    to roundoff. No right singular frame is drawn: W W^T is blind to it.
    """
    w = random_frame(spec.size, spec.seed)
    w *= np.sqrt(pl_eigenvalues(spec))
    return LayerTensor(spec.name, w)


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
    """The checked cells of one size of the s vs alpha sweep, one spec per s.

    Every cell of a size gets the one seed SeedSequence([seed, size]), so a
    cell depends only on (seed, size, s) and not on where s sits in the grid.
    Nothing is synthesized: each spec is a layer that builds its W when it is
    read. Raises ConfigError for an empty grid, a size that is not a whole
    number (64.0 reads as 64) or lies outside [8, MAX_SIZE], or an s <= 0.
    Every s must also keep the median fit's threshold, the prescribed
    eigenvalue (size//2 + 1)^(-s), above compute_esd's roundoff floor,
    roundoff_floor(size), or the fit would rest on an eigenvalue read as
    zero: s < max_decay(size).
    """
    if not s_grid:
        raise ConfigError("s grid must be nonempty")
    size = PLSpectrumSpec(size, 1.0).size  # the spec's size rule, checked before the size seeds anything
    size_seed = int(np.random.SeedSequence([seed, size]).generate_state(1)[0])
    specs = []
    for s in s_grid:
        if not s > 0:
            raise ConfigError(f"decay exponents must be positive for the sweep, got {s}")
        specs.append(PLSpectrumSpec(size=size, decay=s, seed=size_seed))
        if (size // 2 + 1) ** -s <= roundoff_floor(size):
            raise ConfigError(
                f"decay {s:g} at Q={size}: the median threshold {size // 2 + 1}^-s falls under "
                f"the ESD's roundoff floor Q*eps; need s < {max_decay(size):.4g}"
            )
    return specs


def verify_s_alpha(sizes: list[int], s_grid: list[float], seed: int = 0) -> list[SAlphaRow]:
    """Tabulate the fitted Hill exponent against the prediction 1 + 1/s on every (size, s) cell.

    Every cell is planned and checked by sweep_specs before any matrix is
    built, so a grid with one bad cell, or no size, raises ConfigError having
    spent nothing. The cells of a size share one seed, so each scales the same
    frame into a matrix with spectrum k^(-s). compute_esd gets each cell's
    spec, a layer that builds its W when gram reads it and keeps none, so no
    frame outlives its cell and W is freed before the eigensolve. Each is fit
    with the median threshold policy (k = n/2), whose threshold is the
    prescribed eigenvalue (n//2 + 1)^(-s).
    """
    if not sizes:
        raise ConfigError("q grid must be nonempty")
    specs = [spec for size in sizes for spec in sweep_specs(size, s_grid, seed)]
    policy = LambdaMinPolicy(variant="median")
    rows = []
    for spec in specs:
        metrics = layer_metrics(compute_esd(spec), policy)
        pred = 1.0 + 1.0 / spec.decay
        rows.append(
            SAlphaRow(
                size=spec.size,
                decay=spec.decay,
                alpha_hill=metrics.alpha_hill,
                alpha_pred=pred,
                rel_err=abs(metrics.alpha_hill - pred) / pred,
            )
        )
    return rows


@dataclass(frozen=True)
class SpikeResult:
    """Bulk ESDs before and after the spike, and whether it shows."""

    esd_before: ESD
    esd_after: ESD
    spike_detected: bool


def spike_experiment(bulk: LayerTensor, spike_scale: float, seed: int = 0) -> SpikeResult:
    """Add a rank-1 update spike_scale * a b^T to a bulk layer's n x m matrix W.

    a and b are seeded unit vectors of n and m entries. The spike counts as
    detected when the top eigenvalue after the update exceeds
    SPIKE_SEPARATION times the second one.
    """
    if spike_scale < 0:
        raise ValueError(f"spike_scale must be nonnegative, got {spike_scale}")
    w = matrix(bulk.values)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=w.shape[0])
    a /= np.linalg.norm(a)
    b = rng.normal(size=w.shape[1])
    b /= np.linalg.norm(b)
    before = compute_esd(bulk)
    after = compute_esd(LayerTensor(f"{bulk.name}+spike", w + spike_scale * np.outer(a, b)))
    lam = after.eigenvalues
    if lam.size < 2:
        detected = False
    elif lam[-2] == 0.0:
        detected = lam[-1] > 0.0
    else:
        detected = lam[-1] > SPIKE_SEPARATION * lam[-2]
    return SpikeResult(esd_before=before, esd_after=after, spike_detected=bool(detected))
