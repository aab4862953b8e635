"""Empirical spectral densities of layer weight matrices.

Every weight array enters as a LayerTensor, the one entry that checks it,
and is its own matrix: W is its flattened rows (conv tensors flatten to
out-channels x in*kh*kw), transposed when they outnumber their columns, so
W is n x m with n <= m. That transpose rule lives here only: orient gives
a layer's (n, m), gram sums W W^T, and matrix gives an in-memory layer's W
as a view. The ESD is the set of eigenvalues of the n x n Gram matrix
W W^T, from a symmetric eigensolve. W W^T is the smaller of the two Gram
matrices and has the same nonzero spectrum as W^T W; one eigensolve of it
costs a fraction of a full SVD of W.

gram, the one reader of a layer's rows, sums W W^T into one n x n array
over the blocks of n rows the layer gives. An array in memory is one block.
So are a wide layer of a snapshot file and an rmt_lab PLSpectrumSpec, a
layer that builds its W when it is read, as a StoredLayer reads its file:
each is read or built when gram asks for its block and freed when gram
returns, before the eigensolve. A tall stored layer (transposed, so its rows
are the columns of W) is never held whole; its sum runs in another order
than the one-block product, so its eigenvalues may differ in the last bits
from those of the same layer in memory. Each block adds its product to the
Gram's lower triangle GRAM_STRIP rows at a time. That is the triangle the eigensolvers read
(numpy's default UPLO='L'), and nothing copies it into the upper one.
Besides the Gram and a block, gram holds one strip's product of
GRAM_STRIP x n, never a second n x n array.

Forming W W^T and its eigensolve leave each eigenvalue with an absolute
error of a few eps * lambda_max, so W W^T cannot resolve eigenvalues below
about n * eps * lambda_max: a rank-r layer would get n - r eigenvalues of
roundoff, some of them negative, in place of exact zeros, and a tail
threshold could land on one. compute_esd sets every eigenvalue at or below
roundoff_floor(n) * lambda_max = n * eps * lambda_max to zero, so
rank-deficient layers read as rank-deficient and no eigenvalue is negative.
The same floor bounds what the ESD can resolve: an eigenvalue below it,
however well defined in W, reads as zero.

W W^T squares the range of W, but so does the ESD itself (lambda = sigma^2):
a layer whose W W^T overflows float64 has eigenvalues that overflow too.
gram's one check of a layer's values, that the summed W W^T is finite,
refuses such a layer, and one with a non-finite weight, with a NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .weight_store import Layer


# rows of the Gram matrix that gram adds per product; 256 was slower on a 4096 x 1024 layer
GRAM_STRIP = 128


@dataclass(frozen=True)
class ESD:
    """Ascending eigenvalues of a layer's Gram matrix."""

    eigenvalues: np.ndarray = field(repr=False)
    source_name: str

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if lam.ndim != 1:
            raise ValueError(f"{self.source_name!r}: eigenvalues must be 1-D, got shape {lam.shape}")
        if not np.all(np.isfinite(lam)):  # NaN fails every comparison below, so it is refused here
            raise ValueError(f"{self.source_name!r}: eigenvalues must be finite")
        if np.any(np.diff(lam) < 0):
            raise ValueError(f"{self.source_name!r}: eigenvalues must be ascending")
        if lam.size and lam[0] < 0:
            raise ValueError(f"{self.source_name!r}: eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def _tall(shape: tuple[int, int]) -> bool:
    """Whether a layer of this (rows, cols) shape has more rows than columns, so that its W is their transpose."""
    rows, cols = shape
    return rows > cols


def orient(layer: Layer) -> tuple[int, int]:
    """The (n, m) of a layer's matrix W, in memory or in a snapshot file, n <= m; reads nothing."""
    rows, cols = layer.shape
    return (cols, rows) if _tall(layer.shape) else (rows, cols)


def matrix(values: np.ndarray) -> np.ndarray:
    """W of a layer's values in memory: a view, so writing to it writes the values in their own shape."""
    rows = values.reshape(values.shape[0], -1)
    return rows.T if _tall(rows.shape) else rows


def roundoff_floor(n: int) -> float:
    """n * eps: relative to lambda_max, the eigenvalue size an n x n Gram eigensolve cannot resolve."""
    return n * np.finfo(np.float64).eps


def gram(layer: Layer) -> np.ndarray:
    """The n x n Gram matrix W W^T of a layer in its lower triangle, diagonal included, checked finite once summed.

    Each block of n of its flattened rows gives C, whose rows are columns of W (the block when its rows are W^T,
    its transpose when they are W), and W W^T is the sum of the C^T C. Each C^T C is added to the lower triangle
    GRAM_STRIP rows at a time; what lies above the diagonal is unspecified, as eigvalsh and eigh never read it.
    """
    n = min(layer.shape)
    tall = _tall(layer.shape)
    product = np.zeros((n, n))
    for block in layer.row_blocks(n):
        cols = block if tall else block.T
        with np.errstate(over="ignore", invalid="ignore"):  # checked after the sum
            for j0 in range(0, n, GRAM_STRIP):
                j1 = min(j0 + GRAM_STRIP, n)
                product[j0:j1, :j1] += cols[:, j0:j1].T @ cols[:, :j1]
    # every strip writes its diagonal block, and a non-finite w_ij makes (W W^T)_ii = sum_j w_ij^2 non-finite
    if not np.all(np.isfinite(product)):
        raise NumericalError(f"{layer.name!r}: W has a non-finite entry, or W W^T overflows float64")
    return product


def compute_esd(layer: Layer) -> ESD:
    """Eigenvalues of the Gram matrix W W^T of a layer, ascending as eigvalsh returns them.

    eigvalsh reads only the lower triangle of gram's output (UPLO='L'), the
    one gram fills. Those at or below roundoff_floor(n) * lambda_max, negative
    ones included, are set to zero; the zero matrix gives all zeros.
    """
    lam = np.linalg.eigvalsh(gram(layer))
    lam[lam <= roundoff_floor(lam.size) * lam[-1]] = 0.0
    return ESD(eigenvalues=lam, source_name=layer.name)
