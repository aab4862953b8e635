"""Empirical spectral densities of layer weight matrices.

Every weight array enters as a LayerTensor, the one entry that checks it.
orient then makes it an n x m matrix with n <= m (conv tensors flatten to
out-channels x in*kh*kw), and the ESD is the set of eigenvalues of the
n x n Gram matrix W W^T, from a symmetric eigensolve.
W W^T is the smaller of the two Gram matrices and has the same nonzero
spectrum as W^T W; one eigensolve of it costs a fraction of a full SVD of W.

gram sums W W^T over blocks of the layer's stored rows. An array in memory
is one block. A tall layer of a snapshot file (transposed by orient, so its
stored rows are the columns of W) is read n rows at a time, a block as
large as the n x n Gram, and never held whole; its sum runs in another
order than the one-block product, so its eigenvalues may differ in the last
bits from those of the same layer in memory.

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
a layer whose W W^T overflows float64 has eigenvalues that overflow too,
and compute_esd raises a NumericalError naming that.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .weight_store import LayerTensor, StoredLayer


class NonFiniteMatrixError(NumericalError):
    """Weight matrix contains NaN or infinity."""


@dataclass(frozen=True)
class OrientedMatrix:
    """A layer's 2-D weight matrix W with rows <= cols, built by orient; records whether a transpose occurred.

    rows holds the layer's flattened rows as they are stored, W or, when
    transposed, W^T: an array, or the StoredLayer of a tall layer of a
    snapshot file, which gram reads a block at a time.
    """

    rows: np.ndarray | StoredLayer = field(repr=False)
    source_name: str
    transposed: bool

    @property
    def n(self) -> int:
        return self.rows.shape[1 if self.transposed else 0]

    @property
    def m(self) -> int:
        return self.rows.shape[0 if self.transposed else 1]

    @property
    def values(self) -> np.ndarray:
        """W as one array; a stored layer is read whole for it, which gram never does."""
        rows = self.rows
        if isinstance(rows, StoredLayer):
            rows = rows.values.reshape(rows.shape)
        return rows.T if self.transposed else rows

    def row_blocks(self) -> Iterable[np.ndarray]:
        """The stored rows in blocks: an array is one; a stored layer gives n rows a block, as many values as its Gram."""
        if isinstance(self.rows, StoredLayer):
            return self.rows.row_blocks(self.n)
        return (self.rows,)


@dataclass(frozen=True)
class ESD:
    """Ascending eigenvalues of a layer's Gram matrix."""

    eigenvalues: np.ndarray = field(repr=False)
    source_name: str

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if lam.ndim != 1:
            raise ValueError(f"{self.source_name!r}: eigenvalues must be 1-D, got shape {lam.shape}")
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


def orient(layer: LayerTensor | StoredLayer) -> OrientedMatrix:
    """Orient a layer tensor, which LayerTensor has already checked, into an n x m view with n <= m.

    A conv (out, in, kh, kw) tensor flattens to (out, in*kh*kw) first; a
    layer with more rows than columns is transposed. A tall stored layer
    stays in its file, for gram to read in blocks of rows; any other stored
    layer is read whole, since each entry of W W^T needs two whole rows.
    """
    if isinstance(layer, StoredLayer) and layer.shape[0] > layer.shape[1]:
        return OrientedMatrix(rows=layer, source_name=layer.name, transposed=True)
    values = layer.values  # read once: a stored layer reads its file at each access
    flat = values.reshape(values.shape[0], -1)  # a view: LayerTensor's values are C-contiguous
    return OrientedMatrix(rows=flat, source_name=layer.name, transposed=flat.shape[0] > flat.shape[1])


def roundoff_floor(n: int) -> float:
    """n * eps: relative to lambda_max, the eigenvalue size an n x n Gram eigensolve cannot resolve."""
    return n * np.finfo(np.float64).eps


def gram(mat: OrientedMatrix) -> np.ndarray:
    """The n x n Gram matrix W W^T of an oriented layer, checked finite.

    Summed over the blocks B of its stored rows: B B^T when they are W
    (one block), B^T B when they are W^T.
    """
    product = None
    for block in mat.row_blocks():
        if not np.all(np.isfinite(block)):
            raise NonFiniteMatrixError(f"{mat.source_name!r}: non-finite entries in weight matrix")
        with np.errstate(over="ignore", invalid="ignore"):  # checked after the sum
            part = block.T @ block if mat.transposed else block @ block.T
            product = part if product is None else np.add(product, part, out=product)
        del part  # before the next block's product: a Gram, a block and one product at most
    if not np.all(np.isfinite(product)):
        raise NumericalError(f"{mat.source_name!r}: W W^T overflows float64, so its eigenvalues would too")
    return product


def compute_esd(mat: OrientedMatrix) -> ESD:
    """Eigenvalues of the Gram matrix W W^T of an oriented layer, ascending as eigvalsh returns them.

    Those at or below roundoff_floor(n) * lambda_max, negative ones included,
    are set to zero; the zero matrix gives all zeros.
    """
    lam = np.linalg.eigvalsh(gram(mat))
    lam[lam <= roundoff_floor(mat.n) * lam[-1]] = 0.0
    return ESD(eigenvalues=lam, source_name=mat.source_name)
