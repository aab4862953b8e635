"""Empirical spectral densities of layer weight matrices.

A layer tensor is first oriented into an n x m matrix with n <= m (conv
tensors flatten to out-channels x in*kh*kw), then the eigenvalues of its
Gram matrix are computed as squared singular values of the oriented matrix.
The squared-singular-value route avoids forming the m x m correlation
matrix when m >> n and is better conditioned than an explicit
eigendecomposition of W^T W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .weight_store import LayerTensor


class NonFiniteMatrixError(NumericalError):
    """Weight matrix contains NaN or infinity."""


@dataclass(frozen=True)
class OrientedMatrix:
    """A 2-D weight matrix with rows <= cols; records whether a transpose occurred."""

    values: np.ndarray = field(repr=False)
    source_name: str
    transposed: bool

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValueError(f"{self.source_name!r}: oriented matrix must be 2-D, got {vals.ndim}-D")
        if vals.shape[0] > vals.shape[1]:
            raise ValueError(f"{self.source_name!r}: oriented matrix needs rows <= cols, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ESD:
    """Ascending eigenvalues of a layer's Gram matrix."""

    eigenvalues: np.ndarray = field(repr=False)
    source_name: str
    n: int
    m: int

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        if lam.ndim != 1 or lam.size != self.n:
            raise ValueError(f"{self.source_name!r}: expected {self.n} eigenvalues, got shape {lam.shape}")
        if np.any(np.diff(lam) < 0):
            raise ValueError(f"{self.source_name!r}: eigenvalues must be ascending")
        if lam.size and lam[0] < 0:
            raise ValueError(f"{self.source_name!r}: eigenvalues must be nonnegative")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def orient_array(values: np.ndarray, name: str) -> OrientedMatrix:
    """Orient a raw 2-D or 4-D weight array into an n x m matrix, n <= m."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 4:
        out = arr.shape[0]
        arr = arr.reshape(out, -1)
    elif arr.ndim != 2:
        raise ValueError(f"{name!r}: weight tensor must be 2-D or 4-D, got {arr.ndim}-D")
    if 0 in arr.shape:
        raise ValueError(f"{name!r}: zero-sized dimension in {arr.shape}")
    transposed = arr.shape[0] > arr.shape[1]
    if transposed:
        arr = arr.T
    return OrientedMatrix(values=arr, source_name=name, transposed=transposed)


def orient(layer: LayerTensor) -> OrientedMatrix:
    """Orient a layer tensor; conv tensors flatten to (out, in*kh*kw) first."""
    return orient_array(layer.as_array(), layer.name)


def compute_esd(mat: OrientedMatrix) -> ESD:
    """Eigenvalues of the Gram matrix of an oriented layer, sorted ascending.

    Computed as squared singular values of the matrix, so none is negative;
    numpy returns the singular values descending, and reversing them gives
    the ascending order.
    """
    if not np.all(np.isfinite(mat.values)):
        raise NonFiniteMatrixError(f"{mat.source_name!r}: non-finite entries in weight matrix")
    sv = np.linalg.svd(mat.values, compute_uv=False)
    lam = (sv * sv)[::-1]
    return ESD(eigenvalues=lam, source_name=mat.source_name, n=mat.n, m=mat.m)
