"""Empirical spectral densities of layer weight matrices.

A layer tensor is first oriented into an n x m matrix with n <= m (conv
tensors flatten to out-channels x in*kh*kw), then the ESD is the set of
eigenvalues of the n x n Gram matrix W W^T, from a symmetric eigensolve.
W W^T is the smaller of the two Gram matrices and has the same nonzero
spectrum as W^T W; one eigensolve of it costs a fraction of a full SVD of W.

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


def roundoff_floor(n: int) -> float:
    """n * eps: relative to lambda_max, the eigenvalue size an n x n Gram eigensolve cannot resolve."""
    return n * np.finfo(np.float64).eps


def gram(mat: OrientedMatrix) -> np.ndarray:
    """The n x n Gram matrix W W^T of an oriented layer, checked finite."""
    w = mat.values
    if not np.all(np.isfinite(w)):
        raise NonFiniteMatrixError(f"{mat.source_name!r}: non-finite entries in weight matrix")
    with np.errstate(over="ignore"):  # checked on the next line
        product = w @ w.T
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
    return ESD(eigenvalues=lam, source_name=mat.source_name, n=mat.n, m=mat.m)
