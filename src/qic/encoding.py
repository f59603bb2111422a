"""Classical preprocessing: unit-norm vectors, the tensor-copy feature map, and
the fit-on-train pipeline that turns raw rows into encodable amplitudes."""

from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .errors import DegenerateFeatureError, ZeroVectorError

# a norm or column spread at or below this is rounding noise of float64 data,
# so there is no direction to keep and no scale to divide by
_FLOOR = 1e-12


def normalize(v: np.ndarray) -> np.ndarray:
    """Rescale a vector, or each row of a matrix, to unit Euclidean length.
    A NaN or infinite entry, or a norm that overflows, raises ValueError."""
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        norms = np.linalg.norm(v, axis=-1, keepdims=True)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise ValueError(f"cannot normalize vector(s) {bad.tolist()} with non-finite norm")
    bad = np.flatnonzero(norms <= _FLOOR)
    if bad.size:
        raise ZeroVectorError(f"cannot normalize (near-)zero vector(s) {bad.tolist()}")
    return v / norms


def kron_power(v: np.ndarray, copies: int) -> np.ndarray:
    """k-fold Kronecker power; entry (i1..ik) is the product v[i1]*...*v[ik].

    A matrix is mapped row by row, in one broadcast over all rows. For unit
    vectors, inner products become powers: <v^k, u^k> = <v, u>^k.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    out = rows
    for _ in range(copies - 1):
        out = (out[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return out if v.ndim > 1 else out[0]


class Pipeline:
    """Feature map -> standardize -> normalize, with the column statistics
    fitted on the training split and reused for held-out data.

    The tensor power is taken of the raw feature rows (the map has to see the
    raw scale: row-normalizing first would erase radial structure), so the
    mapped columns are plain monomials; standardizing and normalizing them
    gives the unit-norm encodable vectors.
    """

    def __init__(self, copies: int = 1):
        self.copies = copies
        self.means: np.ndarray | None = None
        self.stds: np.ndarray | None = None

    def fit_transform(self, dataset: LabeledDataset) -> LabeledDataset:
        rows = kron_power(dataset.rows, self.copies)
        if len(rows) < 2:
            raise ValueError("standardization needs at least 2 samples")
        means = rows.mean(axis=0)
        stds = rows.std(axis=0)
        bad = np.flatnonzero(stds <= _FLOOR)
        if bad.size:
            raise DegenerateFeatureError(
                f"feature column(s) {bad.tolist()} have zero variance"
            )
        out = dataset.with_rows(normalize((rows - means) / stds))
        self.means, self.stds = means, stds
        return out

    def transform(self, dataset: LabeledDataset) -> LabeledDataset:
        if self.means is None:
            raise RuntimeError("pipeline is not fitted; call fit_transform first")
        rows = kron_power(dataset.rows, self.copies)
        return dataset.with_rows(normalize((rows - self.means) / self.stds))
