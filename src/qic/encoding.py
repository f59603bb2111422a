"""Classical preprocessing: unit-norm vectors, the tensor-copy feature map, and
the fit-on-train pipeline that turns raw rows into encodable amplitudes."""

from __future__ import annotations

import numpy as np

from .dataset import LabeledDataset
from .errors import DegenerateFeatureError, ZeroVectorError, check_count

# a norm or column spread at or below this is rounding noise of float64 data,
# so there is no direction to keep and no scale to divide by
_FLOOR = 1e-12


def normalize(v: np.ndarray) -> np.ndarray:
    """Rescale a vector, or each row of a matrix or batch of matrices, to unit
    Euclidean length; a rejected row is named by its flat row index.
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

    A matrix, or a batch of matrices, is mapped row by row along the last
    axis, in one broadcast over all rows. For unit vectors, inner products
    become powers: <v^k, u^k> = <v, u>^k.
    """
    check_count(copies, "copies", 1)
    v = np.asarray(v, dtype=float)
    out = v
    for _ in range(copies - 1):
        out = (out[..., :, None] * v[..., None, :]).reshape(*v.shape[:-1], -1)
    return out


class Pipeline:
    """Standardize -> normalize, with the column statistics fitted on the
    training split and reused for held-out data.

    A feature map belongs before it: the tensor power has to see the raw
    scale (row-normalizing first would erase radial structure), so the
    mapped columns are plain monomials, and standardizing and normalizing
    them gives the unit-norm encodable vectors.

    A batch of datasets (rows (R, n, d)) is fitted split by split in one
    pass: means and stds get shape (R, d), and transform takes the matching
    batch of held-out rows (R, m, d) and rejects any other batch shape.
    """

    means: np.ndarray | None = None
    stds: np.ndarray | None = None

    def fit_transform(self, dataset: LabeledDataset) -> LabeledDataset:
        rows = dataset.rows
        if rows.shape[-2] < 2:
            raise ValueError("standardization needs at least 2 samples")
        means = rows.mean(axis=-2)
        centered = rows - means[..., None, :]
        stds = np.sqrt((centered * centered).mean(axis=-2))  # bit for bit rows.std
        bad = np.flatnonzero((stds <= _FLOOR).reshape(-1, stds.shape[-1]).any(axis=0))
        if bad.size:
            raise DegenerateFeatureError(
                f"feature column(s) {bad.tolist()} have zero variance"
            )
        out = dataset.with_rows(normalize(centered / stds[..., None, :]))
        self.means, self.stds = means, stds
        return out

    def transform(self, dataset: LabeledDataset) -> LabeledDataset:
        if self.means is None:
            raise RuntimeError("pipeline is not fitted; call fit_transform first")
        width, batch = self.means.shape[-1], self.means.shape[:-1]
        if dataset.n_features != width:
            raise ValueError(f"pipeline was fitted on {width} features, got {dataset.n_features}")
        if dataset.rows.shape[:-2] != batch:
            raise ValueError(
                f"pipeline was fitted on a batch of shape {batch}, got {dataset.rows.shape[:-2]}"
            )
        return dataset.with_rows(
            normalize((dataset.rows - self.means[..., None, :]) / self.stds[..., None, :])
        )
