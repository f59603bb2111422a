"""Classical preprocessing: labeled datasets, unit-norm vectors, the
tensor-copy feature map, and the fit-on-train pipeline that turns raw rows
into encodable amplitudes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFeatureError, ZeroVectorError, check_count

# a norm or column spread at or below this is rounding noise of float64 data,
# so there is no direction to keep and no scale to divide by
_FLOOR = 1e-12


def check_labels(rows: np.ndarray, labels) -> np.ndarray:
    """The labels as ints, one per row (of each matrix in a batch), each
    exactly -1 or +1 (1.5 is not truncated)."""
    values = np.asarray(labels)
    if values.shape != rows.shape[:-1]:
        dims = ["x".join(map(str, shape)) for shape in (rows.shape[:-1], values.shape)]
        raise ValueError(f"{dims[0]} rows but {dims[1]} labels")
    if not np.all((values == 1) | (values == -1)):
        raise ValueError("labels must be -1 or +1")
    return values.astype(int, copy=False)


@dataclass
class LabeledDataset:
    """Feature matrix with labels in {-1, +1}, or a batch of them stacked
    along leading axes (rows (..., n, d), labels (..., n)).

    The datasets of a batch (rows (G, n, d)) are told apart by their
    position along the first axis: run_benchmark reports in its order.

    Construction checks rows and labels. subset and Pipeline's outputs are
    derived from a checked dataset without checking again: a subset takes
    checked rows and labels, and normalize leaves every row finite and the
    shape as it was."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim < 2:
            raise ValueError(f"rows must be a matrix, got shape {self.rows.shape}")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("rows must be finite")
        self.labels = check_labels(self.rows, self.labels)

    @property
    def n_samples(self) -> int:
        return self.rows.shape[-2]

    @property
    def n_features(self) -> int:
        return self.rows.shape[-1]

    def _derived(self, rows: np.ndarray, labels: np.ndarray) -> "LabeledDataset":
        # built without __init__, so __post_init__ does not check again what
        # the caller has checked
        out = object.__new__(LabeledDataset)
        out.rows, out.labels = rows, labels
        return out

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """Rows at indices, the same ones from every matrix of a batch; an
        (R, k) index array gives a batch of R subsets of each matrix, so rows
        (n, d) give (R, k, d) and rows (G, n, d) give (G, R, k, d)."""
        return self._derived(
            np.take(self.rows, indices, axis=-2), np.take(self.labels, indices, axis=-1)
        )


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
        out = dataset._derived(normalize(centered / stds[..., None, :]), dataset.labels)
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
        rows = normalize((dataset.rows - self.means[..., None, :]) / self.stds[..., None, :])
        return dataset._derived(rows, dataset.labels)
