"""Labeled dataset container shared by the preprocessing and benchmark code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_row_count(rows: np.ndarray, labels: np.ndarray) -> None:
    if labels.shape != rows.shape[:-1]:
        dims = ["x".join(map(str, shape)) for shape in (rows.shape[:-1], labels.shape)]
        raise ValueError(f"{dims[0]} rows but {dims[1]} labels")


def _finite_matrix(rows) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim < 2:
        raise ValueError(f"rows must be a matrix, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("rows must be finite")
    return rows


def check_labels(rows: np.ndarray, labels) -> np.ndarray:
    """The labels as ints, one per row (of each matrix in a batch), each
    exactly -1 or +1 (1.5 is not truncated)."""
    values = np.asarray(labels)
    _check_row_count(rows, values)
    if not np.all((values == 1) | (values == -1)):
        raise ValueError("labels must be -1 or +1")
    return values.astype(int, copy=False)


@dataclass
class LabeledDataset:
    """Feature matrix with labels in {-1, +1}, or a batch of them stacked
    along leading axes (rows (..., n, d), labels (..., n)).

    The datasets of a batch (rows (G, n, d)) are told apart by their
    position along the first axis: pick selects by it, and run_benchmark
    reports in its order.

    Construction checks rows and labels; subset, pick and with_rows derive
    from a checked dataset and check only what they bring in."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.rows = _finite_matrix(self.rows)
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

    def with_rows(self, rows: np.ndarray) -> "LabeledDataset":
        """The same labels on new rows, which must be finite, one per label."""
        rows = _finite_matrix(rows)
        _check_row_count(rows, self.labels)
        return self._derived(rows, self.labels)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """Rows at indices, the same ones from every matrix of a batch; an
        (R, k) index array gives a batch of R subsets of each matrix, so rows
        (n, d) give (R, k, d) and rows (G, n, d) give (G, R, k, d)."""
        return self._derived(
            np.take(self.rows, indices, axis=-2), np.take(self.labels, indices, axis=-1)
        )

    def pick(self, which: list[int]) -> "LabeledDataset":
        """The datasets at positions which along the first axis of a batch,
        in that order."""
        return self._derived(self.rows[which], self.labels[which])
