"""Labeled dataset container shared by the preprocessing and benchmark code."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


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
    along leading axes (rows (..., n, d), labels (..., n))."""

    rows: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim < 2:
            raise ValueError(f"rows must be a matrix, got shape {self.rows.shape}")
        self.labels = check_labels(self.rows, self.labels)
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("rows must be finite")

    @property
    def n_samples(self) -> int:
        return self.rows.shape[-2]

    @property
    def n_features(self) -> int:
        return self.rows.shape[-1]

    def with_rows(self, rows: np.ndarray) -> "LabeledDataset":
        return replace(self, rows=rows)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """Rows of a single dataset at indices; an (R, k) index array gives a
        batch of R subsets."""
        if self.rows.ndim != 2:
            raise ValueError("subset takes rows of one dataset, not of a batch")
        return replace(self, rows=self.rows[indices], labels=self.labels[indices])
