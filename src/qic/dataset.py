"""Labeled dataset container shared by the preprocessing and benchmark code."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


def check_labels(rows, labels) -> np.ndarray:
    """The labels as ints, one per row, each exactly -1 or +1 (1.5 is not truncated)."""
    values = np.asarray(labels)
    if len(values) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(values)} labels")
    if not np.all((values == 1) | (values == -1)):
        raise ValueError("labels must be -1 or +1")
    return values.astype(int, copy=False)


@dataclass
class LabeledDataset:
    """Feature matrix with labels in {-1, +1}."""

    rows: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be a 2-D matrix, got shape {self.rows.shape}")
        self.labels = check_labels(self.rows, self.labels)
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("rows must be finite")

    @property
    def n_samples(self) -> int:
        return len(self.rows)

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def with_rows(self, rows: np.ndarray) -> "LabeledDataset":
        return replace(self, rows=rows)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return replace(self, rows=self.rows[indices], labels=self.labels[indices])
