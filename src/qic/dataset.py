"""Labeled dataset container shared by the preprocessing and benchmark code."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass
class LabeledDataset:
    """Feature matrix with labels in {-1, +1}."""

    rows: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be a 2-D matrix, got shape {self.rows.shape}")
        if len(self.rows) != len(self.labels):
            raise ValueError(
                f"{len(self.rows)} rows but {len(self.labels)} labels"
            )
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
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
