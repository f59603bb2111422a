"""Classical preprocessing: per-feature standardization, unit-norm rows,
power-of-two padding, and the tensor-copy feature map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LabeledDataset
from .errors import DegenerateFeatureError, NormalizationError, ZeroVectorError

_STD_FLOOR = 1e-12


@dataclass
class PreprocessingReport:
    """Fitted parameters, kept so held-out points get the training transform."""

    means: np.ndarray | None = None
    stds: np.ndarray | None = None
    normalized: bool = False
    padding: tuple[int, int] | None = None  # (original_dim, padded_dim)
    feature_map_copies: int = 1


def standardize(dataset: LabeledDataset) -> tuple[LabeledDataset, PreprocessingReport]:
    """Rescale every feature column to zero mean and unit population variance."""
    if dataset.n_samples < 2:
        raise ValueError("standardize needs at least 2 samples")
    means = dataset.rows.mean(axis=0)
    stds = dataset.rows.std(axis=0)
    bad = np.flatnonzero(stds <= _STD_FLOOR)
    if bad.size:
        raise DegenerateFeatureError(
            f"feature column(s) {bad.tolist()} have zero variance"
        )
    report = PreprocessingReport(means=means, stds=stds)
    return standardize_apply(dataset, report), report


def standardize_apply(
    dataset: LabeledDataset, report: PreprocessingReport
) -> LabeledDataset:
    """Apply previously fitted standardization parameters."""
    rows = (dataset.rows - report.means) / report.stds
    return dataset.with_rows(rows, standardized=True)


def normalize(v: np.ndarray) -> np.ndarray:
    """Rescale a vector to unit Euclidean length."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n <= 1e-12:
        raise ZeroVectorError("cannot normalize a (near-)zero vector")
    return v / n


def normalize_rows(dataset: LabeledDataset) -> LabeledDataset:
    norms = np.linalg.norm(dataset.rows, axis=1, keepdims=True)
    if np.any(norms <= 1e-12):
        bad = np.flatnonzero(norms.ravel() <= 1e-12)
        raise ZeroVectorError(f"row(s) {bad.tolist()} have zero norm")
    return dataset.with_rows(dataset.rows / norms, normalized=True)


def pad_to_power_of_two(v: np.ndarray) -> np.ndarray:
    """Append zeros until the dimension is the next power of two."""
    v = np.asarray(v, dtype=float)
    n = len(v)
    if n < 1:
        raise ValueError("empty vector")
    target = 1 << max(0, (n - 1).bit_length())
    if target == n:
        return v
    return np.concatenate([v, np.zeros(target - n)])


def kron_power(v: np.ndarray, copies: int) -> np.ndarray:
    """k-fold Kronecker power; entry (i1..ik) is the product v[i1]*...*v[ik].

    A matrix is mapped row by row, in one broadcast over all rows.
    """
    if copies < 1:
        raise ValueError(f"copies must be >= 1, got {copies}")
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    out = rows
    for _ in range(copies - 1):
        out = (out[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return out if v.ndim > 1 else out[0]


def tensor_copy_map(v: np.ndarray, copies: int) -> np.ndarray:
    """Kronecker power of a unit vector: the amplitude vector of k state copies.

    Inner products transform as <phi(u), phi(v)> = <u, v>**k.
    """
    v = np.asarray(v, dtype=float)
    if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:
        raise NormalizationError(
            f"tensor_copy_map expects a unit vector, got norm {np.linalg.norm(v):.6f}"
        )
    return kron_power(v, copies)


@dataclass
class PipelineOptions:
    feature_map_copies: int = 1
    standardize: bool = True
    normalize: bool = True


class Pipeline:
    """Feature-map -> standardize -> normalize, with parameters fitted on the
    training split and reused for held-out data.

    The tensor power is taken of the raw feature rows (the map has to see the
    raw scale: row-normalizing first would erase radial structure), so the
    mapped columns are plain monomials; the subsequent standardize/normalize
    stages produce the unit-norm encodable vectors.
    """

    def __init__(self, options: PipelineOptions | None = None):
        self.options = options or PipelineOptions()
        self.report: PreprocessingReport | None = None

    def fit_transform(self, dataset: LabeledDataset) -> LabeledDataset:
        opts = self.options
        mapped = self._map(dataset)
        report = PreprocessingReport(feature_map_copies=opts.feature_map_copies)
        if opts.standardize:
            mapped, std_report = standardize(mapped)
            report.means, report.stds = std_report.means, std_report.stds
        if opts.normalize:
            mapped = normalize_rows(mapped)
            report.normalized = True
        self.report = report
        return mapped

    def transform(self, dataset: LabeledDataset) -> LabeledDataset:
        if self.report is None:
            raise RuntimeError("pipeline is not fitted; call fit_transform first")
        mapped = self._map(dataset)
        if self.report.means is not None:
            mapped = standardize_apply(mapped, self.report)
        if self.report.normalized:
            mapped = normalize_rows(mapped)
        return mapped

    def _map(self, dataset: LabeledDataset) -> LabeledDataset:
        k = self.options.feature_map_copies
        if k < 1:
            raise ValueError(f"feature_map_copies must be >= 1, got {k}")
        if k == 1:
            return dataset
        return dataset.with_rows(kron_power(dataset.rows, k), feature_map_copies=k)


def pipeline(dataset: LabeledDataset, options: PipelineOptions | None = None) -> LabeledDataset:
    """One-shot preprocessing of a dataset, fitted on itself."""
    return Pipeline(options).fit_transform(dataset)
