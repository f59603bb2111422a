"""Bundled datasets, train/test splitting, and the Monte-Carlo benchmark
harness that drives the classifier over many random separations."""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .classifier import TrainingSet, read_batch
from .dataset import LabeledDataset
from .encoding import Pipeline

IRIS_SHA256 = "c8a2fdaf394fc79fd145487203d7d69163f0e6d0053ea46afe97fa3542d12822"

@functools.cache
def _load_iris_csv() -> tuple[np.ndarray, np.ndarray]:
    text = resources.files("qic").joinpath("iris.csv").read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != IRIS_SHA256:
        raise RuntimeError(
            f"iris.csv checksum mismatch: expected {IRIS_SHA256}, got {digest}"
        )
    body = text.strip().splitlines()[1:]
    values = np.array([[float(v) for v in line.split(",")] for line in body])
    targets = values[:, 4].astype(int)
    # shared by every later call, so a stray write must fail, not spread
    values.flags.writeable = targets.flags.writeable = False
    return values[:, :4], targets


def iris(
    classes: tuple[int, int] = (1, 2),
    features: tuple[int, ...] = (0, 1, 2, 3),
) -> LabeledDataset:
    """Two iris species as a labeled dataset; first listed class maps to -1.

    Rows keep the canonical per-class ordering, so for classes (1, 2) the
    row index equals the index into the full 150-sample table.
    """
    first, second = classes
    if first == second:
        raise ValueError("classes must be two distinct species")
    if not {first, second} <= {1, 2, 3}:
        raise ValueError(f"classes must come from {{1, 2, 3}}, got {classes}")
    if not set(features) <= {0, 1, 2, 3}:
        raise ValueError(f"features must come from {{0, 1, 2, 3}}, got {features}")
    data, targets = _load_iris_csv()
    feats = list(features)
    # C-ordered for the split and pipeline; the column selections are Fortran-ordered
    rows = np.ascontiguousarray(
        np.vstack([data[targets == first][:, feats], data[targets == second][:, feats]])
    )
    labels = np.concatenate(
        [np.full(np.sum(targets == first), -1), np.full(np.sum(targets == second), +1)]
    )
    return LabeledDataset(
        rows=rows,
        labels=labels,
        name=f"iris {first}&{second}",
    )


def circles(
    n_per_class: int = 50,
    radius_ratio: float = 0.5,
    noise_std: float = 0.05,
    seed: int = 0,
) -> LabeledDataset:
    """Two concentric circles: outer radius 1 (class -1), inner radius
    radius_ratio (class +1), uniform in angle with Gaussian jitter."""
    if n_per_class < 2:
        raise ValueError(f"n_per_class must be >= 2, got {n_per_class}")
    if not 0 < radius_ratio < 1:
        raise ValueError(f"radius_ratio must be in (0, 1), got {radius_ratio}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, 2 * n_per_class)
    radii = np.concatenate(
        [np.ones(n_per_class), np.full(n_per_class, radius_ratio)]
    )
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    if noise_std > 0:
        pts = pts + rng.normal(0.0, noise_std, pts.shape)
    labels = np.concatenate([np.full(n_per_class, -1), np.full(n_per_class, +1)])
    return LabeledDataset(rows=pts, labels=labels, name="circles")


def split(
    dataset: LabeledDataset, train_fraction: float, seed
) -> tuple[LabeledDataset, LabeledDataset]:
    """Seeded shuffle split; train gets floor(fraction*n) rows, test the rest.

    seed is one seed (an int or a SeedSequence) for one split, or a list of
    seeds for a batch of splits, stacked along a leading axis; each split of
    a batch is the one its seed gives alone.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = dataset.n_samples
    n_train = int(train_fraction * n)
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"fraction {train_fraction} leaves an empty split for {n} rows"
        )
    if isinstance(seed, list):
        perm = np.stack([np.random.default_rng(s).permutation(n) for s in seed])
    else:
        perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[..., :n_train]), dataset.subset(perm[..., n_train:])


# every benchmark split keeps floor(0.8 * n) rows for training
TRAIN_FRACTION = 0.8
# repetitions per vectorized pass of run_benchmark. The readout temporary is
# CHUNK x features x n_test x n_train floats: 5 MB for the 16-feature rows.
# On a 2-vCPU VM, Table 2 at 1000 reps takes the same time in chunks of 25
# as of 100, and 100 adds 22 MB to the peak RSS.
CHUNK = 25


@dataclass
class BenchmarkReport:
    dataset: str
    repetitions: int
    mean_error: float
    error_variance: float
    mean_p_acc: float
    impossible_branch_count: int = 0


def run_benchmark(
    dataset: LabeledDataset,
    repetitions: int,
    copies: int = 1,
    master_seed: int = 1234,
) -> BenchmarkReport:
    """Repeatedly split, preprocess (fitted on the training part only), and
    classify every test point with the exact interference readout.

    Repetition r splits with SeedSequence((master_seed, r)). Up to CHUNK
    repetitions go through split, Pipeline and classifier.read_batch as one
    batch of splits. Test points whose acceptance probability vanishes are
    counted as misclassified and tallied separately.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")

    errors: list[float] = []
    p_accs: list[float] = []
    impossible = 0
    for start in range(0, repetitions, CHUNK):
        reps = range(start, min(start + CHUNK, repetitions))
        seeds = [np.random.SeedSequence((master_seed, rep)) for rep in reps]
        train_raw, test_raw = split(dataset, TRAIN_FRACTION, seeds)
        pipe = Pipeline(copies)
        train = pipe.fit_transform(train_raw)
        test = pipe.transform(test_raw)
        training = TrainingSet(vectors=train.rows, labels=train.labels)

        p_acc, p_minus = read_batch(training, test.rows)  # (reps, test points)
        accepted = p_acc > 0.0
        n_accepted = accepted.sum(axis=1)
        impossible += int(accepted.size - n_accepted.sum())
        predicted = np.where(p_minus > 0.5, -1, +1)
        wrong = np.count_nonzero(~accepted | (predicted != test.labels), axis=1)
        errors.extend((wrong / test.n_samples).tolist())
        # rejected points hold p_acc = 0, which leaves the exact fsum unchanged
        p_accs.extend(
            math.fsum(row) / n for row, n in zip(p_acc.tolist(), n_accepted.tolist()) if n
        )

    mean_error = math.fsum(errors) / len(errors)
    variance = math.fsum((e - mean_error) ** 2 for e in errors) / len(errors)
    mean_p_acc = math.fsum(p_accs) / len(p_accs) if p_accs else 0.0
    return BenchmarkReport(
        dataset=dataset.name,
        repetitions=repetitions,
        mean_error=mean_error,
        error_variance=variance,
        mean_p_acc=mean_p_acc,
        impossible_branch_count=impossible,
    )


@dataclass(frozen=True)
class BenchmarkRowSpec:
    """One canonical benchmark row with its reference value and pass rule."""

    key: str
    copies: int
    expected_error: float
    tolerance: float
    check_p_acc: bool

    def passes(self, report: BenchmarkReport) -> bool:
        ok = abs(report.mean_error - self.expected_error) <= self.tolerance
        if self.check_p_acc:
            ok = ok and abs(report.mean_p_acc - 0.50) <= 0.05
        return ok


# reference errors with their acceptance windows; the plain circles row has no
# sharp reference value (the overlap after normalization collapses both rings
# onto the unit circle), so its window is wide and only ">= 0.40" is meaningful.
# The iris-2-3-featmap reference (0.00) cannot be reached by this rule: six
# samples are misclassified in every split that holds them out, a floor of
# about 0.058 at seed 1234. The row keeps reporting pass=false against it;
# tests/test_acceptance.py checks the reachable 0.09 and the floor instead.
TABLE2_ROWS: tuple[BenchmarkRowSpec, ...] = (
    BenchmarkRowSpec("iris-1-2", 1, 0.00, 0.01, True),
    BenchmarkRowSpec("iris-1-3", 1, 0.00, 0.01, True),
    BenchmarkRowSpec("iris-2-3", 1, 0.07, 0.04, True),
    BenchmarkRowSpec("iris-2-3-featmap", 2, 0.00, 0.01, True),
    BenchmarkRowSpec("circles", 1, 0.62, 0.22, False),
    BenchmarkRowSpec("circles-featmap", 2, 0.00, 0.02, False),
)


@functools.cache
def _shared_benchmark_dataset(key: str) -> LabeledDataset:
    if key not in {spec.key for spec in TABLE2_ROWS}:
        raise ValueError(f"unknown benchmark row {key!r}")
    if key.startswith("iris"):
        parts = key.split("-")
        ds = iris(classes=(int(parts[1]), int(parts[2])))
    else:
        ds = circles()
    ds.rows.flags.writeable = ds.labels.flags.writeable = False
    return ds


def benchmark_dataset(key: str) -> LabeledDataset:
    """Materialize the fixed dataset behind a canonical benchmark row key.

    The circles instance is generated with the generator defaults (seed 0) so
    that, like iris, the benchmark rows always refer to one fixed dataset;
    the master seed randomizes only the train/test separations.

    Each dataset is built once per process and its arrays are read-only.
    Every call returns its own LabeledDataset over them, so neither a write
    nor a rebound attribute reaches a later caller; split copies the rows it
    selects, so its outputs are writable.
    """
    return copy.copy(_shared_benchmark_dataset(key))


def run_table2(
    repetitions: int = 1000, master_seed: int = 1234
) -> list[tuple[BenchmarkRowSpec, BenchmarkReport]]:
    """Run all canonical benchmark rows and pair each with its reference spec."""
    results = []
    for spec in TABLE2_ROWS:
        ds = benchmark_dataset(spec.key)
        results.append((spec, run_benchmark(ds, repetitions, spec.copies, master_seed)))
    return results
