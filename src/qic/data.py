"""Bundled datasets, train/test splitting, and the Monte-Carlo benchmark
harness that drives the classifier over many random separations."""

from __future__ import annotations

import functools
import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .classifier import TrainingSet, read_batch
from .encoding import LabeledDataset, Pipeline, kron_power
from .errors import check_count

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


def iris(classes: tuple[int, int] = (1, 2)) -> LabeledDataset:
    """Two iris species, all four features, as a labeled dataset; first
    listed class maps to -1.

    Rows keep the canonical per-class ordering, so for classes (1, 2) the
    row index equals the index into the full 150-sample table.
    """
    first, second = classes
    if first == second:
        raise ValueError("classes must be two distinct species")
    if not {first, second} <= {1, 2, 3}:
        raise ValueError(f"classes must come from {{1, 2, 3}}, got {classes}")
    data, targets = _load_iris_csv()
    rows = np.vstack([data[targets == first], data[targets == second]])
    labels = np.concatenate(
        [np.full(np.sum(targets == first), -1), np.full(np.sum(targets == second), +1)]
    )
    return LabeledDataset(rows, labels)


def circles() -> LabeledDataset:
    """Table 2's two concentric circles: 50 points each at radius 1 (class
    -1) and radius 0.5 (class +1), uniform in angle, with Gaussian jitter of
    standard deviation 0.05, drawn from seed 0."""
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, 2.0 * math.pi, 100)
    radii = np.concatenate([np.ones(50), np.full(50, 0.5)])
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts = pts + rng.normal(0.0, 0.05, pts.shape)
    labels = np.concatenate([np.full(50, -1), np.full(50, +1)])
    return LabeledDataset(rows=pts, labels=labels)


# every benchmark split keeps floor(0.8 * n) rows for training
TRAIN_FRACTION = 0.8


def split(
    batches: Sequence[LabeledDataset], seeds: Sequence
) -> list[tuple[LabeledDataset, LabeledDataset]]:
    """Seeded shuffle splits of each batch of datasets (rows (G, n, d)), one
    per seed (an int or a SeedSequence; at least one), stacked along a new
    axis before the rows: (G, R, k, d). One (train, test) pair per batch, in
    order.

    Split r permutes the rows with default_rng(seeds[r]); its train side
    keeps the first floor(TRAIN_FRACTION * n) of them and its test side the
    rest. Each permutation is drawn once for all the batches, which must have
    the same n, so every matrix loses the same rows.
    """
    batches = tuple(batches)
    sizes = {ds.n_samples for ds in batches}  # empty, or more than one n, is rejected
    if len(sizes) != 1 or any(ds.rows.ndim != 3 for ds in batches) or not len(seeds):
        shapes = ", ".join(str(ds.rows.shape) for ds in batches)
        raise ValueError(f"split takes batches (G, n, d) of one n, got rows [{shapes}], "
                         f"and at least one seed, got {len(seeds)}")
    (n,) = sizes
    n_train = int(TRAIN_FRACTION * n)
    if n_train == 0:  # floor(0.8 * n) < n for every n >= 1, so only train empties
        raise ValueError(f"{n} rows leave an empty train side")
    perm = np.stack([np.random.default_rng(s).permutation(n) for s in seeds])
    train, test = perm[:, :n_train], perm[:, n_train:]
    return [(ds.subset(train), ds.subset(test)) for ds in batches]


# repetitions per vectorized pass of run_benchmark. tracemalloc puts the peak
# of one whole chunk of Table 2 at 2.0 MiB for 25 and 7.7 MiB for 100. On a
# 2-vCPU VM, Table 2 at 1000 reps takes the same time (0.21 s in-process) in
# chunks of 25 as of 100, and 100 adds 7 MB to the peak RSS.
CHUNK = 25


@dataclass
class BenchmarkReport:
    mean_error: float
    error_variance: float
    mean_p_acc: float


def run_benchmark(
    batches: Sequence[LabeledDataset], repetitions: int, master_seed: int
) -> list[list[BenchmarkReport]]:
    """Repeatedly split, preprocess (fitted on the training part only), and
    classify every test point with the exact interference readout, for each
    dataset of each batch (rows (G, n, d), every batch with the same n, as
    split checks); one list of reports per batch, one report per dataset in
    batch order.

    Repetition r splits with SeedSequence((master_seed, r)). Up to CHUNK
    repetitions are split in one call for all the batches, and each batch is
    read in one Pipeline and read_batch pass; each report is the one its
    dataset gives in a batch of one. Test points whose acceptance
    probability vanishes are counted as misclassified.
    """
    check_count(repetitions, "repetitions", 1)
    check_count(master_seed, "master_seed", 0)
    batches = tuple(batches)
    # per batch, per dataset: [per-rep errors, per-rep mean p_acc]
    tallies = [[[[], []] for _ in batch.rows] for batch in batches]
    for start in range(0, repetitions, CHUNK):
        reps = range(start, min(start + CHUNK, repetitions))
        seeds = [np.random.SeedSequence((master_seed, rep)) for rep in reps]
        for (train_raw, test_raw), batch_tallies in zip(
            split(batches, seeds), tallies  # (datasets, reps, ...)
        ):
            pipe = Pipeline()
            train = pipe.fit_transform(train_raw)
            test = pipe.transform(test_raw)
            training = TrainingSet(vectors=train.rows, labels=train.labels)

            p_acc, p_minus = read_batch(training, test.rows)  # (datasets, reps, test points)
            accepted = p_acc > 0.0
            n_accepted = accepted.sum(axis=-1)
            predicted = np.where(p_minus > 0.5, -1, +1)
            wrong = np.count_nonzero(~accepted | (predicted != test.labels), axis=-1)
            for tally, rows, counts, errs in zip(
                batch_tallies, p_acc.tolist(), n_accepted.tolist(),
                (wrong / test.n_samples).tolist(),
            ):
                tally[0].extend(errs)
                # rejected points hold p_acc = 0, which leaves the exact fsum unchanged
                tally[1].extend(math.fsum(row) / n for row, n in zip(rows, counts) if n)
    return [[_report(*tally) for tally in batch_tallies] for batch_tallies in tallies]


def _report(errors: list[float], p_accs: list[float]) -> BenchmarkReport:
    mean_error = math.fsum(errors) / len(errors)
    return BenchmarkReport(
        mean_error=mean_error,
        error_variance=math.fsum((e - mean_error) ** 2 for e in errors) / len(errors),
        mean_p_acc=math.fsum(p_accs) / len(p_accs) if p_accs else 0.0,
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


def benchmark_dataset(key: str) -> LabeledDataset:
    """Materialize the fixed dataset behind a canonical benchmark row key.

    Like iris, circles is one fixed dataset (seed 0), so the master seed
    randomizes only the train/test separations.

    Each call builds the dataset anew (iris from the CSV read once per
    process), so its arrays are the caller's own.
    """
    if key not in {spec.key for spec in TABLE2_ROWS}:
        raise ValueError(f"unknown benchmark row {key!r}")
    if key.startswith("iris"):
        parts = key.split("-")
        return iris(classes=(int(parts[1]), int(parts[2])))
    return circles()


@functools.cache
def _shared_benchmark_groups() -> tuple[tuple[tuple[BenchmarkRowSpec, ...], LabeledDataset], ...]:
    """TABLE2_ROWS grouped by mapped width, in row order: each row's dataset
    under its feature map (kron_power of the raw rows, spec.copies fold),
    each group's datasets stacked into one read-only batch (rows (G, n, d))."""
    groups: dict[tuple[int, ...], list] = {}
    for spec in TABLE2_ROWS:
        ds = benchmark_dataset(spec.key)
        mapped = kron_power(ds.rows, spec.copies)
        groups.setdefault(mapped.shape, []).append((spec, mapped, ds.labels))
    out = []
    for members in groups.values():
        specs, rows, labels = zip(*members)
        rows, labels = np.stack(rows), np.stack(labels)
        rows.flags.writeable = labels.flags.writeable = False
        out.append((specs, LabeledDataset(rows, labels)))
    return tuple(out)


def run_table2(
    repetitions: int, master_seed: int
) -> list[tuple[BenchmarkRowSpec, BenchmarkReport]]:
    """Run all canonical benchmark rows and pair each with its reference spec.

    The feature map is applied once per process, and rows whose mapped
    datasets share a width run as one batch: one run_benchmark call over the
    three batches splits each chunk of repetitions once and reads it in three
    passes. Every report equals the one its row's mapped dataset gives alone.
    """
    groups = _shared_benchmark_groups()
    reports = run_benchmark([batch for _, batch in groups], repetitions, master_seed)
    by_spec = {s: r for (specs, _), rs in zip(groups, reports) for s, r in zip(specs, rs)}
    return [(spec, by_spec[spec]) for spec in TABLE2_ROWS]
