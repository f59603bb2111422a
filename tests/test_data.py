import math
import re
from pathlib import Path

import numpy as np
import pytest

from qic import data
from qic.classifier import TrainingSet
from qic.data import (
    CHUNK,
    TABLE2_ROWS,
    TRAIN_FRACTION,
    benchmark_dataset,
    circles,
    iris,
    run_benchmark,
    split,
)
from qic.dataset import LabeledDataset
from qic.encoding import Pipeline, kron_power
from qic.errors import ImpossibleBranchError

from reference import gate_read

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def oracles(monkeypatch):
    """The benchmark's independent oracles, which import nothing of qic."""
    monkeypatch.syspath_prepend(str(ROOT))
    from qicbench import oracles

    return oracles


def permutation(seed, rep, n):
    """The row permutation of repetition rep, drawn here."""
    return np.random.default_rng(np.random.SeedSequence((seed, rep))).permutation(n)


def batch_of(ds):
    """ds as a batch of one dataset, rows (1, n, d), over views of its arrays."""
    return LabeledDataset(ds.rows[None], ds.labels[None])


def run_alone(ds, reps, copies=1, master_seed=1234):
    """The report run_benchmark gives a batch of this one dataset under the
    feature map of copies."""
    batch = LabeledDataset(kron_power(ds.rows, copies)[None], ds.labels[None])
    ((report,),) = run_benchmark([batch], reps, master_seed)
    return report


def statevector_reference(ds, reps, copies, master_seed):
    """run_benchmark one split and one test point at a time, through the
    gate-by-gate statevector readout, with each permutation drawn here, the
    feature map of copies applied to each split's rows, and the pipeline
    that data.Pipeline names: (per-rep errors, per-rep mean p_acc,
    impossible)."""
    n_train = int(TRAIN_FRACTION * ds.n_samples)
    impossible, errors, p_accs = 0, [], []
    for rep in range(reps):
        perm = permutation(master_seed, rep, ds.n_samples)
        train_rows, test_rows = perm[:n_train], perm[n_train:]
        pipe = data.Pipeline()
        train = pipe.fit_transform(LabeledDataset(
            kron_power(ds.rows[train_rows], copies), ds.labels[train_rows]))
        test = pipe.transform(LabeledDataset(
            kron_power(ds.rows[test_rows], copies), ds.labels[test_rows]))
        training = TrainingSet(vectors=train.rows, labels=train.labels)
        wrong, rep_p_acc = 0, []
        for xt, yt in zip(test.rows, test.labels):
            try:
                p_acc, _, predicted = gate_read(training, xt)
            except ImpossibleBranchError:
                impossible += 1
                wrong += 1
                continue
            rep_p_acc.append(p_acc)
            wrong += predicted != yt
        errors.append(wrong / test.n_samples)
        if rep_p_acc:
            p_accs.append(math.fsum(rep_p_acc) / len(rep_p_acc))
    return errors, p_accs, impossible


class TestIris:
    def test_shape_and_labels(self):
        ds = iris(classes=(1, 2))
        assert ds.n_samples == 100
        assert ds.n_features == 4
        assert np.sum(ds.labels == -1) == 50
        assert np.sum(ds.labels == +1) == 50

    def test_feature_subset(self):
        # all four features; the experiment's two are the first two columns
        ds = iris(classes=(2, 3))
        values, targets = data._load_iris_csv()
        assert ds.n_features == 4
        assert np.array_equal(ds.rows[:, :2],
                              np.vstack([values[targets == 2, :2], values[targets == 3, :2]]))
        with pytest.raises(TypeError):
            iris(classes=(2, 3), features=(0, 1))

    def test_identical_classes_rejected(self):
        with pytest.raises(ValueError):
            iris(classes=(1, 1))

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "classes must come from {1, 2, 3}, got (1, 4)")):
            iris(classes=(1, 4))

    def test_known_first_row(self):
        ds = iris(classes=(1, 2))
        assert np.allclose(ds.rows[0], [5.1, 3.5, 1.4, 0.2])

    def test_experiment_anchor_sample(self):
        # sample 33 of classes 1&2 lands at (0, 1) after two-feature
        # standardize+normalize, up to the rounding of the published values
        ds = iris(classes=(1, 2))
        out = Pipeline().fit_transform(ds.with_rows(ds.rows[:, :2]))
        assert np.allclose(out.rows[33], [0.0, 1.0], atol=0.03)

    def test_experiment_input_samples(self):
        ds = iris(classes=(1, 2))
        out = Pipeline().fit_transform(ds.with_rows(ds.rows[:, :2]))
        assert np.allclose(out.rows[28], [-0.549, 0.836], atol=0.02)
        assert np.allclose(out.rows[36], [0.053, 0.999], atol=0.02)
        assert np.allclose(out.rows[85], [0.789, 0.615], atol=0.02)

    def test_cached_csv_arrays_are_read_only(self):
        values, targets = data._load_iris_csv()
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            targets[0] = 3
        assert data._load_iris_csv()[0][0, 0] == 5.1

    def test_output_is_a_writable_copy(self):
        ds = iris(classes=(1, 2))
        ds.rows[0, 0] = -1.0
        ds.labels[0] = +1
        again = iris(classes=(1, 2))
        assert again.rows[0, 0] == 5.1
        assert again.labels[0] == -1


class TestCircles:
    def test_no_noise_exact_radii(self):
        # seed 0 draws the 100 angles, then the jitter; without the jitter
        # the points lie on radius 1 (first 50) and 0.5
        rng = np.random.default_rng(0)
        rng.uniform(0.0, 2.0 * math.pi, 100)
        jitter = rng.normal(0.0, 0.05, (100, 2))
        radii = np.linalg.norm(circles().rows - jitter, axis=1)
        assert np.allclose(radii[:50], 1.0)
        assert np.allclose(radii[50:], 0.5)

    def test_labels(self):
        ds = circles()
        assert np.all(ds.labels[:50] == -1)
        assert np.all(ds.labels[50:] == +1)

    def test_seed_determinism(self):
        a = circles()
        b = circles()
        assert np.array_equal(a.rows, b.rows)
        assert not np.shares_memory(a.rows, b.rows)


class TestSplit:
    def test_eighty_twenty(self):
        ds = iris(classes=(1, 2))
        [(train, test)] = split([batch_of(ds)], [0])
        assert train.rows.shape == (1, 1, 80, 4)
        assert train.n_samples == 80
        assert test.n_samples == 20

    def test_disjoint_and_exhaustive(self):
        ds = circles()
        [(train, test)] = split([batch_of(ds)], [7])
        joined = np.vstack([train.rows[0, 0], test.rows[0, 0]])
        assert joined.shape == ds.rows.shape
        assert np.allclose(np.sort(joined, axis=0), np.sort(ds.rows, axis=0))

    def test_seed_determinism(self):
        batch = batch_of(iris(classes=(1, 3)))
        a = split([batch], [11])[0][0]
        b = split([batch], [11])[0][0]
        assert np.array_equal(a.rows, b.rows)

    def test_list_of_seeds_stacks_the_single_splits(self):
        ds = iris(classes=(1, 3))
        seeds = [np.random.SeedSequence((4, rep)) for rep in range(3)]
        [(train, test)] = split([batch_of(ds)], seeds)
        assert train.rows.shape == (1, 3, 80, 4) and test.labels.shape == (1, 3, 20)
        assert (train.n_samples, test.n_samples, train.n_features) == (80, 20, 4)
        for r in range(3):
            perm = permutation(4, r, 100)
            assert np.array_equal(train.rows[0, r], ds.rows[perm[:80]])
            assert np.array_equal(train.labels[0, r], ds.labels[perm[:80]])
            assert np.array_equal(test.rows[0, r], ds.rows[perm[80:]])
            assert np.array_equal(test.labels[0, r], ds.labels[perm[80:]])

    def test_datasets_of_one_call_equal_their_splits_alone(self, monkeypatch):
        # a batch of one and batches of two of either width, split in one
        # call, with one permutation drawn per seed for all of them
        pair = [iris(classes=(1, 2)), circles()]
        lone = batch_of(pair[0])
        negated = LabeledDataset(np.stack([pair[1].rows, -pair[1].rows]),
                                 np.stack([pair[1].labels, pair[1].labels]))
        scaled = LabeledDataset(np.stack([pair[0].rows, 2 * pair[0].rows]),
                                np.stack([pair[0].labels, -pair[0].labels]))
        seeds = [np.random.SeedSequence((6, rep)) for rep in range(4)]
        alone = [split([ds], seeds)[0] for ds in (lone, negated, scaled)]
        draws = []
        real_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: draws.append(s) or real_rng(s))
        together = split([lone, negated, scaled], seeds)
        assert draws == seeds
        assert len(together) == 3
        for got, expected in zip(together, alone):
            for side_got, side_expected in zip(got, expected):
                assert np.array_equal(side_got.rows, side_expected.rows)
                assert np.array_equal(side_got.labels, side_expected.labels)

    def test_one_seed_is_not_a_batch(self):
        # the seeds are a sequence; a lone seed, by keyword or by position, fails
        batch = batch_of(iris(classes=(1, 3)))
        with pytest.raises(TypeError):
            split([batch], seed=0)
        for seed in (0, np.random.SeedSequence(0)):
            with pytest.raises(TypeError):
                split([batch], seed)

    def test_lone_dataset_is_not_a_sequence(self):
        with pytest.raises(TypeError):
            split(batch_of(iris(classes=(1, 3))), [0])

    @pytest.mark.parametrize("shapes", [
        [(1, 100, 4), (1, 50, 2)], [(2, 100, 4), (2, 10, 4)], [], [(2, 3, 100, 4)],
        [(100, 4)],
    ], ids=["different-n", "batch-of-different-n", "empty", "four-dimensional",
            "lone-dataset"])
    def test_rejects_what_one_permutation_cannot_split(self, shapes):
        datasets = [LabeledDataset(np.ones(shape), np.ones(shape[:-1])) for shape in shapes]
        listed = ", ".join(map(str, shapes))
        with pytest.raises(ValueError, match=re.escape(
                f"split takes batches (G, n, d) of one n, got rows [{listed}]")):
            split(datasets, [0])

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "got rows [(1, 100, 4)], and at least one seed, got 0")):
            split([batch_of(iris(classes=(1, 3)))], [])

    def test_empty_side_rejected(self):
        # floor(0.8 * 1) is 0, so one-row datasets leave the train side empty
        ds = LabeledDataset(rows=circles().rows[:3, None, :], labels=[[-1], [1], [-1]])
        with pytest.raises(ValueError, match="1 rows leave an empty train side"):
            split([ds], [0])


class TestLabeledDataset:
    @pytest.mark.parametrize("labels", [[1.5, -1], [0.9, -1]])
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValueError, match="labels must be -1 or"):
            LabeledDataset(rows=[[1.0, 2.0], [3.0, 4.0]], labels=labels)

    def test_exact_float_labels_become_ints(self):
        ds = LabeledDataset(rows=[[1.0, 2.0], [3.0, 4.0]], labels=[1.0, -1.0])
        assert ds.labels.dtype.kind == "i"
        assert ds.labels.tolist() == [1, -1]

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="2 rows but 3 labels"):
            LabeledDataset(rows=[[1.0, 2.0], [3.0, 4.0]], labels=[1, -1, 1])

    def test_batch_checks_labels_and_rows_of_every_matrix(self):
        rows = np.ones((2, 3, 2))
        with pytest.raises(ValueError, match="2x3 rows but 3 labels"):
            LabeledDataset(rows=rows, labels=[1, -1, 1])
        with pytest.raises(ValueError, match="labels must be -1 or"):
            LabeledDataset(rows=rows, labels=[[1, -1, 1], [1, 0, 1]])
        batch = LabeledDataset(rows=rows, labels=[[1, -1, 1], [1, -1, 1]])
        pair = [iris(classes=(1, 2)), iris(classes=(2, 3))]
        stacked = LabeledDataset(rows=np.stack([ds.rows for ds in pair]),
                                 labels=np.stack([ds.labels for ds in pair]))
        for seeds in ([11], [np.random.SeedSequence((5, rep)) for rep in range(3)]):
            for g, ds in enumerate(pair):
                alone = split([batch_of(ds)], seeds)[0]
                for got, side in zip(split([stacked], seeds)[0], alone):
                    assert np.array_equal(got.rows[g], side.rows[0])
                    assert np.array_equal(got.labels[g], side.labels[0])
        rows[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="rows must be finite"):
            LabeledDataset(rows=rows, labels=[[1, -1, 1], [1, -1, 1]])

    def test_with_rows_checks_the_new_rows(self):
        ds = LabeledDataset(rows=[[1.0, 2.0], [3.0, 4.0]], labels=[1, -1])
        with pytest.raises(ValueError, match="rows must be finite"):
            ds.with_rows([[1.0, np.nan], [3.0, 4.0]])
        with pytest.raises(ValueError, match="3 rows but 2 labels"):
            ds.with_rows(np.ones((3, 2)))
        with pytest.raises(ValueError, match="rows must be a matrix"):
            ds.with_rows([1.0, 2.0])
        batch = ds.subset(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="rows must be finite"):
            batch.with_rows(np.full((2, 2, 3), np.inf))
        with pytest.raises(ValueError, match="2x1 rows but 2x2 labels"):
            batch.with_rows(np.ones((2, 1, 3)))

    def test_subset_and_with_rows_do_not_recheck_labels(self, monkeypatch):
        from qic import dataset

        ds = LabeledDataset(rows=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], labels=[1, -1, 1])

        def recheck(*args):
            raise AssertionError("a derived dataset re-checked its labels")

        monkeypatch.setattr(dataset, "check_labels", recheck)
        batch = ds.subset(np.array([[2, 0], [1, 2]]))
        assert batch.labels.tolist() == [[1, 1], [-1, 1]]
        assert batch.rows[1, 0].tolist() == [3.0, 4.0]
        out = batch.with_rows(-batch.rows)
        assert out.labels is batch.labels
        assert out.rows[0, 0].tolist() == [-5.0, -6.0]


class TestRunBenchmark:
    def test_deterministic_report(self):
        ds = iris(classes=(1, 2))
        a = run_alone(ds, 5, master_seed=42)
        b = run_alone(ds, 5, master_seed=42)
        assert a == b

    def test_variance_is_population_variance_of_rep_errors(self):
        # recompute per-repetition errors independently and compare
        ds = iris(classes=(2, 3))
        report = run_alone(ds, 6, master_seed=9)
        errors, _, _ = statevector_reference(ds, 6, 1, master_seed=9)
        assert report.mean_error == pytest.approx(np.mean(errors), abs=1e-12)
        assert report.error_variance == pytest.approx(np.var(errors), abs=1e-12)

    def test_impossible_branches_counted_like_statevector_path(self, monkeypatch):
        # Unstandardized, the rows on one ray normalize to one vector, and the
        # single row on the opposite ray is antipodal to the whole training set
        # whenever it is held out. The report must match the per-point
        # statevector loop, which sees ImpossibleBranchError there.
        # The real pipeline cannot produce this branch: standardized training
        # rows have mean 0, so they cannot all point away from one input.
        from qic.encoding import normalize

        class Unstandardized:
            """Pipeline without the standardization stage."""

            def fit_transform(self, dataset):
                return self.transform(dataset)

            def transform(self, dataset):
                return dataset.with_rows(normalize(dataset.rows))

        monkeypatch.setattr(data, "Pipeline", Unstandardized)
        rows = [[s, 2.0 * s] for s in range(1, 10)] + [[-1.0, -2.0]]
        ds = LabeledDataset(rows=rows, labels=[-1, 1] * 5)
        report = run_alone(ds, 20, master_seed=3)
        errors, p_accs, impossible = statevector_reference(ds, 20, 1, master_seed=3)
        assert impossible > 0
        assert report.impossible_branch_count == impossible
        assert report.mean_error == pytest.approx(np.mean(errors), abs=1e-12)
        assert report.error_variance == pytest.approx(np.var(errors), abs=1e-12)
        assert report.mean_p_acc == pytest.approx(np.mean(p_accs), abs=1e-12)

    def test_separable_pair_has_zero_error(self):
        report = run_alone(iris(classes=(1, 2)), 30, master_seed=1)
        assert report.mean_error <= 0.01
        assert abs(report.mean_p_acc - 0.5) <= 0.05

    def test_rep_count_validation(self):
        with pytest.raises(ValueError):
            run_alone(iris(classes=(1, 2)), 0)

    @pytest.mark.parametrize("shapes", [
        [(2, 100, 4), (1, 50, 2)], [], [(2, 100, 4), (100, 2)], [(1, 3, 100, 2)],
    ], ids=["different-n", "empty", "lone-dataset", "batch-of-splits"])
    def test_rejects_what_is_not_batches_of_one_n(self, shapes):
        # split's one shape check, on the first chunk
        rows = iris(classes=(1, 2)).rows
        batches = [LabeledDataset(np.broadcast_to(rows[: shape[-2], : shape[-1]], shape),
                                  np.ones(shape[:-1])) for shape in shapes]
        listed = ", ".join(map(str, shapes))
        with pytest.raises(ValueError, match=re.escape(
                f"split takes batches (G, n, d) of one n, got rows [{listed}]")):
            run_benchmark(batches, 1, 0)

    @pytest.mark.parametrize("repetitions", [True, 2.0, 2.5])
    def test_repetitions_must_be_an_integer(self, repetitions):
        # a bool would run one repetition, and a float a TypeError from range
        with pytest.raises(ValueError, match=re.escape(
                f"repetitions must be an integer, got {repetitions!r}")):
            run_benchmark([batch_of(iris(classes=(1, 2)))], repetitions, 0)

    def test_lone_batch_is_not_a_sequence(self):
        with pytest.raises(TypeError, match="not iterable"):
            run_benchmark(batch_of(iris(classes=(1, 2))), 1, 0)

    @pytest.mark.parametrize("seed", [0, 77])
    @pytest.mark.parametrize("reps", [1, CHUNK, CHUNK + 1])
    def test_table2_rows_equal_their_datasets_run_alone(self, reps, seed, oracles):
        datasets = oracles.load_datasets(ROOT / "src" / "qic" / "iris.csv")
        for spec, report in data.run_table2(reps, seed):
            assert report == run_alone(benchmark_dataset(spec.key), reps, spec.copies, seed)
            expected = oracles.table2_row(*datasets[spec.key], spec.copies, reps, seed)
            got = (report.mean_error, report.error_variance, report.mean_p_acc)
            assert np.allclose(got, expected, atol=1e-12, rtol=0.0)

    def test_table2_splits_once_per_chunk_and_fits_once_per_batch(self, monkeypatch):
        # a return to one split per dataset shape, or to one Pipeline ->
        # read_batch pass per row or per (shape, copies), fails here
        calls = {"split": 0, "fit": 0}
        real_split, real_fit = data.split, Pipeline.fit_transform

        def counted_split(*args):
            calls["split"] += 1
            return real_split(*args)

        def counted_fit(self, dataset):
            calls["fit"] += 1
            return real_fit(self, dataset)

        monkeypatch.setattr(data, "split", counted_split)
        monkeypatch.setattr(Pipeline, "fit_transform", counted_fit)
        data.run_table2(CHUNK + 1, 3)
        widths = {benchmark_dataset(spec.key).n_features ** spec.copies for spec in TABLE2_ROWS}
        assert widths == {2, 4, 16}
        assert calls == {"split": 2, "fit": 3 * 2}

    def test_row_keys_resolve(self):
        for spec in TABLE2_ROWS:
            ds = benchmark_dataset(spec.key)
            assert ds.n_samples == 100

    @pytest.mark.parametrize("key", ["circlesXYZ", "iris-2-3-bogus", "iris"])
    def test_only_table2_keys_resolve(self, key):
        with pytest.raises(ValueError, match="unknown benchmark row"):
            benchmark_dataset(key)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_chunked_run_matches_per_split_statevector_loop(self, copies):
        # CHUNK + 1 repetitions: one full chunk, then a chunk of a single split
        ds = iris(classes=(2, 3))
        reps = CHUNK + 1
        report = run_alone(ds, reps, copies, master_seed=5)
        errors, p_accs, impossible = statevector_reference(ds, reps, copies, master_seed=5)
        assert report.mean_error > 0.0
        assert report.mean_error == pytest.approx(np.mean(errors), abs=1e-12)
        assert report.error_variance == pytest.approx(np.var(errors), abs=1e-12)
        assert report.mean_p_acc == pytest.approx(np.mean(p_accs), abs=1e-12)
        assert report.impossible_branch_count == impossible


TABLE2_KEYS = [spec.key for spec in TABLE2_ROWS]


class TestBenchmarkDataset:
    @pytest.mark.parametrize("key", TABLE2_KEYS)
    def test_arrays_are_read_only(self, key):
        ds = benchmark_dataset(key)
        with pytest.raises(ValueError, match="read-only"):
            ds.rows[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = -ds.labels[0]
        with pytest.raises(ValueError, match="read-only"):
            ds.rows += 1.0

    @pytest.mark.parametrize("key", TABLE2_KEYS)
    def test_rows_are_c_contiguous(self, key):
        assert benchmark_dataset(key).rows.flags.c_contiguous

    @pytest.mark.parametrize("key", TABLE2_KEYS)
    def test_equals_the_benchmark_oracle_dataset(self, key, oracles):
        rows, labels = oracles.load_datasets(ROOT / "src" / "qic" / "iris.csv")[key]
        ds = benchmark_dataset(key)
        assert np.array_equal(ds.rows, rows)
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("key", TABLE2_KEYS)
    def test_rebound_attributes_do_not_reach_the_next_caller(self, key):
        first = benchmark_dataset(key)
        rows, labels = first.rows.copy(), first.labels.copy()
        first.rows = np.zeros_like(rows)
        first.labels = -labels
        again = benchmark_dataset(key)
        assert again is not first
        # the second call returns the arrays the first call was handed
        assert np.array_equal(again.rows, rows)
        assert np.array_equal(again.labels, labels)

    @pytest.mark.parametrize("key", ["iris-2-3-featmap", "circles"])
    def test_split_and_pipeline_outputs_are_writable(self, key):
        spec = next(spec for spec in TABLE2_ROWS if spec.key == key)
        seeds = [np.random.SeedSequence((1234, rep)) for rep in range(3)]
        (batch,) = (batch for specs, batch in data._shared_benchmark_groups() if spec in specs)
        for reps in (seeds[:1], seeds):
            [(train_raw, test_raw), (batch_train, batch_test)] = split(
                [batch_of(benchmark_dataset(key)), batch], reps)
            pipe = Pipeline()
            outputs = [train_raw, test_raw, batch_train, batch_test,
                       pipe.fit_transform(batch_train), pipe.transform(batch_test)]
            for ds in outputs:
                assert ds.rows.flags.writeable
                assert ds.labels.flags.writeable
                ds.rows[..., 0, 0] = 0.0
        assert benchmark_dataset(key).rows[0, 0] != 0.0
        assert batch.rows[0, 0, 0] != 0.0

    def test_table2_batches_hold_the_mapped_datasets_by_width(self):
        # three read-only batches, in row order within each: every dataset
        # under its feature map, the featmap rows too
        groups = data._shared_benchmark_groups()
        assert [[spec.key for spec in specs] for specs, _ in groups] == [
            ["iris-1-2", "iris-1-3", "iris-2-3", "circles-featmap"],
            ["iris-2-3-featmap"],
            ["circles"],
        ]
        assert [batch.rows.shape for _, batch in groups] == [
            (4, 100, 4), (1, 100, 16), (1, 100, 2)]
        for specs, batch in groups:
            assert not batch.rows.flags.writeable and not batch.labels.flags.writeable
            for spec, rows, labels in zip(specs, batch.rows, batch.labels):
                ds = benchmark_dataset(spec.key)
                assert np.array_equal(rows, kron_power(ds.rows, spec.copies))
                assert np.array_equal(labels, ds.labels)
