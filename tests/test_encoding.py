import numpy as np
import pytest

from qic.dataset import LabeledDataset
from qic.encoding import (
    Pipeline,
    PipelineOptions,
    kron_power,
    normalize,
    normalize_rows,
    pad_to_power_of_two,
    pipeline,
    standardize,
    standardize_apply,
    tensor_copy_map,
)
from qic.errors import DegenerateFeatureError, NormalizationError, ZeroVectorError


def toy_dataset(rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    labels = np.array([-1, 1] * (len(rows) // 2) + [-1] * (len(rows) % 2)) if labels is None else labels
    return LabeledDataset(rows=rows, labels=labels)


class TestStandardize:
    def test_two_symmetric_points(self):
        out, _ = standardize(toy_dataset([(1, 2), (3, 4)]))
        assert np.allclose(out.rows, [(-1, -1), (1, 1)])

    def test_zero_mean_unit_population_std(self):
        rng = np.random.default_rng(0)
        out, _ = standardize(toy_dataset(rng.normal(2.0, 3.0, size=(40, 3))))
        assert np.allclose(out.rows.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(out.rows.std(axis=0), 1, atol=1e-10)

    def test_idempotent_on_own_fit(self):
        rng = np.random.default_rng(1)
        once, _ = standardize(toy_dataset(rng.normal(size=(30, 2))))
        twice, _ = standardize(once)
        assert np.allclose(once.rows, twice.rows, atol=1e-10)

    def test_constant_feature_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            standardize(toy_dataset([(5, 1), (5, 2), (5, 3), (5, 4)]))

    def test_report_transforms_held_out_points(self):
        rng = np.random.default_rng(2)
        train = toy_dataset(rng.normal(size=(20, 2)))
        _, report = standardize(train)
        held_out = toy_dataset([(0.5, -0.5), (1.0, 2.0)])
        got = standardize_apply(held_out, report)
        assert np.allclose(got.rows, (held_out.rows - report.means) / report.stds)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            standardize(toy_dataset([(1.0, 2.0)], labels=np.array([-1])))


class TestNormalize:
    def test_three_four_five(self):
        assert np.allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_idempotent(self):
        v = normalize(np.array([1.0, 2.0, 2.0]))
        assert np.allclose(normalize(v), v)

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            normalize(np.zeros(2))

    def test_rows_helper(self):
        ds = normalize_rows(toy_dataset([(3, 4), (1, 0)]))
        assert np.allclose(np.linalg.norm(ds.rows, axis=1), 1.0)
        assert ds.normalized


class TestPadToPowerOfTwo:
    def test_three_to_four(self):
        assert np.allclose(pad_to_power_of_two(np.array([1.0, 2, 3])), [1, 2, 3, 0])

    def test_power_of_two_unchanged(self):
        v = np.array([1.0, 2, 3, 4])
        assert pad_to_power_of_two(v) is v

    def test_single_entry_unchanged(self):
        assert np.allclose(pad_to_power_of_two(np.array([2.0])), [2.0])

    def test_norm_unchanged(self):
        v = np.array([0.3, 0.4, 0.5])
        assert np.linalg.norm(pad_to_power_of_two(v)) == pytest.approx(np.linalg.norm(v))


class TestTensorCopyMap:
    def test_single_copy_is_identity(self):
        v = normalize(np.array([1.0, 1.0]))
        assert np.allclose(tensor_copy_map(v, 1), v)

    def test_two_copies_explicit(self):
        got = tensor_copy_map(np.array([0.6, 0.8]), 2)
        assert np.allclose(got, [0.36, 0.48, 0.48, 0.64])

    def test_norm_is_power_of_input_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = normalize(rng.normal(size=4))
            for k in (1, 2, 3):
                assert np.linalg.norm(tensor_copy_map(v, k)) == pytest.approx(1.0, abs=1e-12)

    def test_inner_products_become_powers(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = normalize(rng.normal(size=3))
            v = normalize(rng.normal(size=3))
            fu, fv = tensor_copy_map(u, 2), tensor_copy_map(v, 2)
            assert np.dot(fu, fv) == pytest.approx(np.dot(u, v) ** 2, abs=1e-12)

    def test_non_unit_rejected(self):
        with pytest.raises(NormalizationError):
            tensor_copy_map(np.array([1.0, 1.0]), 2)

    def test_non_finite_rejected(self):
        with pytest.raises(NormalizationError):
            tensor_copy_map(np.array([np.nan, 1.0]), 2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_batched_rows_equal_row_by_row_kron(self, k):
        rows = np.random.default_rng(k).normal(size=(7, 3))
        expected = []
        for r in rows:
            out = r
            for _ in range(k - 1):
                out = np.kron(out, r)
            expected.append(out)
        assert np.array_equal(kron_power(rows, k), np.stack(expected))
        assert np.array_equal(kron_power(rows[2], k), expected[2])

    def test_copies_must_be_positive(self):
        with pytest.raises(ValueError):
            kron_power(np.array([1.0]), 0)


class TestPipeline:
    def test_noop_options_are_identity(self):
        ds = toy_dataset([(1, 2), (3, 4), (5, 6), (7, 8)])
        out = pipeline(ds, PipelineOptions(feature_map_copies=1, standardize=False, normalize=False))
        assert np.array_equal(out.rows, ds.rows)

    def test_rows_unit_norm_and_training_columns_centered(self):
        from qic.data import iris

        pipe = Pipeline()
        out = pipe.fit_transform(iris(classes=(1, 2)))
        assert np.allclose(np.linalg.norm(out.rows, axis=1), 1.0, atol=1e-12)
        # column means are zero before the row normalization step
        standardized = (iris(classes=(1, 2)).rows - pipe.report.means) / pipe.report.stds
        assert np.allclose(standardized.mean(axis=0), 0, atol=1e-10)

    def test_held_out_points_use_training_statistics(self):
        rng = np.random.default_rng(5)
        train = toy_dataset(rng.normal(size=(30, 2)))
        test = toy_dataset(rng.normal(size=(10, 2)))
        pipe = Pipeline()
        pipe.fit_transform(train)
        got = pipe.transform(test)
        expected = (test.rows - pipe.report.means) / pipe.report.stds
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        assert np.allclose(got.rows, expected)

    def test_feature_map_dimension(self):
        ds = toy_dataset([(1, 2), (3, 4), (5, 7), (2, 9)])
        out = pipeline(ds, PipelineOptions(feature_map_copies=2))
        assert out.n_features == 4
        assert out.feature_map_copies == 2

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        ds = toy_dataset(rng.normal(size=(20, 3)))
        a = pipeline(ds, PipelineOptions(feature_map_copies=2))
        b = pipeline(ds, PipelineOptions(feature_map_copies=2))
        assert np.array_equal(a.rows, b.rows)

    def test_mapped_circles_become_linearly_separable(self):
        from qic.data import circles

        ds = pipeline(circles(seed=0), PipelineOptions(feature_map_copies=2))
        # a perceptron converges only on linearly separable data
        X = np.c_[ds.rows, np.ones(len(ds.rows))]
        w = np.zeros(X.shape[1])
        for _ in range(500):
            wrong = 0
            for xi, yi in zip(X, ds.labels):
                if yi * (w @ xi) <= 0:
                    w += yi * xi
                    wrong += 1
            if wrong == 0:
                break
        assert wrong == 0

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            Pipeline().transform(toy_dataset([(1, 2), (3, 4)]))
