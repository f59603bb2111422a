import re
import warnings

import numpy as np
import pytest

from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qic.encoding import LabeledDataset, Pipeline, kron_power, normalize
from qic.errors import DegenerateFeatureError, ZeroVectorError


def toy_dataset(rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    labels = np.array([-1, 1] * (len(rows) // 2) + [-1] * (len(rows) % 2)) if labels is None else labels
    return LabeledDataset(rows=rows, labels=labels)


def mapped(ds, copies):
    """The dataset under the tensor-copy feature map, which precedes Pipeline."""
    return LabeledDataset(kron_power(ds.rows, copies), ds.labels)


class TestStandardize:
    """The standardization stage of Pipeline, read through its statistics."""

    def test_two_symmetric_points(self):
        pipe = Pipeline()
        out = pipe.fit_transform(toy_dataset([(1, 2), (3, 4)]))
        assert np.array_equal(pipe.means, [2.0, 3.0])
        assert np.array_equal(pipe.stds, [1.0, 1.0])
        assert np.allclose(out.rows, np.array([(-1, -1), (1, 1)]) / np.sqrt(2))

    def test_zero_mean_unit_population_std(self):
        rng = np.random.default_rng(0)
        ds = toy_dataset(rng.normal(2.0, 3.0, size=(40, 3)))
        pipe = Pipeline()
        pipe.fit_transform(ds)
        assert np.array_equal(pipe.stds, ds.rows.std(axis=0))
        standardized = (ds.rows - pipe.means) / pipe.stds
        assert np.allclose(standardized.mean(axis=0), 0, atol=1e-10)
        assert np.allclose(standardized.std(axis=0), 1, atol=1e-10)

    def test_constant_feature_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            Pipeline().fit_transform(toy_dataset([(5, 1), (5, 2), (5, 3), (5, 4)]))

    def test_report_transforms_held_out_points(self):
        rng = np.random.default_rng(2)
        pipe = Pipeline()
        pipe.fit_transform(toy_dataset(rng.normal(size=(20, 2))))
        held_out = toy_dataset([(0.5, -0.5), (1.0, 2.0)])
        got = pipe.transform(held_out)
        assert np.array_equal(got.rows, normalize((held_out.rows - pipe.means) / pipe.stds))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            Pipeline().fit_transform(toy_dataset([(1.0, 2.0)], labels=np.array([-1])))


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
        rows = normalize(np.array([(3.0, 4.0), (1.0, 0.0)]))
        assert np.allclose(rows, [(0.6, 0.8), (1.0, 0.0)])
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVectorError, match=r"\[1\]"):
            normalize(np.array([(3.0, 4.0), (0.0, 1e-13)]))

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 1.0], [1e200, 1e200]])
    def test_non_finite_norm_rejected(self, v):
        # 1e200 is finite, but its norm overflows to inf
        with pytest.raises(ValueError, match="non-finite"):
            normalize(np.array(v))

    def test_overflowing_norm_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                normalize([1e200, 1e200])

    def test_non_finite_row_rejected(self):
        rows = np.array([(3.0, 4.0), (1.0, np.nan), (1.0, 0.0)])
        with pytest.raises(ValueError, match=r"\[1\] with non-finite norm"):
            normalize(rows)


class TestTensorCopyMap:
    """The tensor-copy feature map: kron_power of unit vectors."""

    def test_single_copy_is_identity(self):
        v = normalize(np.array([1.0, 1.0]))
        assert np.array_equal(kron_power(v, 1), v)

    def test_two_copies_explicit(self):
        got = kron_power(np.array([0.6, 0.8]), 2)
        assert np.allclose(got, [0.36, 0.48, 0.48, 0.64])

    def test_norm_is_power_of_input_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = normalize(rng.normal(size=4))
            for k in (1, 2, 3):
                assert np.linalg.norm(kron_power(v, k)) == pytest.approx(1.0, abs=1e-12)

    def test_inner_products_become_powers(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            u = normalize(rng.normal(size=3))
            v = normalize(rng.normal(size=3))
            fu, fv = kron_power(u, 2), kron_power(v, 2)
            assert np.dot(fu, fv) == pytest.approx(np.dot(u, v) ** 2, abs=1e-12)

    def test_non_finite_rejected(self):
        # squaring 1e200 overflows; no dataset may hold the mapped inf
        ds = toy_dataset([(1e200, 1.0), (1.0, 2.0), (3.0, 5.0), (2.0, 1.0)])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            Pipeline().fit_transform(mapped(ds, 2))

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
        # a batch of matrices maps each matrix
        batch = np.stack([rows, rows[::-1]])
        assert np.array_equal(kron_power(batch, k), np.stack([expected, expected[::-1]]))

    def test_copies_must_be_positive(self):
        with pytest.raises(ValueError):
            kron_power(np.array([1.0]), 0)

    @pytest.mark.parametrize("copies", [True, 2.0, 2.5])
    def test_copies_must_be_an_integer(self, copies):
        # a bool would give one copy, and a float a TypeError from range
        with pytest.raises(ValueError, match=f"^copies must be an integer, got {copies!r}$"):
            kron_power(np.array([0.6, 0.8]), copies)

    def test_numpy_integer_copies_accepted(self):
        v = np.array([0.6, 0.8])
        assert np.array_equal(kron_power(v, np.int64(2)), kron_power(v, 2))


class TestPipeline:
    def test_rows_unit_norm_and_training_columns_centered(self):
        from qic.data import iris

        pipe = Pipeline()
        out = pipe.fit_transform(iris(classes=(1, 2)))
        assert np.allclose(np.linalg.norm(out.rows, axis=1), 1.0, atol=1e-12)
        # column means are zero before the row normalization step
        standardized = (iris(classes=(1, 2)).rows - pipe.means) / pipe.stds
        assert np.allclose(standardized.mean(axis=0), 0, atol=1e-10)

    def test_held_out_points_use_training_statistics(self):
        rng = np.random.default_rng(5)
        train = toy_dataset(rng.normal(size=(30, 2)))
        test = toy_dataset(rng.normal(size=(10, 2)))
        pipe = Pipeline()
        pipe.fit_transform(train)
        got = pipe.transform(test)
        expected = (test.rows - pipe.means) / pipe.stds
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        assert np.allclose(got.rows, expected)

    def test_feature_map_dimension(self):
        ds = toy_dataset([(1, 2), (3, 4), (5, 7), (2, 9)])
        out = Pipeline().fit_transform(mapped(ds, 2))
        assert out.n_features == 4

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        ds = toy_dataset(rng.normal(size=(20, 3)))
        a = Pipeline().fit_transform(mapped(ds, 2))
        b = Pipeline().fit_transform(mapped(ds, 2))
        assert np.array_equal(a.rows, b.rows)

    def test_mapped_circles_become_linearly_separable(self):
        from qic.data import circles

        ds = Pipeline().fit_transform(mapped(circles(), 2))
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

    @pytest.mark.parametrize("fit_width, width", [(3, 1), (1, 3), (3, 9)])
    def test_transform_of_another_width_rejected(self, fit_width, width):
        # numpy would broadcast a width-1 row against the fitted columns
        rng = np.random.default_rng(0)
        pipe = Pipeline()
        pipe.fit_transform(toy_dataset(rng.normal(size=(6, fit_width))))
        with pytest.raises(ValueError, match=f"fitted on {fit_width} features, got {width}"):
            pipe.transform(toy_dataset(rng.normal(size=(4, width))))

    @pytest.mark.parametrize("fit_shape, shape", [
        ((1, 6, 3), (5, 4, 3)), ((6, 3), (2, 4, 3)), ((2, 6, 3), (4, 3)), ((2, 6, 3), (3, 4, 3)),
    ], ids=["one-to-five", "lone-to-batch", "batch-to-lone", "two-to-three"])
    def test_transform_of_another_batch_rejected(self, fit_shape, shape):
        # numpy would broadcast the fitted statistics across the held-out batch
        rng = np.random.default_rng(0)
        pipe = Pipeline()
        pipe.fit_transform(LabeledDataset(rng.normal(size=fit_shape),
                                          np.resize([-1, 1], fit_shape[:-1])))
        with pytest.raises(ValueError, match=re.escape(
                f"fitted on a batch of shape {fit_shape[:-2]}, got {shape[:-2]}")):
            pipe.transform(LabeledDataset(rng.normal(size=shape), np.resize([-1, 1], shape[:-1])))

    @pytest.mark.parametrize("copies", [1, 2])
    def test_batch_of_splits_equals_split_by_split(self, copies):
        rng = np.random.default_rng(copies)
        train_rows = kron_power(rng.normal(size=(3, 12, 3)), copies)
        test_rows = kron_power(rng.normal(size=(3, 5, 3)), copies)
        train_labels, test_labels = np.tile([-1, 1], (3, 6)), np.tile([-1, 1, 1, -1, 1], (3, 1))
        batch = Pipeline()
        fitted = batch.fit_transform(LabeledDataset(train_rows, train_labels))
        held_out = batch.transform(LabeledDataset(test_rows, test_labels))
        assert batch.means.shape == batch.stds.shape == (3, 3 ** copies)
        for r in range(3):
            one = Pipeline()
            one_fitted = one.fit_transform(LabeledDataset(train_rows[r], train_labels[r]))
            one_held_out = one.transform(LabeledDataset(test_rows[r], test_labels[r]))
            assert np.array_equal(batch.means[r], one.means)
            assert np.array_equal(batch.stds[r], one.stds)
            assert np.array_equal(fitted.rows[r], one_fitted.rows)
            assert np.array_equal(held_out.rows[r], one_held_out.rows)
            assert np.array_equal(held_out.labels[r], test_labels[r])

    def test_zero_variance_column_of_any_split_rejected(self):
        rows = np.random.default_rng(0).normal(size=(2, 6, 3))
        rows[1, :, 2] = 4.0
        pipe = Pipeline()
        with pytest.raises(DegenerateFeatureError, match=r"column\(s\) \[2\]"):
            pipe.fit_transform(LabeledDataset(rows, np.tile([-1, 1], (2, 3))))
        assert pipe.means is None

    @settings(max_examples=80, deadline=None)
    @given(
        copies=st.integers(1, 3),
        rows=st.integers(2, 8).flatmap(
            lambda n: st.integers(1, 3).flatmap(
                lambda d: st.lists(
                    st.lists(st.floats(-100, 100), min_size=d, max_size=d),
                    min_size=n, max_size=n,
                )
            )
        ),
    )
    def test_transform_of_train_equals_fit_transform(self, copies, rows):
        train = mapped(toy_dataset(rows), copies)
        pipe = Pipeline()
        try:
            fitted = pipe.fit_transform(train)
        except DegenerateFeatureError:
            reject()
        except ZeroVectorError:
            # a row at the column means has no direction; the failed fit
            # leaves the pipeline unfitted
            assert pipe.means is None and pipe.stds is None
            return
        assert np.array_equal(pipe.transform(train).rows, fitted.rows)
