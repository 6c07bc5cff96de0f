import numpy as np
import pytest

from basilsim.data import (
    Dataset,
    flag_sensitive_by_class,
    make_cluster_dataset,
    make_quadratic_dataset,
    partition,
)
from basilsim.errors import ConfigError


def toy_dataset(n=100, classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((n, 3)), rng.integers(0, classes, n))


class TestPartition:
    def test_iid_equal_shards_cover_everything(self):
        ds = partition(toy_dataset(100), 10, "iid", seed=1)
        sizes = [len(ds.partition[i]) for i in range(10)]
        assert sizes == [10] * 10
        union = np.sort(np.concatenate(list(ds.partition.values())))
        assert np.array_equal(union, np.arange(100))

    def test_non_iid_two_classes_split_cleanly(self):
        labels = np.array([0, 1] * 10)
        ds = Dataset(np.zeros((20, 2)), labels)
        ds = partition(ds, 2, "non-iid", seed=0)
        assert set(ds.labels[ds.partition[0]]) == {0}
        assert set(ds.labels[ds.partition[1]]) == {1}

    def test_same_seed_same_partition(self):
        a = partition(toy_dataset(97), 8, "iid", seed=42)
        b = partition(toy_dataset(97), 8, "iid", seed=42)
        for i in range(8):
            assert np.array_equal(a.partition[i], b.partition[i])

    def test_partitions_disjoint_and_truncated(self):
        ds = partition(toy_dataset(97), 8, "iid", seed=3)
        all_idx = np.concatenate(list(ds.partition.values()))
        assert len(all_idx) == len(set(all_idx.tolist())) == 96  # 97 -> 12 * 8

    def test_more_nodes_than_samples_rejected(self):
        with pytest.raises(ConfigError):
            partition(toy_dataset(5), 6, "iid", seed=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            partition(toy_dataset(), 2, "sorted", seed=0)


class TestSynthetic:
    def test_cluster_dataset_is_deterministic(self):
        a = make_cluster_dataset(50, 3, 4, separation=2.0, seed=9)
        b = make_cluster_dataset(50, 3, 4, separation=2.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("n, classes, dim, std", [
        (6000, 16, 64, 1.0), (5000, 10, 8, 1.3), (3, 2, 20000, 0.5), (7, 6, 3, 2.5)])
    def test_cluster_features_match_the_one_expression_reference(self, n, classes, dim, std):
        # reference: the same draws combined as means[labels] + std * noise
        rng = np.random.default_rng([11, 0xC1])
        means = rng.standard_normal((classes, dim))
        means *= 2.4 / np.linalg.norm(means, axis=1, keepdims=True)
        labels = rng.integers(0, classes, size=n)
        expected = means[labels] + std * rng.standard_normal((n, dim))
        ds = make_cluster_dataset(n, classes, dim, separation=2.4, seed=11, class_std=std)
        assert ds.features.tobytes() == expected.tobytes()
        assert np.array_equal(ds.labels, labels)

    def test_cluster_separation_controls_means(self):
        ds = make_cluster_dataset(2000, 4, 6, separation=10.0, seed=1)
        for c in range(4):
            mean = ds.features[ds.labels == c].mean(axis=0)
            assert np.linalg.norm(mean) == pytest.approx(10.0, rel=0.15)

    def test_quadratic_dataset_is_centred(self):
        ds = make_quadratic_dataset(64, 5, seed=2)
        np.testing.assert_allclose(ds.features.mean(axis=0), np.zeros(5), atol=1e-12)


class TestSensitiveFlagging:
    def test_gamma_one_marks_nothing(self):
        ds = flag_sensitive_by_class(toy_dataset(classes=4), 1.0)
        assert not ds.sensitive.any()

    def test_gamma_half_marks_trailing_classes(self):
        ds = toy_dataset(n=200, classes=4)
        flagged = flag_sensitive_by_class(ds, 0.5)
        open_classes = {0, 1}
        for lab, sens in zip(flagged.labels.tolist(), flagged.sensitive.tolist()):
            assert sens == (lab not in open_classes)

    @pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 1.0])
    def test_mask_matches_the_per_label_loop(self, gamma):
        ds = toy_dataset(n=5000, classes=7, seed=3)
        classes = np.unique(ds.labels)
        open_set = set(classes[:int(np.ceil(gamma * len(classes)))].tolist())
        loop = np.array([lab not in open_set for lab in ds.labels.tolist()])
        flagged = flag_sensitive_by_class(ds, gamma).sensitive
        assert flagged.dtype == bool and np.array_equal(flagged, loop)

    def test_bad_gamma_rejected(self):
        with pytest.raises(ConfigError):
            flag_sensitive_by_class(toy_dataset(), 1.5)
