"""Tests for the dataset container and split machinery."""

import numpy as np
import pytest

from repro.datasets.loader import MalwareDataset
from repro.exceptions import DatasetError

from tests.conftest import acfg_from_dense


def make_dataset(labels, num_classes=3):
    acfgs = [
        acfg_from_dense(
            adjacency=np.zeros((2, 2)),
            attributes=np.full((2, 2), float(i)),
            label=label,
            name=f"s{i}",
        )
        for i, label in enumerate(labels)
    ]
    return MalwareDataset(
        acfgs=acfgs, family_names=[f"f{c}" for c in range(num_classes)]
    )


class TestValidation:
    def test_unlabelled_sample_rejected(self):
        acfg = acfg_from_dense(adjacency=np.zeros((1, 1)), attributes=np.zeros((1, 1)))
        with pytest.raises(DatasetError):
            MalwareDataset(acfgs=[acfg], family_names=["a", "b"])

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DatasetError):
            make_dataset([0, 5], num_classes=3)


class TestBasics:
    def test_len_getitem(self):
        ds = make_dataset([0, 1, 2])
        assert len(ds) == 3
        assert ds[1].label == 1

    def test_family_counts(self):
        ds = make_dataset([0, 0, 1, 2, 2, 2])
        assert ds.family_counts() == {"f0": 2, "f1": 1, "f2": 3}

    def test_labels_and_sizes(self):
        ds = make_dataset([2, 0])
        np.testing.assert_array_equal(ds.labels(), [2, 0])
        assert ds.graph_sizes() == [2, 2]

    def test_subset(self):
        ds = make_dataset([0, 1, 2])
        sub = ds.subset([2, 0])
        assert len(sub) == 2
        assert {a.label for a in sub.acfgs} == {0, 2}


class TestStratifiedSplit:
    def test_fraction_validated(self):
        ds = make_dataset([0, 1, 2])
        with pytest.raises(DatasetError):
            ds.stratified_split(0.0)
        with pytest.raises(DatasetError):
            ds.stratified_split(1.0)

    def test_partition_is_complete_and_disjoint(self):
        ds = make_dataset([0] * 10 + [1] * 6 + [2] * 4)
        train, test = ds.stratified_split(0.25, seed=1)
        names = sorted(a.name for a in train.acfgs + test.acfgs)
        assert names == sorted(a.name for a in ds.acfgs)
        assert not {a.name for a in train.acfgs} & {a.name for a in test.acfgs}

    def test_proportions_roughly_preserved(self):
        ds = make_dataset([0] * 40 + [1] * 20)
        train, test = ds.stratified_split(0.25, seed=0)
        test_counts = test.family_counts()
        assert test_counts["f0"] == 10
        assert test_counts["f1"] == 5

    def test_singleton_family_stays_in_train(self):
        ds = make_dataset([0] * 8 + [1])
        train, test = ds.stratified_split(0.25, seed=0)
        assert train.family_counts()["f1"] == 1


class TestKFold:
    def test_validates_splits(self):
        ds = make_dataset([0, 1])
        with pytest.raises(DatasetError):
            list(ds.stratified_kfold(n_splits=1))
        with pytest.raises(DatasetError):
            list(ds.stratified_kfold(n_splits=5))

    def test_folds_partition_dataset(self):
        ds = make_dataset([0] * 12 + [1] * 8 + [2] * 5)
        seen = []
        for train_idx, val_idx in ds.stratified_kfold(n_splits=5, seed=3):
            assert not set(train_idx) & set(val_idx)
            assert len(train_idx) + len(val_idx) == len(ds)
            seen.extend(val_idx)
        # Every sample appears in exactly one validation fold.
        assert sorted(seen) == list(range(len(ds)))

    def test_stratification(self):
        ds = make_dataset([0] * 10 + [1] * 5)
        for _, val_idx in ds.stratified_kfold(n_splits=5, seed=0):
            labels = ds.labels()[val_idx]
            assert (labels == 0).sum() == 2
            assert (labels == 1).sum() == 1

    def test_deterministic_for_seed(self):
        ds = make_dataset([0] * 10 + [1] * 10)
        a = list(ds.stratified_kfold(n_splits=5, seed=7))
        b = list(ds.stratified_kfold(n_splits=5, seed=7))
        assert a == b
