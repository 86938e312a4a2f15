"""Tests for dataset caching."""

import json
import os

import numpy as np
import pytest

from repro.datasets.cache import load_dataset, save_dataset
from repro.datasets.loader import MalwareDataset
from repro.exceptions import DatasetError


def subset(dataset, count):
    return MalwareDataset(
        acfgs=list(dataset.acfgs[:count]),
        family_names=dataset.family_names,
        name=dataset.name,
    )


class TestCacheRoundTrip:
    def test_roundtrip_preserves_everything(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(tiny_mskcfg, directory)
        restored = load_dataset(directory)

        assert restored.family_names == tiny_mskcfg.family_names
        assert restored.name == tiny_mskcfg.name
        assert len(restored) == len(tiny_mskcfg)
        for original, reloaded in zip(tiny_mskcfg.acfgs, restored.acfgs):
            assert reloaded.label == original.label
            assert reloaded.name == original.name
            np.testing.assert_array_equal(reloaded.edges, original.edges)
            np.testing.assert_allclose(reloaded.attributes, original.attributes)

    def test_loaded_dataset_trains(self, tiny_mskcfg, tmp_path):
        from repro.core.dgcnn import ModelConfig
        from repro.core.magic import Magic
        from repro.train.trainer import TrainingConfig

        directory = str(tmp_path / "corpus")
        save_dataset(tiny_mskcfg, directory)
        restored = load_dataset(directory)
        magic = Magic(
            ModelConfig(num_attributes=11, num_classes=9,
                        pooling="sort_weighted", graph_conv_sizes=(6, 6),
                        sort_k=4, hidden_size=8, seed=0),
            restored.family_names,
        )
        magic.fit(restored.acfgs,
                  training_config=TrainingConfig(epochs=1, batch_size=16))
        assert magic.predict(restored.acfgs[:3]).shape == (3,)


class TestCacheFailures:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(str(tmp_path))

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(DatasetError):
            load_dataset(str(tmp_path))

    def test_missing_sample_file(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(tiny_mskcfg, directory)
        os.remove(os.path.join(directory, "000000.acfg"))
        with pytest.raises(DatasetError):
            load_dataset(directory)


class TestStaleFileRegression:
    def test_smaller_save_leaves_no_orphans(self, tiny_mskcfg, tmp_path):
        # Regression: saving 5 samples over a 10-sample cache used to
        # leave records 000005-000009 behind, and a later manifest loss
        # or hand edit could resurrect them.
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 10), directory)
        save_dataset(subset(tiny_mskcfg, 5), directory)
        records = [f for f in os.listdir(directory) if f.endswith(".acfg")]
        assert len(records) == 5
        assert len(load_dataset(directory)) == 5

    def test_overwrite_leaves_no_temp_directories(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 4), directory)
        save_dataset(subset(tiny_mskcfg, 2), directory)
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []

    def test_failed_save_preserves_old_cache(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        poisoned = subset(tiny_mskcfg, 2)
        poisoned.acfgs[1] = None  # save will crash mid-staging
        with pytest.raises(AttributeError):
            save_dataset(poisoned, directory)
        assert len(load_dataset(directory)) == 3
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []


class TestIntegrityVerification:
    def test_manifest_carries_version_and_checksums(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        manifest = json.load(open(os.path.join(directory, "manifest.json")))
        assert manifest["format_version"] == 2
        for record in manifest["samples"]:
            assert len(record["sha256"]) == 64

    def test_corrupt_record_named_in_error(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        victim = os.path.join(directory, "000001.acfg")
        with open(victim, "a") as handle:
            handle.write("tampered\n")
        with pytest.raises(DatasetError, match="000001.acfg"):
            load_dataset(directory)

    def test_legacy_manifest_loads_with_warning(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        del manifest["format_version"]
        for record in manifest["samples"]:
            del record["sha256"]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.warns(UserWarning, match="legacy"):
            restored = load_dataset(directory)
        assert len(restored) == 3

    def test_unknown_format_version_rejected(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 2), directory)
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["format_version"] = 99
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(DatasetError, match="format_version"):
            load_dataset(directory)


class TestLabelValidation:
    def rewrite_label(self, directory, value):
        manifest_path = os.path.join(directory, "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["samples"][0]["label"] = value
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        return manifest["samples"][0]["name"]

    def test_out_of_range_label_rejected(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        name = self.rewrite_label(directory, len(tiny_mskcfg.family_names))
        with pytest.raises(DatasetError, match=name):
            load_dataset(directory)

    def test_negative_label_rejected(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        self.rewrite_label(directory, -1)
        with pytest.raises(DatasetError, match="label"):
            load_dataset(directory)

    def test_non_integer_label_rejected(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        self.rewrite_label(directory, "2")
        with pytest.raises(DatasetError, match="non-integer"):
            load_dataset(directory)

    def test_boolean_label_rejected(self, tiny_mskcfg, tmp_path):
        directory = str(tmp_path / "corpus")
        save_dataset(subset(tiny_mskcfg, 3), directory)
        self.rewrite_label(directory, True)
        with pytest.raises(DatasetError, match="non-integer"):
            load_dataset(directory)
