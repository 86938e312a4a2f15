"""Persistence and prediction across all three architectures."""

import numpy as np
import pytest

from repro.core.dgcnn import POOLING_TYPES, ModelConfig
from repro.core.magic import Magic
from repro.train.trainer import TrainingConfig

from tests.conftest import acfg_from_dense


def make_acfgs(rng, count=10, num_classes=3):
    acfgs = []
    for i in range(count):
        n = int(rng.integers(3, 8))
        acfgs.append(acfg_from_dense(
            adjacency=(rng.random((n, n)) < 0.3).astype(float),
            attributes=rng.standard_normal((n, 11)) + (i % num_classes),
            label=i % num_classes,
            name=f"s{i}",
        ))
    return acfgs


@pytest.mark.parametrize("pooling", POOLING_TYPES)
class TestAllArchitectures:
    def make_magic(self, pooling):
        config = ModelConfig(
            num_attributes=11, num_classes=3, pooling=pooling,
            graph_conv_sizes=(6, 6), sort_k=4, amp_grid=(2, 2),
            conv2d_channels=4, conv1d_channels=(4, 8), conv1d_kernel=3,
            hidden_size=8, dropout=0.1, seed=0,
        )
        return Magic(config, ["a", "b", "c"])

    def test_fit_predict_save_load(self, pooling, rng, tmp_path):
        magic = self.make_magic(pooling)
        acfgs = make_acfgs(rng)
        magic.fit(acfgs, training_config=TrainingConfig(epochs=1, batch_size=5))
        predictions = magic.predict(acfgs[:4])
        assert predictions.shape == (4,)

        directory = str(tmp_path / pooling)
        magic.save(directory)
        restored = Magic.load(directory)
        assert restored.model_config.pooling == pooling
        np.testing.assert_allclose(
            magic.predict_proba(acfgs[:4]),
            restored.predict_proba(acfgs[:4]),
            atol=1e-12,
        )

    def test_config_flags_survive_roundtrip(self, pooling, rng, tmp_path):
        magic = self.make_magic(pooling)
        acfgs = make_acfgs(rng, count=6)
        magic.fit(acfgs, training_config=TrainingConfig(epochs=1, batch_size=6))
        directory = str(tmp_path / f"{pooling}-flags")
        magic.save(directory)
        restored = Magic.load(directory)
        assert restored.model_config.normalize_propagation is True
        assert restored.model_config.graph_conv_sizes == (6, 6)

    def test_retired_flag_not_persisted(self, pooling, rng, tmp_path):
        """New saves must not record the retired batching flag."""
        import json
        import os

        magic = self.make_magic(pooling)
        acfgs = make_acfgs(rng, count=6)
        magic.fit(acfgs, training_config=TrainingConfig(epochs=1, batch_size=6))
        directory = str(tmp_path / f"{pooling}-retired")
        magic.save(directory)
        with open(os.path.join(directory, "magic.json")) as fh:
            meta = json.load(fh)
        assert "use_batched_propagation" not in meta["model_config"]

    def test_legacy_save_with_retired_flag_loads(self, pooling, rng, tmp_path):
        """Archives persisted before the batch-first refactor still load."""
        import json
        import os
        import warnings

        magic = self.make_magic(pooling)
        acfgs = make_acfgs(rng, count=6)
        magic.fit(acfgs, training_config=TrainingConfig(epochs=1, batch_size=6))
        directory = str(tmp_path / f"{pooling}-legacy")
        magic.save(directory)
        meta_path = os.path.join(directory, "magic.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["model_config"]["use_batched_propagation"] = False
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the legacy key must load quietly
            restored = Magic.load(directory)
        np.testing.assert_allclose(
            magic.predict_proba(acfgs[:3]),
            restored.predict_proba(acfgs[:3]),
            atol=1e-12,
        )
