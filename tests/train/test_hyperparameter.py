"""Tests for the Table II hyper-parameter grid and grid search."""

import pytest

from repro.core.dgcnn import (
    POOLING_ADAPTIVE,
    POOLING_SORT_CONV1D,
    POOLING_SORT_WEIGHTED,
)
from repro.datasets.loader import MalwareDataset
from repro.exceptions import ConfigurationError
from repro.train.hyperparameter import (
    GridSearch,
    HyperparameterSetting,
    amp_grid_from_ratio,
    setting_to_model_config,
    table2_grid,
)

from tests.conftest import acfg_from_dense


class TestTable2Grid:
    def test_grid_covers_all_architectures(self):
        grid = table2_grid()
        by_pooling = {}
        for setting in grid:
            by_pooling.setdefault(setting.pooling, []).append(setting)
        assert set(by_pooling) == {
            POOLING_ADAPTIVE,
            POOLING_SORT_CONV1D,
            POOLING_SORT_WEIGHTED,
        }

    def test_architecture_counts_match_structure(self):
        """2 ratios x sizes x arch-specific x 2 dropout x 2 batch x 2 L2."""
        grid = table2_grid()
        counts = {}
        for setting in grid:
            counts[setting.pooling] = counts.get(setting.pooling, 0) + 1
        assert counts[POOLING_ADAPTIVE] == 2 * 2 * 2 * 8       # 64
        assert counts[POOLING_SORT_CONV1D] == 2 * 3 * 1 * 2 * 8  # 96
        assert counts[POOLING_SORT_WEIGHTED] == 2 * 3 * 8      # 48
        assert len(grid) == 208  # the paper's total

    def test_footnote_constraints(self):
        grid = table2_grid()
        for setting in grid:
            if setting.pooling == POOLING_ADAPTIVE:
                # (32,32,32,1) is sort-pooling-only (footnote 1).
                assert setting.graph_conv_sizes != (32, 32, 32, 1)
                assert setting.conv2d_channels in (16, 32)
                assert setting.conv1d_channels is None
            if setting.pooling == POOLING_SORT_CONV1D:
                assert setting.conv1d_channels == (16, 32)
                assert setting.conv1d_kernel in (5, 7)
                assert setting.conv2d_channels is None
            if setting.pooling == POOLING_SORT_WEIGHTED:
                assert setting.conv1d_channels is None
                assert setting.conv2d_channels is None

    def test_describe_is_informative(self):
        setting = table2_grid()[0]
        text = setting.describe()
        assert "pool=" in text and "batch=" in text


class TestAmpGrid:
    def test_ratio_mapping(self):
        assert amp_grid_from_ratio(0.2) == (2, 2)
        assert amp_grid_from_ratio(0.3) == (3, 3)
        assert amp_grid_from_ratio(0.64) == (6, 6)

    def test_floor_at_two(self):
        assert amp_grid_from_ratio(0.01) == (2, 2)


class TestSettingToModelConfig:
    def test_sort_pooling_k_resolved_from_sizes(self):
        setting = HyperparameterSetting(
            pooling=POOLING_SORT_WEIGHTED,
            pooling_ratio=0.64,
            graph_conv_sizes=(8, 8),
        )
        config = setting_to_model_config(
            setting, num_attributes=11, num_classes=3,
            graph_sizes=list(range(1, 101)),
        )
        assert config.sort_k == 64
        assert config.pooling == POOLING_SORT_WEIGHTED

    def test_adaptive_grid_resolved_from_ratio(self):
        setting = HyperparameterSetting(
            pooling=POOLING_ADAPTIVE,
            pooling_ratio=0.2,
            graph_conv_sizes=(8, 8),
            conv2d_channels=16,
        )
        config = setting_to_model_config(
            setting, num_attributes=11, num_classes=3, graph_sizes=[5, 10]
        )
        assert config.amp_grid == (2, 2)
        assert config.conv2d_channels == 16


class TestFullGridConvertibility:
    def test_every_table2_setting_builds_a_model_config(self):
        """All 208 grid points must resolve into valid ModelConfigs."""
        sizes = [5, 10, 20, 40, 80]
        for setting in table2_grid():
            config = setting_to_model_config(
                setting, num_attributes=11, num_classes=9, graph_sizes=sizes
            )
            assert config.num_classes == 9
            if setting.pooling == POOLING_ADAPTIVE:
                assert config.amp_grid[0] >= 2
            else:
                assert config.sort_k >= 2

    def test_every_setting_builds_a_model(self):
        """Spot-check actual model construction across the grid."""
        from repro.core.dgcnn import build_model

        sizes = [5, 10, 20]
        for setting in table2_grid()[::25]:  # sampled: construction is slow
            config = setting_to_model_config(
                setting, num_attributes=11, num_classes=4,
                graph_sizes=sizes, hidden_size=8,
            )
            model = build_model(config)
            assert model.num_parameters() > 0


class TestGridSearch:
    def make_dataset(self, rng, n_per_class=6):
        acfgs = []
        for label in (0, 1):
            for i in range(n_per_class):
                n = int(rng.integers(3, 7))
                adjacency = (rng.random((n, n)) < 0.3).astype(float)
                attributes = rng.standard_normal((n, 11)) + 2.0 * label
                acfgs.append(
                    acfg_from_dense(adjacency=adjacency, attributes=attributes,
                                    label=label, name=f"{label}_{i}")
                )
        return MalwareDataset(acfgs=acfgs, family_names=["a", "b"])

    def test_search_ranks_settings(self, rng):
        dataset = self.make_dataset(rng)
        settings = [
            HyperparameterSetting(
                pooling=POOLING_SORT_WEIGHTED, pooling_ratio=0.64,
                graph_conv_sizes=(6, 6), dropout=0.0, batch_size=6,
            ),
            HyperparameterSetting(
                pooling=POOLING_ADAPTIVE, pooling_ratio=0.2,
                graph_conv_sizes=(6, 6), conv2d_channels=4,
                dropout=0.0, batch_size=6,
            ),
        ]
        progress_calls = []
        search = GridSearch(
            dataset, epochs=2, n_splits=2, hidden_size=8,
            progress=lambda i, n, s, score: progress_calls.append((i, n)),
        )
        result = search.run(settings)
        assert len(result.entries) == 2
        assert result.best in result.entries
        ranking = result.ranking()
        assert ranking[0].score <= ranking[1].score
        assert progress_calls == [(1, 2), (2, 2)]

    def test_dataset_too_small_rejected(self, rng):
        dataset = self.make_dataset(rng, n_per_class=1)
        with pytest.raises(ConfigurationError):
            GridSearch(dataset, epochs=1, n_splits=5)
