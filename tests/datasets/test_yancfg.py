"""Tests for the synthetic YANCFG corpus."""

import numpy as np
import pytest

from repro.datasets.yancfg import (
    LABEL_NOISE_PAIRS,
    YANCFG_FAMILIES,
    YANCFG_FAMILY_COUNTS,
    YANCFG_PROFILES,
    family_sample_counts,
    generate_yancfg_dataset,
)
from repro.exceptions import DatasetError


class TestFamilyTable:
    def test_thirteen_families_including_benign(self):
        assert len(YANCFG_FAMILIES) == 13
        assert "Benign" in YANCFG_FAMILIES

    def test_profiles_cover_families(self):
        assert set(YANCFG_PROFILES) == set(YANCFG_FAMILIES)

    def test_hupigon_is_largest(self):
        assert max(YANCFG_FAMILY_COUNTS, key=YANCFG_FAMILY_COUNTS.get) == "Hupigon"

    def test_confusable_pairs_exist(self):
        pairs = {(a, b) for a, b, _ in LABEL_NOISE_PAIRS}
        assert ("Rbot", "Sdbot") in pairs
        assert ("Ldpinch", "Lmir") in pairs


class TestGeneration:
    def test_dataset_structure(self, tiny_yancfg):
        assert tiny_yancfg.num_classes == 13
        assert len(tiny_yancfg) >= 52
        assert all(a.num_attributes == 11 for a in tiny_yancfg.acfgs)

    def test_deterministic(self):
        a = generate_yancfg_dataset(total=26, seed=2)
        b = generate_yancfg_dataset(total=26, seed=2)
        assert [x.label for x in a.acfgs] == [x.label for x in b.acfgs]
        np.testing.assert_array_equal(a.acfgs[0].edges, b.acfgs[0].edges)

    def test_too_small_rejected(self):
        with pytest.raises(DatasetError):
            generate_yancfg_dataset(total=5)

    def test_label_noise_swaps_within_pairs_only(self):
        clean = generate_yancfg_dataset(total=120, seed=4, label_noise=False)
        noisy = generate_yancfg_dataset(total=120, seed=4, label_noise=True)
        index_of = {name: i for i, name in enumerate(YANCFG_FAMILIES)}
        noise_sets = [
            {index_of[a], index_of[b]} for a, b, _ in LABEL_NOISE_PAIRS
        ]
        changed = 0
        for before, after in zip(clean.acfgs, noisy.acfgs):
            if before.label != after.label:
                changed += 1
                assert any(
                    {before.label, after.label} == pair for pair in noise_sets
                )
        assert changed > 0, "noise must actually flip some labels"

    def test_rbot_sdbot_profiles_are_near_duplicates(self):
        rbot = YANCFG_PROFILES["Rbot"]
        sdbot = YANCFG_PROFILES["Sdbot"]
        assert rbot.num_functions == sdbot.num_functions
        assert rbot.block_length == sdbot.block_length
        assert rbot.weight_mov == sdbot.weight_mov

    def test_minimum_per_family(self):
        counts = family_sample_counts(60, minimum_per_family=4)
        assert all(v >= 4 for v in counts.values())
