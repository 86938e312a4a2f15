"""Tests for the synthetic MSKCFG corpus."""

import numpy as np
import pytest

from repro.datasets.mskcfg import (
    MSKCFG_FAMILIES,
    MSKCFG_FAMILY_COUNTS,
    MSKCFG_PROFILES,
    family_sample_counts,
    generate_mskcfg_dataset,
    generate_mskcfg_listings,
    generate_mskcfg_sample,
)
from repro.datasets.synthetic_asm import ObfuscationKnobs
from repro.exceptions import DatasetError


class TestFamilyTable:
    def test_nine_families(self):
        assert len(MSKCFG_FAMILIES) == 9
        assert "Kelihos_ver3" in MSKCFG_FAMILIES
        assert "Obfuscator.ACY" in MSKCFG_FAMILIES

    def test_real_total_matches_paper(self):
        assert sum(MSKCFG_FAMILY_COUNTS.values()) == 10868

    def test_profile_for_every_family(self):
        assert set(MSKCFG_PROFILES) == set(MSKCFG_FAMILIES)


class TestSampleCounts:
    def test_proportions_preserved(self):
        counts = family_sample_counts(1000, minimum_per_family=1)
        # Kelihos_ver3 is the largest family in Figure 7.
        assert counts["Kelihos_ver3"] == max(counts.values())
        assert counts["Simda"] == min(counts.values())

    def test_minimum_floor(self):
        counts = family_sample_counts(50, minimum_per_family=4)
        assert all(v >= 4 for v in counts.values())


class TestDatasetGeneration:
    def test_dataset_structure(self, tiny_mskcfg):
        assert tiny_mskcfg.num_classes == 9
        assert tiny_mskcfg.family_names == MSKCFG_FAMILIES
        assert len(tiny_mskcfg) >= 36  # >= 4 per family
        assert all(a.label is not None for a in tiny_mskcfg.acfgs)
        assert all(a.num_attributes == 11 for a in tiny_mskcfg.acfgs)

    def test_deterministic(self):
        a = generate_mskcfg_dataset(total=20, seed=5)
        b = generate_mskcfg_dataset(total=20, seed=5)
        assert len(a) == len(b)
        np.testing.assert_array_equal(
            a.acfgs[0].attributes, b.acfgs[0].attributes
        )

    def test_too_small_total_rejected(self):
        with pytest.raises(DatasetError):
            generate_mskcfg_listings(total=3)

    def test_listings_carry_labels_in_family_order(self):
        listings = generate_mskcfg_listings(total=20, seed=0)
        labels = {label for _, _, label in listings}
        assert labels == set(range(9))

    def test_families_structurally_distinguishable(self, tiny_mskcfg):
        """Sanity: per-family mean graph size differs enough to learn from."""
        sizes_by_family = {}
        for acfg in tiny_mskcfg.acfgs:
            sizes_by_family.setdefault(acfg.label, []).append(acfg.num_vertices)
        means = [np.mean(v) for v in sizes_by_family.values()]
        assert max(means) > 2 * min(means)

    def test_parallel_extraction_matches(self):
        sequential = generate_mskcfg_dataset(total=20, seed=9, max_workers=1)
        parallel = generate_mskcfg_dataset(total=20, seed=9, max_workers=4)
        assert [a.name for a in sequential.acfgs] == [a.name for a in parallel.acfgs]
        for a, b in zip(sequential.acfgs, parallel.acfgs):
            np.testing.assert_array_equal(a.edges, b.edges)
            np.testing.assert_array_equal(a.attributes, b.attributes)


class TestSampleRegeneration:
    def test_sample_matches_corpus_entry_bit_for_bit(self):
        listings = generate_mskcfg_listings(total=18, seed=5,
                                            minimum_per_family=2)
        for entry in (listings[0], listings[-1]):
            name, _, label = entry
            family = MSKCFG_FAMILIES[label]
            index = int(name.rsplit("_", 1)[1])
            assert generate_mskcfg_sample(family, index, seed=5) == entry

    def test_unknown_family_rejected(self):
        with pytest.raises(DatasetError):
            generate_mskcfg_sample("NotAFamily", 0)

    def test_knobs_change_only_obfuscation(self):
        clean = generate_mskcfg_sample("Simda", 0, seed=5)
        junked = generate_mskcfg_sample(
            "Simda", 0, seed=5, knobs=ObfuscationKnobs(junk_probability=1.0)
        )
        assert junked[0] == clean[0] and junked[2] == clean[2]
        assert junked[1] != clean[1]
        # Junk insertion only adds instructions (addresses shift, but
        # the listing strictly grows).
        assert len(junked[1].splitlines()) > len(clean[1].splitlines())


class TestPerSampleKnobs:
    def test_override_targets_one_sample(self):
        baseline = generate_mskcfg_listings(total=18, seed=5,
                                            minimum_per_family=2)
        target = baseline[3][0]
        overridden = generate_mskcfg_listings(
            total=18, seed=5, minimum_per_family=2,
            per_sample_knobs={target: ObfuscationKnobs(junk_probability=1.0)},
        )
        for before, after in zip(baseline, overridden):
            if before[0] == target:
                assert after[1] != before[1]
            else:
                assert after == before

    def test_global_knobs_lose_to_per_sample(self):
        knobs = ObfuscationKnobs(junk_probability=1.0)
        listings = generate_mskcfg_listings(total=18, seed=5,
                                            minimum_per_family=2)
        target = listings[0][0]
        mixed = generate_mskcfg_listings(
            total=18, seed=5, minimum_per_family=2, knobs=knobs,
            per_sample_knobs={target: ObfuscationKnobs()},
        )
        # The per-sample empty override wins: sample 0 keeps profile
        # obfuscation while everything else gets the global junk knob.
        assert mixed[0] == listings[0]
