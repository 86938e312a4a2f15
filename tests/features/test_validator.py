"""Tests for the ACFG semantic-invariant validator and projector."""

import numpy as np
import pytest

import repro.features.acfg as acfg_module
from repro.cfg.builder import build_cfg_from_text
from repro.exceptions import FeatureExtractionError
from repro.features.acfg import ACFG
from repro.features.attributes import attribute_names
from repro.features.validator import (
    is_semantically_valid,
    project_attributes,
    semantic_violations,
    validate_attributes,
)

from tests.conftest import SAMPLE_ASM


def names():
    return attribute_names()


def index_of(channel):
    return names().index(channel)


def valid_matrix(num_vertices=3):
    """A hand-built attribute matrix (of a chain) satisfying every invariant."""
    degrees = np.ones(num_vertices, dtype=np.int64)
    degrees[-1] = 0
    attributes = np.zeros((num_vertices, len(names())))
    attributes[:, index_of("mov_instructions")] = 2.0
    attributes[:, index_of("arithmetic_instructions")] = 1.0
    attributes[:, index_of("total_instructions")] = 4.0
    attributes[:, index_of("vertex_instructions")] = 4.0
    attributes[:, index_of("offspring")] = degrees
    return attributes, degrees


class TestViolationCatalogue:
    def test_valid_matrix_has_no_violations(self):
        attributes, degrees = valid_matrix()
        assert semantic_violations(attributes, degrees) == []
        assert is_semantically_valid(attributes, degrees)
        validate_attributes(attributes, degrees, name="ok")

    def test_negative_count(self):
        attributes, degrees = valid_matrix()
        attributes[0, index_of("mov_instructions")] = -1.0
        found = semantic_violations(attributes, degrees)
        assert any("negative" in v.detail for v in found)

    def test_fractional_count(self):
        attributes, degrees = valid_matrix()
        attributes[1, index_of("numeric_constants")] = 0.5
        found = semantic_violations(attributes, degrees)
        assert any("not an integer" in v.detail for v in found)

    def test_offspring_must_match_out_degree(self):
        attributes, degrees = valid_matrix()
        attributes[0, index_of("offspring")] += 1.0
        found = semantic_violations(attributes, degrees)
        assert any(v.channel == "offspring" for v in found)

    def test_vertex_instructions_must_equal_total(self):
        attributes, degrees = valid_matrix()
        attributes[2, index_of("vertex_instructions")] += 1.0
        found = semantic_violations(attributes, degrees)
        assert any(v.channel == "vertex_instructions" for v in found)

    def test_category_sum_bounded_by_total(self):
        attributes, degrees = valid_matrix()
        attributes[0, index_of("call_instructions")] = 10.0
        found = semantic_violations(attributes, degrees)
        assert any("category counts" in v.detail for v in found)

    def test_empty_block_rejected(self):
        attributes, degrees = valid_matrix()
        attributes[1, index_of("total_instructions")] = 0.0
        attributes[1, index_of("vertex_instructions")] = 0.0
        attributes[1, index_of("mov_instructions")] = 0.0
        attributes[1, index_of("arithmetic_instructions")] = 0.0
        found = semantic_violations(attributes, degrees)
        assert any("no instructions" in v.detail for v in found)

    def test_non_finite_short_circuits(self):
        attributes, degrees = valid_matrix()
        attributes[0, 0] = np.nan
        found = semantic_violations(attributes, degrees)
        assert len(found) == 1
        assert "not finite" in found[0].detail

    def test_validate_raises_with_vertex_and_channel(self):
        attributes, degrees = valid_matrix()
        attributes[0, index_of("offspring")] += 2.0
        with pytest.raises(FeatureExtractionError, match="offspring"):
            validate_attributes(attributes, degrees, name="broken")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FeatureExtractionError):
            semantic_violations(np.zeros((2, 3)), np.zeros((2, 2)))


class TestProjector:
    def test_projection_output_is_valid(self, rng):
        _, degrees = valid_matrix(4)
        noisy = rng.normal(0.0, 3.0, (4, len(names())))
        projected = project_attributes(noisy, degrees)
        assert is_semantically_valid(projected, degrees)

    def test_idempotent(self, rng):
        _, degrees = valid_matrix(4)
        noisy = rng.normal(0.0, 3.0, (4, len(names())))
        once = project_attributes(noisy, degrees)
        twice = project_attributes(once, degrees)
        np.testing.assert_array_equal(once, twice)

    def test_valid_matrix_is_fixed_point(self):
        attributes, degrees = valid_matrix()
        projected = project_attributes(attributes, degrees)
        np.testing.assert_array_equal(projected, attributes)

    def test_non_finite_input_rejected(self):
        attributes, degrees = valid_matrix()
        attributes[0, 0] = np.inf
        with pytest.raises(FeatureExtractionError):
            project_attributes(attributes, degrees)

    def test_bounds_clamp_counts_into_box(self):
        attributes, degrees = valid_matrix()
        lower = attributes - 1.0
        upper = attributes + 1.0
        pushed = attributes.copy()
        pushed[:, index_of("mov_instructions")] += 5.0
        projected = project_attributes(
            pushed, degrees, lower=lower, upper=upper
        )
        # Clamped to the box ceiling (one above the original count).
        np.testing.assert_array_equal(
            projected[:, index_of("mov_instructions")],
            attributes[:, index_of("mov_instructions")] + 1.0,
        )
        assert is_semantically_valid(projected, degrees)

    def test_bounds_projection_idempotent(self, rng):
        attributes, degrees = valid_matrix(4)
        lower = attributes - 2.0
        upper = attributes + 2.0
        noisy = attributes + rng.normal(0.0, 4.0, attributes.shape)
        once = project_attributes(noisy, degrees, lower=lower, upper=upper)
        twice = project_attributes(once, degrees, lower=lower, upper=upper)
        np.testing.assert_array_equal(once, twice)

    def test_original_count_survives_tight_bounds(self):
        # The attack's box always contains the clean sample; projecting
        # the clean sample with a zero-width box must return it intact.
        attributes, degrees = valid_matrix()
        projected = project_attributes(
            attributes, degrees, lower=attributes, upper=attributes
        )
        np.testing.assert_array_equal(projected, attributes)


class TestExtractionBoundary:
    def test_extracted_acfg_passes_validator(self):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        acfg = ACFG.from_cfg(cfg, label=0)
        assert is_semantically_valid(acfg.attributes, acfg.out_degrees())

    def test_from_cfg_rejects_corrupt_extraction(self, monkeypatch):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        clean = acfg_module.extract_attribute_matrix(cfg)
        corrupt = clean.copy()
        corrupt[:, index_of("offspring")] += 1.0

        monkeypatch.setattr(
            acfg_module, "extract_attribute_matrix", lambda _: corrupt
        )
        with pytest.raises(FeatureExtractionError, match="offspring"):
            ACFG.from_cfg(cfg, label=0)
