"""Tests for Table I attribute extraction."""

import numpy as np
import pytest

from repro.cfg.builder import build_cfg_from_text
from repro.exceptions import FeatureExtractionError
from repro.features.attributes import (
    DEFAULT_ATTRIBUTES,
    attribute_names,
    extract_attribute_matrix,
    extract_block_attributes,
    num_attributes,
    register_attribute,
    unregister_attribute,
)

from tests.conftest import SAMPLE_ASM

IDX = {name: i for i, name in enumerate(DEFAULT_ATTRIBUTES)}


@pytest.fixture
def sample_cfg():
    return build_cfg_from_text(SAMPLE_ASM)


class TestTableOne:
    def test_eleven_default_attributes(self):
        assert len(DEFAULT_ATTRIBUTES) == 11
        assert num_attributes() >= 11

    def test_entry_block_attributes(self, sample_cfg):
        # Entry block: push ebp / mov ebp, esp / cmp eax, 0x5 / jz loc
        entry = sample_cfg.entry_block()
        vector = extract_block_attributes(entry, sample_cfg)
        assert vector[IDX["numeric_constants"]] == 1      # the 0x5
        assert vector[IDX["transfer_instructions"]] == 2  # push + jz
        assert vector[IDX["call_instructions"]] == 0
        assert vector[IDX["arithmetic_instructions"]] == 0
        assert vector[IDX["compare_instructions"]] == 1   # cmp
        assert vector[IDX["mov_instructions"]] == 1       # mov
        assert vector[IDX["termination_instructions"]] == 0
        assert vector[IDX["data_declaration_instructions"]] == 0
        assert vector[IDX["total_instructions"]] == 4
        assert vector[IDX["offspring"]] == 2              # two successors
        assert vector[IDX["vertex_instructions"]] == 4

    def test_exit_block_termination(self, sample_cfg):
        exit_block = sample_cfg.get_block(0x401015)  # mov / retn
        vector = extract_block_attributes(exit_block, sample_cfg)
        assert vector[IDX["termination_instructions"]] == 1
        assert vector[IDX["offspring"]] == 0

    def test_matrix_shape_and_order(self, sample_cfg):
        matrix = extract_attribute_matrix(sample_cfg)
        assert matrix.shape == (5, num_attributes())
        # Row 0 must be the entry block's attributes.
        np.testing.assert_array_equal(
            matrix[0],
            extract_block_attributes(sample_cfg.entry_block(), sample_cfg),
        )

    def test_matrix_nonnegative(self, sample_cfg):
        assert (extract_attribute_matrix(sample_cfg) >= 0).all()

    def test_empty_cfg_rejected(self):
        from repro.cfg.graph import ControlFlowGraph

        with pytest.raises(FeatureExtractionError):
            extract_attribute_matrix(ControlFlowGraph.from_blocks([]))


class TestExtensibility:
    """Section II-B: "more attributes can be conveniently added"."""

    def test_register_and_use_custom_attribute(self, sample_cfg):
        register_attribute("in_block_bytes", lambda b, g: float(b.end_address - b.start_address))
        try:
            names = attribute_names()
            assert names[-1] == "in_block_bytes"
            matrix = extract_attribute_matrix(sample_cfg)
            assert matrix.shape[1] == len(names)
        finally:
            unregister_attribute("in_block_bytes")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(FeatureExtractionError):
            register_attribute("offspring", lambda b, g: 0.0)

    def test_cannot_remove_builtin(self):
        with pytest.raises(FeatureExtractionError):
            unregister_attribute("offspring")

    def test_cannot_remove_unknown(self):
        with pytest.raises(FeatureExtractionError):
            unregister_attribute("does_not_exist")
