"""Tests for Table I attribute extraction."""

import numpy as np
import pytest

from repro.cfg.builder import build_cfg_from_text
from repro.exceptions import FeatureExtractionError
from repro.features.attributes import (
    DEFAULT_ATTRIBUTES,
    EXTENDED_ATTRIBUTES,
    check_layout,
    extract_attribute_matrix,
)

from tests.conftest import SAMPLE_ASM

IDX = {name: i for i, name in enumerate(DEFAULT_ATTRIBUTES)}


@pytest.fixture
def sample_cfg():
    return build_cfg_from_text(SAMPLE_ASM)


def block_row(graph, start_address):
    return extract_attribute_matrix(graph)[graph.vertex_index()[start_address]]


class TestTableOne:
    def test_eleven_default_attributes(self):
        assert len(DEFAULT_ATTRIBUTES) == 11
        assert len(set(DEFAULT_ATTRIBUTES)) == 11

    def test_entry_block_attributes(self, sample_cfg):
        # Entry block: push ebp / mov ebp, esp / cmp eax, 0x5 / jz loc
        vector = block_row(sample_cfg, sample_cfg.entry_block().start_address)
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
        vector = block_row(sample_cfg, 0x401015)  # mov / retn
        assert vector[IDX["termination_instructions"]] == 1
        assert vector[IDX["offspring"]] == 0

    def test_matrix_shape_and_order(self, sample_cfg):
        matrix = extract_attribute_matrix(sample_cfg)
        assert matrix.shape == (5, len(DEFAULT_ATTRIBUTES))
        # Rows follow vertex order, ascending start address.
        assert sample_cfg.vertex_index()[sample_cfg.entry_block().start_address] == 0
        assert matrix[0, IDX["total_instructions"]] == 4  # the entry block

    def test_matrix_nonnegative(self, sample_cfg):
        assert (extract_attribute_matrix(sample_cfg) >= 0).all()

    def test_empty_cfg_rejected(self):
        from repro.cfg.graph import ControlFlowGraph

        with pytest.raises(FeatureExtractionError):
            extract_attribute_matrix(ControlFlowGraph.from_blocks([]))


class TestLayouts:
    """Section II-B: "more attributes can be conveniently added"."""

    def test_extended_layout_appends_channels(self, sample_cfg):
        matrix = extract_attribute_matrix(sample_cfg, EXTENDED_ATTRIBUTES)
        assert matrix.shape == (5, len(EXTENDED_ATTRIBUTES))
        np.testing.assert_array_equal(
            matrix[:, :len(DEFAULT_ATTRIBUTES)], extract_attribute_matrix(sample_cfg)
        )

    def test_every_ordered_subset_of_the_extras_is_a_layout(self):
        extras = EXTENDED_ATTRIBUTES[len(DEFAULT_ATTRIBUTES):]
        for mask in range(2 ** len(extras)):
            chosen = tuple(n for i, n in enumerate(extras) if mask >> i & 1)
            assert check_layout(list(DEFAULT_ATTRIBUTES + chosen)) == (
                DEFAULT_ATTRIBUTES + chosen
            )

    @pytest.mark.parametrize("layout", [
        DEFAULT_ATTRIBUTES + ("in_degree", "in_degree"),
        DEFAULT_ATTRIBUTES + ("operand_count", "in_degree"),
        DEFAULT_ATTRIBUTES + ("offspring",),
        DEFAULT_ATTRIBUTES + ("block_bytes",),
        DEFAULT_ATTRIBUTES[1:],
        DEFAULT_ATTRIBUTES[::-1],
        ("in_degree",) + DEFAULT_ATTRIBUTES,
        (),
    ], ids=["repeated", "reordered", "builtin-again", "unknown",
            "missing-builtin", "table-one-reordered", "extra-first", "empty"])
    def test_anything_else_is_rejected(self, sample_cfg, layout):
        with pytest.raises(FeatureExtractionError, match="layout"):
            check_layout(layout)
        with pytest.raises(FeatureExtractionError, match="layout"):
            extract_attribute_matrix(sample_cfg, layout)
