"""Tests for the extra attributes a layout may append after Table I."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.asm.instruction import Instruction
from repro.cfg.builder import build_cfg_from_text
from repro.cfg.graph import ControlFlowGraph
from repro.datasets.mskcfg import MSKCFG_FAMILIES, generate_mskcfg_sample
from repro.datasets.synthetic_asm import ObfuscationKnobs
from repro.features.acfg import ACFG
from repro.features.attributes import (
    DEFAULT_ATTRIBUTES,
    EXTENDED_ATTRIBUTES,
    extract_attribute_matrix,
)

from tests.conftest import SAMPLE_ASM
from tests.reference_front_end import REFERENCE_EXTRAS, reference_extras

EXTRAS = EXTENDED_ATTRIBUTES[len(DEFAULT_ATTRIBUTES):]
COLUMN = {name: i for i, name in enumerate(EXTENDED_ATTRIBUTES)}


def extended_acfg(text):
    return ACFG.from_cfg(build_cfg_from_text(text), layout=EXTENDED_ATTRIBUTES)


class TestLayout:
    def test_extended_layout_is_table_one_then_the_extras(self):
        assert EXTENDED_ATTRIBUTES[:len(DEFAULT_ATTRIBUTES)] == DEFAULT_ATTRIBUTES
        assert EXTRAS == tuple(REFERENCE_EXTRAS)

    def test_acfg_takes_the_layout_width(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        wide = ACFG.from_cfg(cfg, layout=EXTENDED_ATTRIBUTES)
        assert wide.num_attributes == len(EXTENDED_ATTRIBUTES)
        # A value, not state: the default stays Table I afterwards.
        assert ACFG.from_cfg(cfg).num_attributes == len(DEFAULT_ATTRIBUTES)
        np.testing.assert_array_equal(
            wide.attributes[:, :len(DEFAULT_ATTRIBUTES)],
            ACFG.from_cfg(cfg).attributes,
        )

    def test_a_subset_of_the_extras_keeps_their_columns(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        wide = extract_attribute_matrix(cfg, EXTENDED_ATTRIBUTES)
        layout = DEFAULT_ATTRIBUTES + ("mnemonic_entropy", "operand_count")
        np.testing.assert_array_equal(
            extract_attribute_matrix(cfg, layout),
            wide[:, [EXTENDED_ATTRIBUTES.index(name) for name in layout]],
        )


class TestExtendedValues:
    def test_in_degree(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        acfg = ACFG.from_cfg(cfg, layout=EXTENDED_ATTRIBUTES)
        # Block at 0x401015 has two predecessors (b1 and b3).
        row = cfg.vertex_index()[0x401015]
        assert acfg.attributes[row, COLUMN["in_degree"]] == 2.0  # repro: allow[float-equality] — exact by construction

    def test_mnemonic_entropy_bounds(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        acfg = ACFG.from_cfg(cfg, layout=EXTENDED_ATTRIBUTES)
        entropies = acfg.attributes[:, COLUMN["mnemonic_entropy"]]
        assert (entropies >= 0).all()
        # Entropy cannot exceed log2(block length).
        sizes = acfg.attributes[:, COLUMN["total_instructions"]]
        for size, entropy in zip(sizes, entropies):
            assert entropy <= math.log2(max(2, size))

    def test_repeated_mnemonics_have_zero_entropy(self):
        acfg = extended_acfg(
            ".text:00401000 nop\n.text:00401001 nop\n.text:00401002 nop\n"
        )
        np.testing.assert_allclose(
            acfg.attributes[:, COLUMN["mnemonic_entropy"]], 0.0
        )

    def test_unique_mnemonics_and_operands(self):
        acfg = extended_acfg(SAMPLE_ASM)
        entry_row = 0  # push/mov/cmp/jz: 4 unique, 1+2+2+1 = 6 operands
        assert acfg.attributes[entry_row, COLUMN["unique_mnemonics"]] == 4.0  # repro: allow[float-equality] — exact by construction
        assert acfg.attributes[entry_row, COLUMN["operand_count"]] == 6.0  # repro: allow[float-equality] — exact by construction


class TestInDegree:
    def test_graph_in_degree(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        column = extract_attribute_matrix(cfg, EXTENDED_ATTRIBUTES)[:, COLUMN["in_degree"]]
        vertex = cfg.vertex_index()
        assert column[vertex[0x401000]] == 0   # entry
        assert column[vertex[0x401015]] == 2   # join point
        assert column[vertex[0x401012]] == 2   # jz target + fall


# -- the columns against the per-block reference ----------------------------


@st.composite
def synthetic_listings(draw):
    knobs = ObfuscationKnobs(
        junk_probability=draw(st.none() | st.floats(0.0, 0.95)),
        dispatch_probability=draw(st.none() | st.floats(0.0, 0.6)),
    )
    return generate_mskcfg_sample(
        draw(st.sampled_from(MSKCFG_FAMILIES)), draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 2**16)), knobs=knobs,
    )[1]


class TestColumnsMatchTheReference:
    @settings(max_examples=40, deadline=None)
    @given(synthetic_listings())
    def test_every_extra_column_is_bit_identical(self, text):
        cfg = build_cfg_from_text(text)
        matrix = extract_attribute_matrix(cfg, EXTENDED_ATTRIBUTES)
        np.testing.assert_array_equal(
            matrix[:, len(DEFAULT_ATTRIBUTES):], reference_extras(cfg, EXTRAS)
        )

    def test_empty_and_operandless_blocks(self):
        cfg = ControlFlowGraph.from_blocks(
            [(0x10, []),
             (0x20, [Instruction(0x20, "nop", [], 1),
                     Instruction(0x21, "mov", ["eax", "[ebx+4]"], 3),
                     Instruction(0x24, "nop", [], 1)]),
             (0x30, [Instruction(0x30, "retn", [], 1)])],
            edges=[(0x10, 0x20), (0x20, 0x30), (0x30, 0x20)],
        )
        matrix = extract_attribute_matrix(cfg, EXTENDED_ATTRIBUTES)
        np.testing.assert_array_equal(
            matrix[:, len(DEFAULT_ATTRIBUTES):], reference_extras(cfg, EXTRAS)
        )
