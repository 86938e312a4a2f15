"""Tests for the Instruction model."""

import re

from hypothesis import given, settings, strategies as st

from repro.asm.instruction import Instruction, count_numeric_constants
from repro.asm.isa import ControlFlowKind, InstructionCategory


class TestInstructionBasics:
    def test_mnemonic_lowercased(self):
        inst = Instruction(address=0x1000, mnemonic="MOV")
        assert inst.mnemonic == "mov"

    def test_next_address(self):
        inst = Instruction(address=0x1000, mnemonic="mov", size=3)
        assert inst.next_address == 0x1003

    def test_default_tags_unset(self):
        # Algorithm 1's tags are arrays inside CFG construction, so an
        # instruction shared by two builds carries nothing from the first.
        inst = Instruction(address=0x1000, mnemonic="mov")
        for tag in ("start", "branch_to", "fall_through", "is_return"):
            assert not hasattr(inst, tag)

    def test_category_and_flow_kind_delegate_to_isa(self):
        inst = Instruction(address=0, mnemonic="jnz", operands=["loc_10"])
        assert inst.category is InstructionCategory.TRANSFER
        assert inst.flow_kind is ControlFlowKind.CONDITIONAL_JUMP


class TestNumericConstants:
    def test_decimal_constant(self):
        inst = Instruction(address=0, mnemonic="mov", operands=["eax", "42"])
        assert inst.count_numeric_constants() == 1

    def test_hex_constants_both_styles(self):
        inst = Instruction(address=0, mnemonic="cmp", operands=["eax", "0x1F"])
        assert inst.count_numeric_constants() == 1
        inst = Instruction(address=0, mnemonic="cmp", operands=["eax", "1Fh"])
        assert inst.count_numeric_constants() == 1

    def test_register_is_not_a_constant(self):
        inst = Instruction(address=0, mnemonic="mov", operands=["eax", "ebx"])
        assert inst.count_numeric_constants() == 0

    def test_memory_operand_with_displacement(self):
        inst = Instruction(
            address=0, mnemonic="mov", operands=["eax", "[ebp+8]"]
        )
        assert inst.count_numeric_constants() == 1

    def test_multiple_constants_counted(self):
        inst = Instruction(
            address=0, mnemonic="imul", operands=["eax", "[esi+4]", "0x10"]
        )
        assert inst.count_numeric_constants() == 2

    def test_symbolic_name_not_counted(self):
        inst = Instruction(address=0, mnemonic="jmp", operands=["loc_401000"])
        assert inst.count_numeric_constants() == 0

    def test_no_operands(self):
        inst = Instruction(address=0, mnemonic="retn")
        assert inst.count_numeric_constants() == 0

    def test_high_byte_registers_are_not_constants(self):
        inst = Instruction(address=0, mnemonic="mov", operands=["al", "ah"])
        assert inst.count_numeric_constants() == 0
        inst = Instruction(
            address=0, mnemonic="mov", operands=["dl", "byte ptr [eax+ch]"]
        )
        assert inst.count_numeric_constants() == 0

    @given(st.text(alphabet="0123456789abcdefhxAFH.,_ []+-\u0663", max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_counts_the_plain_literal_rule(self, text):
        """Property: the digit-led pattern counts what the plain rule does."""
        plain = re.compile(
            r"(?<![\w.])(?:0x[0-9a-fA-F]+|[0-9][0-9a-fA-F]*h|\d+)(?![\w.])"
        )
        assert count_numeric_constants(text) == len(plain.findall(text))

    def test_h_suffixed_literals_start_with_a_digit(self):
        inst = Instruction(address=0, mnemonic="cmp", operands=["al", "0FFh"])
        assert inst.count_numeric_constants() == 1
        inst = Instruction(address=0, mnemonic="cmp", operands=["eax", "1Fh"])
        assert inst.count_numeric_constants() == 1


class TestOperandText:
    def test_join(self):
        inst = Instruction(address=0, mnemonic="mov", operands=["eax", "ebx"])
        assert inst.operand_text() == "eax, ebx"

    def test_empty(self):
        assert Instruction(address=0, mnemonic="retn").operand_text() == ""
