"""Tests for the reference tagging pass (Algorithm 1)."""

from repro.asm.instruction import Instruction
from repro.asm.program import Program

from tests.reference_front_end import InstructionTagger


def make_program(rows):
    """rows: list of (address, mnemonic, operands)."""
    return Program(
        Instruction(address=a, mnemonic=m, operands=list(ops), size=1)
        for a, m, ops in rows
    )


def resolver(operand):
    if operand.startswith("loc_"):
        return int(operand[4:], 16)
    return None


class TestConditionalJump:
    """Algorithm 1: visitConditionalJump."""

    def test_branch_target_marked_start(self):
        program = make_program([
            (0x10, "jz", ["loc_12"]),
            (0x11, "nop", []),
            (0x12, "nop", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].branch_to == 0x12
        assert tags[0x12].start is True

    def test_fall_through_marked_start(self):
        program = make_program([
            (0x10, "jz", ["loc_12"]),
            (0x11, "nop", []),
            (0x12, "nop", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].fall_through is True
        assert tags[0x11].start is True

    def test_unresolvable_target_no_branch(self):
        program = make_program([
            (0x10, "jz", ["eax"]),
            (0x11, "nop", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].branch_to is None
        assert tags[0x10].fall_through is True


class TestUnconditionalJump:
    def test_no_fall_through(self):
        program = make_program([
            (0x10, "jmp", ["loc_12"]),
            (0x11, "nop", []),
            (0x12, "nop", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].fall_through is False
        assert tags[0x10].branch_to == 0x12

    def test_next_instruction_starts_new_block(self):
        program = make_program([
            (0x10, "jmp", ["loc_12"]),
            (0x11, "nop", []),
            (0x12, "nop", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x11].start is True


class TestCall:
    def test_call_branches_and_falls_through(self):
        program = make_program([
            (0x10, "call", ["loc_20"]),
            (0x11, "nop", []),
            (0x20, "retn", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].branch_to == 0x20
        assert tags[0x10].fall_through is True
        assert tags[0x20].start is True

    def test_follow_calls_disabled(self):
        program = make_program([
            (0x10, "call", ["loc_20"]),
            (0x11, "nop", []),
            (0x20, "retn", []),
        ])
        tags = InstructionTagger(resolver, follow_calls=False).tag(program)
        assert tags[0x10].branch_to is None
        assert tags[0x10].fall_through is True


class TestReturnAndTerminate:
    def test_return_tagged(self):
        program = make_program([
            (0x10, "retn", []),
            (0x11, "nop", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].is_return is True
        assert tags[0x10].fall_through is False
        assert tags[0x11].start is True

    def test_hlt_terminates(self):
        program = make_program([
            (0x10, "hlt", []),
            (0x11, "nop", []),
        ])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].fall_through is False


class TestGeneralTagging:
    def test_first_instruction_always_start(self):
        program = make_program([(0x10, "nop", []), (0x11, "nop", [])])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].start is True

    def test_sequential_instructions_fall_through(self):
        program = make_program([(0x10, "mov", ["eax", "ebx"]), (0x11, "nop", [])])
        tags = InstructionTagger(resolver).tag(program)
        assert tags[0x10].fall_through is True

    def test_branch_outside_program_keeps_target_address(self):
        program = make_program([(0x10, "jmp", ["loc_999"]), (0x11, "nop", [])])
        tags = InstructionTagger(resolver).tag(program)
        # Target address recorded even though no instruction lives there.
        assert tags[0x10].branch_to == 0x999
