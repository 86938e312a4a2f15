"""Tests for the Program address map."""

import pytest

from repro.asm.instruction import Instruction
from repro.asm.program import Program
from repro.cfg.builder import connect_columns
from repro.exceptions import AsmParseError


def make_program(addresses):
    return Program(
        Instruction(address=a, mnemonic="nop", size=1) for a in addresses
    )


class TestProgramBasics:
    def test_len_and_contains(self):
        program = make_program([0x10, 0x11, 0x12])
        assert len(program) == 3
        assert 0x11 in program
        assert 0x13 not in program

    def test_duplicate_address_rejected(self):
        with pytest.raises(AsmParseError, match="0x10"):
            Program([
                Instruction(address=0x10, mnemonic="nop"),
                Instruction(address=0x10, mnemonic="mov"),
            ])

    def test_iteration_sorted_regardless_of_insertion_order(self):
        program = make_program([0x30, 0x10, 0x20])
        assert [inst.address for inst in program] == [0x10, 0x20, 0x30]

    def test_getitem_and_get(self):
        program = make_program([0x10])
        assert program[0x10].address == 0x10
        assert program.get(0x99) is None
        with pytest.raises(KeyError):
            program[0x99]

    def test_first_of_empty_is_none(self):
        assert Program().first() is None

    def test_first(self):
        program = make_program([0x30, 0x10])
        assert program.first().address == 0x10

    def test_columns_follow_the_gap_rule(self):
        program = Program([
            Instruction(address=0x100, mnemonic="MOV", operands=["eax", "[ebx, 4]"], size=1),
            Instruction(address=0x10, mnemonic="nop", size=1),
            Instruction(address=0x14, mnemonic="retn", size=0),
        ])
        assert program.addresses.tolist() == [0x10, 0x14, 0x100]
        assert program.sizes.tolist() == [4, 0xEC, 1]
        assert program.mnemonics == ["nop", "retn", "mov"]
        assert program.operands == ["", "", "eax, [ebx, 4]"]
        assert program[0x100].operands == ["eax", "[ebx, 4]"]


def resolver(operand):
    if operand.startswith("loc_"):
        return int(operand[4:], 16)
    return None


def columns_graph(rows):
    """``connect_columns`` over rows of (address, mnemonic, operands)."""
    program = Program(
        Instruction(address=a, mnemonic=m, operands=list(ops), size=1)
        for a, m, ops in rows
    )
    return connect_columns(program, resolver)


class TestNextInstruction:
    """``getNextInst``: the next row of the program, as CFG construction reads it."""

    def test_contiguous(self):
        graph = columns_graph([(0x10, "jz", ["loc_12"]), (0x11, "nop", []), (0x12, "nop", [])])
        assert graph.edges() == [(0x10, 0x11), (0x10, 0x12), (0x11, 0x12)]

    def test_gap_between_sections(self):
        graph = columns_graph([(0x10, "call", ["eax"]), (0x100, "nop", [])])
        assert graph.starts.tolist() == [0x10, 0x100]
        assert graph.edges() == [(0x10, 0x100)]

    def test_last_instruction_has_no_next(self):
        graph = columns_graph([(0x10, "nop", []), (0x11, "jnz", ["loc_10"])])
        assert graph.num_vertices == 1
        assert graph.edges() == [(0x10, 0x10)]


class TestNearestAtOrAfter:
    """A branch target resolves to the instruction at or after it."""

    def test_exact_hit(self):
        graph = columns_graph([(0x10, "jmp", ["loc_20"]), (0x11, "nop", []), (0x20, "nop", [])])
        assert (0x10, 0x20) in graph.edges()
        assert graph.starts.tolist() == [0x10, 0x11, 0x20]

    def test_snaps_forward(self):
        graph = columns_graph([(0x10, "jmp", ["loc_15"]), (0x20, "nop", [])])
        assert graph.edges() == [(0x10, 0x20)]

    def test_past_the_end_is_none(self):
        graph = columns_graph([(0x10, "jmp", ["loc_999"]), (0x11, "nop", [])])
        assert graph.num_vertices == 2
        assert graph.edges() == []
