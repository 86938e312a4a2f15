"""Tests for the two-pass CFG builder (Algorithms 1+2)."""

import pickle

import pytest

from repro.asm.parser import AsmParser
from repro.asm.program import Program
from repro.cfg.builder import CfgBuilder, build_cfg_from_text
from repro.exceptions import CfgConstructionError

from tests.conftest import SAMPLE_ASM, SAMPLE_BLOCK_STARTS, SAMPLE_EDGES


class TestSampleProgram:
    """The hand-written fixture with fully known ground truth."""

    def test_block_starts(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        assert [b.start_address for b in cfg.blocks()] == SAMPLE_BLOCK_STARTS

    def test_edges(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        assert set(cfg.edges()) == SAMPLE_EDGES

    def test_block_instruction_counts(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        counts = {b.start_address: len(b) for b in cfg.blocks()}
        assert counts == {
            0x401000: 4,  # push, mov, cmp, jz
            0x401009: 2,  # add, jmp
            0x40100E: 1,  # xor (unreachable)
            0x401012: 1,  # sub
            0x401015: 2,  # mov, retn
        }

    def test_every_instruction_in_exactly_one_block(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        addresses = [
            inst.address for block in cfg.blocks() for inst in block.instructions
        ]
        assert len(addresses) == len(set(addresses)) == 10

    def test_jmp_has_no_fall_through_edge(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        # Block at 0x401009 ends in jmp; must not connect to 0x40100E.
        assert (0x401009, 0x40100E) not in set(cfg.edges())


class TestEdgeCases:
    def test_empty_program_rejected(self):
        with pytest.raises(CfgConstructionError):
            CfgBuilder().build(Program())

    def test_single_instruction_program(self):
        cfg = build_cfg_from_text(".text:00401000 retn\n")
        assert cfg.num_vertices == 1
        assert cfg.num_edges == 0

    def test_straight_line_is_one_block(self):
        text = (
            ".text:00401000 push ebp\n"
            ".text:00401001 mov eax, ebx\n"
            ".text:00401002 retn\n"
        )
        cfg = build_cfg_from_text(text)
        assert cfg.num_vertices == 1
        assert len(cfg.entry_block()) == 3

    def test_self_loop(self):
        text = (
            "loc_401000:\n"
            ".text:00401000 dec eax\n"
            ".text:00401001 jnz loc_401000\n"
            ".text:00401002 retn\n"
        )
        cfg = build_cfg_from_text(text)
        edges = set(cfg.edges())
        assert (0x401000, 0x401000) in edges
        assert (0x401000, 0x401002) in edges

    def test_backward_loop(self):
        text = (
            ".text:00401000 xor ecx, ecx\n"
            "loc_401002:\n"
            ".text:00401002 inc ecx\n"
            ".text:00401003 cmp ecx, 0xA\n"
            ".text:00401006 jl loc_401002\n"
            ".text:00401008 retn\n"
        )
        cfg = build_cfg_from_text(text)
        starts = [b.start_address for b in cfg.blocks()]
        assert starts == [0x401000, 0x401002, 0x401008]
        assert (0x401002, 0x401002) in set(cfg.edges())

    def test_branch_to_external_address_dropped(self):
        # Jump to an address beyond the program: placeholder block is
        # created then pruned, leaving no dangling edge.
        text = (
            ".text:00401000 jmp loc_500000\n"
            ".text:00401002 retn\n"
        )
        cfg = build_cfg_from_text(text)
        assert all(b.start_address < 0x500000 for b in cfg.blocks())

    def test_call_creates_interprocedural_edge(self):
        text = (
            ".text:00401000 call sub_401010\n"
            ".text:00401005 retn\n"
            ".text:00401010 mov eax, 0x1\n"
            ".text:00401013 retn\n"
        )
        cfg = build_cfg_from_text(text)
        edges = set(cfg.edges())
        assert (0x401000, 0x401010) in edges
        assert (0x401000, 0x401005) in edges  # resumption fall-through

    def test_branch_into_middle_of_existing_run_splits_block(self):
        # A backward jump into the middle of a straight-line run must
        # split that run at the target.
        text = (
            ".text:00401000 mov eax, 0x1\n"
            ".text:00401003 add eax, 0x1\n"
            ".text:00401006 cmp eax, 0x5\n"
            ".text:00401009 jl loc_401003\n"
            ".text:0040100B retn\n"
        )
        cfg = build_cfg_from_text(text)
        starts = [b.start_address for b in cfg.blocks()]
        assert 0x401003 in starts
        assert (0x401000, 0x401003) in set(cfg.edges())

    def test_named_cfg(self):
        cfg = build_cfg_from_text(".text:00401000 retn\n", name="sample")
        assert cfg.name == "sample"


class TestInvariants:
    def test_no_empty_blocks_in_output(self, tiny_mskcfg):
        # Every CFG built by the full pipeline is free of empty blocks.
        for acfg in tiny_mskcfg.acfgs[:10]:
            assert acfg.num_vertices > 0

    def test_blocks_are_address_disjoint(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        spans = []
        for block in cfg.blocks():
            spans.append((block.start_address, block.end_address))
        spans.sort()
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2


#: The call from 0x401000's block is an edge only when calls are followed.
CALL_ASM = (
    ".text:00401000 push ebp\n"
    ".text:00401001 call sub_401010\n"
    ".text:00401006 retn\n"
    ".text:00401010 mov eax, 0x1\n"
    ".text:00401015 retn\n"
)


def graph_of(cfg):
    return cfg.name, cfg.blocks(), cfg.edges()


class TestRepeatedBuilds:
    def test_a_second_build_of_one_program_ignores_the_first(self):
        parser = AsmParser()
        program = parser.parse(CALL_ASM)
        first = CfgBuilder(parser.resolve_target, follow_calls=True).build(program)
        assert (0x401000, 0x401010) in first.edges()
        second = CfgBuilder(parser.resolve_target, follow_calls=False).build(program)
        fresh_parser = AsmParser()
        fresh = CfgBuilder(fresh_parser.resolve_target, follow_calls=False).build(
            fresh_parser.parse(CALL_ASM)
        )
        assert graph_of(second) == graph_of(fresh)
        assert (0x401000, 0x401010) not in second.edges()

    def test_pickling_keeps_blocks_and_edges(self):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        assert graph_of(pickle.loads(pickle.dumps(cfg))) == graph_of(cfg)
