"""Tests for the .asm listing parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.instruction import split_operands
from repro.asm.parser import AsmParser
from repro.exceptions import AsmParseError


class TestBasicParsing:
    def test_ida_style_line(self):
        program = AsmParser().parse(".text:00401000 push ebp\n")
        inst = program[0x401000]
        assert inst.mnemonic == "push"
        assert inst.operands == ["ebp"]

    def test_plain_hex_address(self):
        program = AsmParser().parse("00401000: mov eax, ebx\n")
        assert program[0x401000].operands == ["eax", "ebx"]

    def test_0x_prefixed_address(self):
        program = AsmParser().parse("0x401000 mov eax, 0x5\n")
        assert 0x401000 in program

    def test_encoded_bytes_consumed(self):
        program = AsmParser().parse(".text:00401000 55 8B EC push ebp\n")
        inst = program[0x401000]
        assert inst.mnemonic == "push"

    def test_comment_stripped(self):
        program = AsmParser().parse(".text:00401000 push ebp ; prologue\n")
        assert program[0x401000].operands == ["ebp"]

    def test_blank_lines_skipped(self):
        program = AsmParser().parse("\n\n.text:00401000 nop\n\n")
        assert len(program) == 1

    def test_sizes_normalized_to_address_gaps(self):
        text = (
            ".text:00401000 push ebp\n"
            ".text:00401003 mov eax, ebx\n"
            ".text:00401008 retn\n"
        )
        program = AsmParser().parse(text)
        assert program[0x401000].size == 3
        assert program[0x401003].size == 5
        assert program[0x401008].size >= 1

    def test_duplicate_addresses_keep_first(self):
        text = (
            ".text:00401000 push ebp\n"
            ".text:00401000 db 0x90\n"
        )
        program = AsmParser().parse(text)
        assert len(program) == 1
        assert program[0x401000].mnemonic == "push"

    def test_memory_operand_not_split(self):
        program = AsmParser().parse(".text:00401000 mov eax, [ebp+8]\n")
        assert program[0x401000].operands == ["eax", "[ebp+8]"]

    @given(st.text(alphabet="ab ,()[]{}", max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_operand_split_matches_a_character_walk(self, rest):
        """Property: splitting by comma piece equals a per-character walk."""
        operands, depth, current = [], 0, ""
        for ch in rest:
            if ch in "([{":
                depth += 1
            elif ch in ")]}":
                depth -= 1
            if ch == "," and depth == 0:
                operands.append(current.strip())
                current = ""
            else:
                current += ch
        operands.append(current.strip())
        assert split_operands(rest) == [op for op in operands if op]


class TestLabels:
    def test_label_attaches_to_next_instruction(self):
        parser = AsmParser()
        parser.parse("start:\n.text:00401000 nop\n")
        assert parser.labels["start"] == 0x401000

    def test_label_resolution_in_targets(self):
        parser = AsmParser()
        parser.parse("mylabel:\n.text:00401000 nop\n")
        assert parser.resolve_target("mylabel") == 0x401000


class TestResolveTarget:
    def test_loc_symbolic(self):
        assert AsmParser().resolve_target("loc_401010") == 0x401010

    def test_sub_symbolic(self):
        assert AsmParser().resolve_target("sub_40AB00") == 0x40AB00

    def test_short_prefix(self):
        assert AsmParser().resolve_target("short loc_401010") == 0x401010

    def test_hex_literal(self):
        assert AsmParser().resolve_target("0x401010") == 0x401010
        assert AsmParser().resolve_target("401010h") == 0x401010

    def test_bare_hex(self):
        assert AsmParser().resolve_target("00401010") == 0x401010

    def test_register_indirect_unresolvable(self):
        assert AsmParser().resolve_target("eax") is None
        assert AsmParser().resolve_target("[ebx+4]") is None

    def test_h_suffixed_target_starts_with_a_digit(self):
        assert AsmParser().resolve_target("0Ah") == 0x0A
        assert AsmParser().resolve_target("ah") is None
        assert AsmParser().resolve_target("dh") is None


class TestStrictMode:
    def test_strict_raises_on_garbage(self):
        with pytest.raises(AsmParseError):
            AsmParser(strict=True).parse("this is not assembly\n")

    def test_lenient_counts_skips(self):
        parser = AsmParser(strict=False)
        parser.parse("garbage line\n.text:00401000 nop\n")
        assert parser.skipped_lines == 1

    def test_error_carries_line_number(self):
        with pytest.raises(AsmParseError) as excinfo:
            AsmParser(strict=True).parse(".text:00401000 nop\n???\n")
        assert excinfo.value.line_number == 2


class TestRobustness:
    @given(st.text(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_lenient_parser_never_crashes(self, text):
        """Property: arbitrary input never raises in lenient mode."""
        AsmParser(strict=False).parse(text)

    def test_latin1_fallback_file(self, tmp_path):
        path = tmp_path / "weird.asm"
        path.write_bytes(b".text:00401000 nop ; caf\xe9\n")
        program = AsmParser().parse_file(str(path))
        assert 0x401000 in program
