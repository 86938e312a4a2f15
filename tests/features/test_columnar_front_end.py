"""The columnar front end against the reference objects, listing by listing.

Serving and extraction turn listing text into an ACFG through
``AsmParser.parse``, ``CfgBuilder.build`` and ``ACFG.from_cfg``, which
for text run one regex scan (:meth:`AsmParser.scan`), Algorithms 1-2 as
array operations (:func:`connect_columns`) and one Table I pass over the
columns, with no per-instruction object.  The reference below walks the
same text the way the parser did before the scan: ``str.splitlines`` and
the per-line grammar for every line, one :class:`Instruction` per row,
then :class:`CfgBuilder` and :meth:`ACFG.from_cfg` over the objects.
Both must give the same ACFG bits, or the same failure kind and detail,
and the same :class:`Program`, labels, skipped lines and strict-mode
line numbers.
"""

import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.asm.instruction import Instruction
from repro.asm.parser import AsmParser, _split_operands
from repro.asm.program import Program
from repro.cfg.basic_block import BasicBlock
from repro.cfg.builder import CfgBuilder, build_cfg_from_text, connect_columns
from repro.cfg.graph import ControlFlowGraph
from repro.datasets.mskcfg import MSKCFG_FAMILIES, generate_mskcfg_sample
from repro.datasets.synthetic_asm import ObfuscationKnobs
from repro.exceptions import AsmParseError
from repro.features import acfg as acfg_module
from repro.features.acfg import ACFG
from repro.features.extra_attributes import (
    disable_extended_attributes,
    enable_extended_attributes,
)
from repro.features.pipeline import (
    FailureKind,
    WorkerContext,
    _guard_size,
    _worker_text,
    execute_unit,
)

from tests.asm.test_realistic_listing import REALISTIC
from tests.conftest import SAMPLE_ASM

# -- the reference: one line at a time, one object per instruction ---------


def reference_parse(text, strict=False):
    """``(parser, Program)`` from the per-line grammar over ``splitlines``."""
    parser = AsmParser(strict=strict)
    rows, pending = [], []
    for number, line in enumerate(text.splitlines(), start=1):
        row = parser._parse_line(line, number, pending)
        if row is None:
            continue
        for label in pending:
            parser.labels[label] = row[0]
        pending.clear()
        rows.append(row)
    first = {}
    for row in rows:
        first.setdefault(row[0], row)
    addresses = sorted(first)
    program = Program()
    for position, address in enumerate(addresses):
        _, mnemonic, operands, size = first[address]
        if position + 1 < len(addresses):
            size = addresses[position + 1] - address
        program.add(Instruction(address, mnemonic, _split_operands(operands), max(size, 1)))
    if addresses:
        for label in pending:
            parser.labels.setdefault(label, addresses[-1] + 1)
    return parser, program


def reference_worker(item, ctx):
    name, text, label = item
    parser, program = reference_parse(text)
    cfg = CfgBuilder(resolve_target=parser.resolve_target).build(program, name=name)
    _guard_size(name, cfg.num_vertices, ctx)
    return ACFG.from_cfg(cfg, label=label)


def rows_of(program):
    return [(i.address, i.mnemonic, i.operands, i.size) for i in program]


def outcome(worker, text, max_vertices=None):
    """The worker's outcome with the ACFG reduced to its exact bits."""
    ctx = WorkerContext(max_vertices=max_vertices)
    result = execute_unit(worker, ("sample", text, 3), 0, ctx)
    if result[0] == "fail":
        return result
    acfg = result[1]
    return ("ok", acfg.name, acfg.label, acfg.edges.dtype, acfg.edges.shape,
            acfg.edges.tobytes(), acfg.attributes.dtype, acfg.attributes.shape,
            acfg.attributes.tobytes())


def strict_outcome(parse, text):
    try:
        return rows_of(parse(text))
    except AsmParseError as exc:
        return ("error", exc.line_number, str(exc))


def assert_paths_agree(text, max_vertices=None):
    expected = outcome(reference_worker, text, max_vertices)
    assert outcome(_worker_text, text, max_vertices) == expected

    parser = AsmParser()
    program = parser.parse(text)
    reference, expected_program = reference_parse(text)
    assert rows_of(program) == rows_of(expected_program)
    assert list(parser.labels.items()) == list(reference.labels.items())
    assert parser.skipped_lines == reference.skipped_lines

    assert strict_outcome(AsmParser(strict=True).parse, text) == strict_outcome(
        lambda listing: reference_parse(listing, strict=True)[1], text
    )
    return expected


# -- listings --------------------------------------------------------------

_ADDRESSED = re.compile(r"^(?P<prefix>\S*?(?:0x[0-9a-fA-F]+|[0-9a-fA-F]{4,16})[ \t]*:?[ \t]+)(?P<body>.*)$")

_TEXT_ADDRESS = re.compile(r"^\.text:([0-9A-F]+)")

#: Lines a mutation inserts, ``{a}`` standing for an address of the
#: listing, ``{b}`` and ``{c}`` for addresses 1 and 4 past another one.
_INSERTED = (
    ".text:{a} 55 8B EC push ebp",
    ".text:{a} 8B 45 FC                 mov eax, [ebp-4]",
    ".data:{a} aGreeting db 'hello',0",
    ".data:{a} dword_{a} dd 0FFh",
    ".text:{a} sub_{a} proc near",
    ".text:{a} sub_{a} endp",
    ".text:{a} endp",
    "assume cs:_text",
    ".text:{a} sub_{a}:",
    ".text:{a} jmp 0x{a}1",
    ".text:{a} jmp 0x{b}",
    ".text:{a} jnz {c}h",
    ".text:{a} call 0{b}h",
    ".text:{a} loop short 0x{c}",
    ".text:{a} jz short loc_{a}",
    ".text:{a} call dword ptr [eax+4]",
    ".text:{a} jmp near ptr sub_{a}",
    ".text:{a} db 5",
    ".text:{a} DD 90h",
    "{a}: MOV EAX, 0Ah ; upper case",
    "0x{a}\tjnz\tloc_{a}",
    ".text:{a}\xa0nop",
    ".text:{a} push eax\x1f",
    ".text:{a} push [eax, ebx], 0x10 ; note é",
    ".text:FFFFFFFFFFFFFFFF retn",
    "0x1FFFFFFFFFFFFFFFFFF jmp 0x1FFFFFFFFFFFFFFFFFF",
    "loc_{a}:",
    "garbage line ~#%&!",
    "; a comment",
    "   ",
    "",
)

#: Line breaks ``str.splitlines`` knows.
_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def listings(draw):
    family = draw(st.sampled_from(MSKCFG_FAMILIES))
    knobs = ObfuscationKnobs(
        junk_probability=draw(st.none() | st.floats(0.0, 0.95)),
        dispatch_probability=draw(st.none() | st.floats(0.0, 0.6)),
        dispatch_fanout=draw(st.none() | st.sampled_from([(2, 3), (3, 6), (4, 8)])),
    )
    text = generate_mskcfg_sample(
        family, draw(st.integers(0, 40)), seed=draw(st.integers(0, 2**16)), knobs=knobs
    )[1]
    lines = text.splitlines()
    spread = draw(st.sampled_from((1, 1, 3)))
    if spread > 1:
        # Gaps between instructions: branch targets that miss, and
        # symbolic names (loc_XXXX) that no longer match an address.
        lines = [
            _TEXT_ADDRESS.sub(lambda m: f".text:{int(m.group(1), 16) * spread:08X}", line)
            for line in lines
        ]
    addresses = [int(m.group(1), 16) for m in map(_TEXT_ADDRESS.match, lines) if m]
    for _ in range(draw(st.integers(0, 6))):
        position = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(
            ("insert", "branch", "bytes", "repeat", "garble", "upper", "tabs")
        ))
        if kind == "branch" and addresses:
            # A branch in a gap to an address that may fall inside a block.
            address, target = (draw(st.sampled_from(addresses)) for _ in range(2))
            mnemonic = draw(st.sampled_from(("jmp", "jnz", "call", "loopne")))
            target += draw(st.sampled_from((0, 1, 2)))
            lines.insert(position, f".text:{address + 1:08X} {mnemonic} 0x{target:X}")
            continue
        if kind in ("insert", "branch") or not lines:
            address, target = (
                draw(st.sampled_from(addresses)) if addresses else 0x401000
                for _ in range(2)
            )
            template = draw(st.sampled_from(_INSERTED))
            lines.insert(position, template.format(
                a=f"{address:08X}", b=f"{target + 1:X}", c=f"{target + 4:X}"
            ))
            continue
        line = lines[min(position, len(lines) - 1)]
        match = _ADDRESSED.match(line)
        if kind == "bytes" and match:
            line = match.group("prefix") + "90 C3 " + match.group("body")
        elif kind == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif kind == "garble":
            line = line.translate(str.maketrans("0123456789abcdefABCDEF:", "~#%&!|~#%&!|~#%&!|~#%&!"))
        elif kind == "upper":
            line = line.upper()
        elif kind == "tabs":
            line = line.replace(" ", "\t", 1)
        lines[min(position, len(lines) - 1)] = line
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(("loc_end:", "loc_end:\nloc_end2: ; two", "sub_end: ; c"))))
    end = draw(st.sampled_from(_BREAKS))
    text = end.join(lines) + draw(st.sampled_from(("", end)))
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


_EXAMPLES = (
    SAMPLE_ASM,
    REALISTIC,
    REALISTIC.replace("\n", "\r\n"),
    SAMPLE_ASM.replace("\n", "\f"),
    "",
    "; Input file: cut.exe\nloc_401000:\n.text:004",
    SAMPLE_ASM + "loc_end:\n",
    ".text:00401000 jmp 0x401001\n.text:00401003 nop\n",
    ".text:00401000 jmp 0x401005\n.text:00401003 nop\n.text:00401006 nop\n"
    ".text:00401009 retn\n",
)


class TestTextPathMatchesTheReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(listings(), st.sampled_from([None, None, 1, 5, 40]))
    def test_acfg_or_failure_program_labels_and_strict_errors(self, text, max_vertices):
        assert_paths_agree(text, max_vertices)

    @pytest.mark.parametrize("text", _EXAMPLES)
    def test_hand_picked_listings(self, text):
        assert_paths_agree(text)

    @pytest.mark.parametrize("end", _BREAKS)
    def test_every_line_break(self, end):
        text = SAMPLE_ASM.strip().replace("\n", end) + end + "loc_end:" + end
        assert assert_paths_agree(text)[0] == "ok"

    def test_malformed_listings_fail_as_parse(self):
        text = generate_mskcfg_sample("Gatak", 0, seed=1)[1]
        garbled = text.translate(str.maketrans("0123456789abcdefABCDEF:", "~" * 23))
        for broken in (garbled, f"; Input file: x.exe\n{text.splitlines()[0]}\n.text:004"):
            result = assert_paths_agree(broken)
            assert result[:2] == ("fail", FailureKind.PARSE.value)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(listings())
    @example(REALISTIC)
    def test_with_extended_attributes(self, text):
        # Custom extractors take (BasicBlock, ControlFlowGraph): the text
        # path builds the reference CFG for them.
        enable_extended_attributes()
        try:
            expected = outcome(reference_worker, text)
            assert outcome(_worker_text, text) == expected
        finally:
            disable_extended_attributes()


def test_block_columns_match_the_builder():
    for text in (SAMPLE_ASM, REALISTIC, generate_mskcfg_sample("Kelihos_ver1", 1, seed=2)[1]):
        parser = AsmParser()
        blocks = connect_columns(parser.scan(text), parser.resolve_target)
        cfg = CfgBuilder(parser.resolve_target).build(reference_parse(text)[1])
        index = cfg.vertex_index()
        assert list(zip(*blocks.edges.tolist())) == sorted(
            (index[src], index[dst]) for src, dst in cfg.edges()
        )
        assert np.bincount(blocks.owner).tolist() == [len(b) for b in cfg.blocks()]


#: Lines that make a backtracking pattern retry a long run of blanks.
_LONG_LINES = (
    "00401000" + " " * 20_000 + "x\x1f",
    "00401000" + " " * 10_000 + ":" + " " * 10_000 + "x\x1f",
    "00401000 mov" + " " * 20_000 + "\x1f",
    "00401000 mov " + "a " * 10_000 + "\x1f",
    "00401000 " + "55 " * 10_000 + "\x1f",
    "a" * 10_000 + ":" + "b" * 10_000 + "!",
)


def test_scan_time_is_linear_in_a_long_line():
    # Each line takes milliseconds; a pattern that backtracks through a
    # run of blanks spends about twenty seconds on the first one.
    started = time.perf_counter()
    for line in _LONG_LINES:
        AsmParser().scan(line + "\n")
    assert time.perf_counter() - started < 5.0


# -- the text path at scale and without objects -----------------------------


def big_listing(blocks):
    """``blocks`` blocks of three instructions, each ending in a branch to another."""
    lines = []
    for block in range(blocks):
        address = 0x400000 + 3 * block
        lines.append(f"loc_{address:X}:")
        lines.append(f".text:{address:08X} mov eax, 0x{block:x}")
        lines.append(f".text:{address + 1:08X} cmp eax, 5")
        target = 0x400000 + 3 * ((block * 7 + 3) % blocks)
        lines.append(f".text:{address + 2:08X} jnz loc_{target:X}")
    return "\n".join(lines) + "\n"


class TestTextPathAtScale:
    def test_ten_thousand_blocks_under_a_memory_bound(self):
        text = big_listing(10_000)
        tracemalloc.start()
        try:
            acfg = _worker_text(("big", text, None), WorkerContext())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert acfg.num_vertices == 10_000
        expected = reference_worker(("big", text, None), WorkerContext())
        np.testing.assert_array_equal(acfg.edges, expected.edges)
        np.testing.assert_array_equal(acfg.attributes, expected.attributes)
        # The columns take a few MB; one dense 10k x 10k array is 800 MB.
        assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_oversize_fails_before_any_attribute_is_built(self, monkeypatch):
        def no_attributes(*args, **kwargs):
            raise AssertionError("attributes built for an oversize graph")

        monkeypatch.setattr(acfg_module, "table_one", no_attributes)
        monkeypatch.setattr(acfg_module, "category_codes", no_attributes)
        ctx = WorkerContext(max_vertices=9_999)
        result = execute_unit(_worker_text, ("big", big_listing(10_000), None), 0, ctx)
        assert result[:2] == ("fail", FailureKind.OVERSIZE.value)
        assert "10000" in result[2]

    def test_text_worker_builds_no_per_instruction_object(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the text path")

        # A parsed program and its graph run these constructors only when
        # their objects are made.
        for cls in (Instruction, Program, BasicBlock, ControlFlowGraph):
            monkeypatch.setattr(cls, "__init__", forbidden)
        for text in (SAMPLE_ASM, REALISTIC, generate_mskcfg_sample("Simda", 2, seed=3)[1]):
            acfg = _worker_text(("sample", text, None), WorkerContext())
            assert acfg.num_vertices > 1
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        assert (cfg.num_vertices, cfg.num_edges, cfg.name) == (5, 5, "sample")
        with pytest.raises(AssertionError, match="built on the text path"):
            cfg.blocks()


# -- objects on first use ---------------------------------------------------


def graph_shape(cfg):
    """Everything a reader of the objects sees of a CFG."""
    return (cfg.name, cfg.num_vertices, cfg.num_edges, cfg.edges(),
            [(b.start_address, rows_of(b.instructions)) for b in cfg.blocks()],
            [[s.start_address for s in cfg.successors(b)] for b in cfg.blocks()])


class TestObjectsOnFirstUse:
    @pytest.mark.parametrize("text", _EXAMPLES[:4])
    def test_a_parsed_graph_is_the_reference_graph(self, text):
        parser = AsmParser()
        program = parser.parse(text)
        cfg = CfgBuilder(parser.resolve_target).build(program, name="x")
        assert program.columns is not None and cfg.columns is not None
        counts = (cfg.num_vertices, cfg.num_edges)
        reference, expected = reference_parse(text)
        expected_cfg = CfgBuilder(reference.resolve_target).build(expected, name="x")
        assert graph_shape(cfg) == graph_shape(expected_cfg)
        assert counts == (cfg.num_vertices, cfg.num_edges)
        assert program.columns is None and cfg.columns is None
        # The reference tags the program's own instructions.
        assert [(i.start, i.branch_to) for i in program] == [
            (i.start, i.branch_to) for i in expected
        ]

    def test_a_pickled_graph_carries_its_objects(self):
        cfg = build_cfg_from_text(REALISTIC, name="r")
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy.columns is None
        assert graph_shape(copy) == graph_shape(build_cfg_from_text(REALISTIC, name="r"))
        assert ACFG.from_cfg(copy).attributes.tobytes() == (
            ACFG.from_cfg(build_cfg_from_text(REALISTIC)).attributes.tobytes()
        )

    def test_changing_a_parsed_program_uses_its_objects(self):
        parser = AsmParser()
        program = parser.parse(SAMPLE_ASM)
        program.add(Instruction(0x500000, "retn", [], 1))
        assert program.columns is None
        cfg = CfgBuilder(parser.resolve_target).build(program)
        assert cfg.columns is None
        reference, expected = reference_parse(SAMPLE_ASM)
        expected.add(Instruction(0x500000, "retn", [], 1))
        assert graph_shape(cfg) == graph_shape(
            CfgBuilder(reference.resolve_target).build(expected)
        )

    def test_calls_not_followed_use_the_objects(self):
        parser = AsmParser()
        program = parser.parse(SAMPLE_ASM)
        cfg = CfgBuilder(parser.resolve_target, follow_calls=False).build(program)
        assert cfg.columns is None
        reference, expected = reference_parse(SAMPLE_ASM)
        assert graph_shape(cfg) == graph_shape(
            CfgBuilder(reference.resolve_target, follow_calls=False).build(expected)
        )
