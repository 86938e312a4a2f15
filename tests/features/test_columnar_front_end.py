"""The columnar front end against the reference objects, listing by listing.

Serving and extraction turn listing text into an ACFG through
``AsmParser.parse``, ``CfgBuilder.build`` and ``ACFG.from_cfg``: one
regex scan, Algorithms 1-2 as array operations (:func:`connect_columns`)
and one Table I pass over the graph's arrays, with no per-instruction
object.  The reference (:mod:`tests.reference_front_end`) walks the same
text the way the paper writes it: ``str.splitlines`` and the per-line
grammar for every line, one :class:`Instruction` per row, the tagging
pass and Algorithm 2 over the objects.  Both must give the same ACFG
bits, or the same failure kind and detail, the same :class:`Program`,
labels, skipped lines and strict-mode line numbers, and the same CFG
JSON with calls followed and not.
"""

import os
import re
import tempfile
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.asm.instruction import Instruction
from repro.asm.parser import AsmParser
from repro.asm.program import Program
from repro.cfg.basic_block import BasicBlock
from repro.cfg.builder import CfgBuilder, build_cfg_from_text
from repro.cfg.graph import ControlFlowGraph
from repro.cfg.serialization import cfg_to_dict, load_cfg, save_cfg
from repro.datasets.mskcfg import MSKCFG_FAMILIES, generate_mskcfg_sample
from repro.datasets.synthetic_asm import ObfuscationKnobs
from repro.exceptions import AsmParseError, CfgConstructionError
from repro.features import attributes as attributes_module
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
from tests.reference_front_end import reference_build, reference_parse

# -- the reference: one line at a time, one object per instruction ---------


def reference_worker(item, ctx):
    name, text, label = item
    parser, program = reference_parse(text)
    cfg = reference_build(program, parser.resolve_target, name=name)
    _guard_size(name, cfg.num_vertices, ctx)
    return ACFG.from_cfg(cfg, label=label)


def saved_graph_worker(item, ctx):
    """The text path's graph through ``save_cfg`` and ``load_cfg``."""
    name, text, label = item
    cfg = build_cfg_from_text(text, name=name)
    _guard_size(name, cfg.num_vertices, ctx)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "graph.json")
        save_cfg(cfg, path)
        return ACFG.from_cfg(load_cfg(path), label=label)


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


def graph_json(build):
    """``cfg_to_dict`` of the graph ``build()`` gives, or its failure."""
    try:
        return cfg_to_dict(build())
    except CfgConstructionError as exc:
        return ("error", str(exc))


class TestGraphJson:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(listings())
    @example(SAMPLE_ASM)
    @example(REALISTIC)
    @example(generate_mskcfg_sample("Kelihos_ver1", 1, seed=2)[1])
    def test_matches_reference_and_saved_graph(self, text):
        parser = AsmParser()
        program = parser.parse(text)
        reference, expected = reference_parse(text)
        for follow_calls in (True, False):
            builder = CfgBuilder(parser.resolve_target, follow_calls=follow_calls)
            got = graph_json(lambda: builder.build(program, name="x"))
            assert got == graph_json(lambda: reference_build(
                expected, reference.resolve_target, follow_calls, name="x"
            ))
            if isinstance(got, dict):
                # The arrays the graph holds are the reference's blocks.
                cfg = builder.build(program)
                blocks = got["blocks"]
                index = {block["start"]: i for i, block in enumerate(blocks)}
                assert list(zip(*cfg.edge_index.tolist())) == [
                    (index[src], index[dst]) for src, dst in got["edges"]
                ]
                assert np.bincount(cfg.owner).tolist() == [
                    len(block["instructions"]) for block in blocks
                ]
        assert outcome(saved_graph_worker, text) == outcome(_worker_text, text)


def test_block_columns_match_the_builder():
    # The graph's owner and edge_index arrays against the reference's
    # blocks and edges, built over objects.
    for text in (SAMPLE_ASM, REALISTIC, generate_mskcfg_sample("Kelihos_ver1", 1, seed=2)[1]):
        parser = AsmParser()
        cfg = CfgBuilder(parser.resolve_target).build(parser.parse(text))
        reference, program = reference_parse(text)
        expected = reference_build(program, reference.resolve_target)
        index = expected.vertex_index()
        assert list(zip(*cfg.edge_index.tolist())) == sorted(
            (index[src], index[dst]) for src, dst in expected.edges()
        )
        assert np.bincount(cfg.owner).tolist() == [len(b) for b in expected.blocks()]


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
        AsmParser().parse(line + "\n")
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

        monkeypatch.setattr(attributes_module, "table_one", no_attributes)
        monkeypatch.setattr(attributes_module, "category_codes", no_attributes)
        ctx = WorkerContext(max_vertices=9_999)
        result = execute_unit(_worker_text, ("big", big_listing(10_000), None), 0, ctx)
        assert result[:2] == ("fail", FailureKind.OVERSIZE.value)
        assert "10000" in result[2]

    def test_text_worker_builds_no_per_instruction_object(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the text path")

        made = []

        def counted(cls, constructor):
            def construct(*args, **kwargs):
                made.append(cls.__name__)
                return constructor(*args, **kwargs)
            return construct

        for cls in (Instruction, BasicBlock):
            monkeypatch.setattr(cls, "__init__", forbidden)
        # One array holder each per listing: the parsed program (made by
        # the parser's ``from_rows``) and its graph.
        monkeypatch.setattr(Program, "__init__", counted(Program, Program.__init__))
        monkeypatch.setattr(
            Program, "from_rows", classmethod(counted(Program, Program.from_rows.__func__))
        )
        monkeypatch.setattr(
            ControlFlowGraph, "__init__",
            counted(ControlFlowGraph, ControlFlowGraph.__init__),
        )
        for text in (SAMPLE_ASM, REALISTIC, generate_mskcfg_sample("Simda", 2, seed=3)[1]):
            made.clear()
            acfg = _worker_text(("sample", text, None), WorkerContext())
            assert acfg.num_vertices > 1
            assert sorted(made) == ["ControlFlowGraph", "Program"]
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        assert (cfg.num_vertices, cfg.num_edges, cfg.name) == (5, 5, "sample")
        # Blocks are views made when asked for.
        with pytest.raises(AssertionError, match="built on the text path"):
            cfg.blocks()


# -- objects on first use ---------------------------------------------------


def graph_shape(cfg):
    """Everything a reader of the objects sees of a CFG."""
    return (cfg.name, cfg.num_vertices, cfg.num_edges, cfg.edges(),
            [(b.start_address, rows_of(b.instructions)) for b in cfg.blocks()],
            [[s.start_address for s in cfg.successors(b)] for b in cfg.blocks()])


class TestObjectsOnFirstUse:
    """Blocks and successors, made from the graph's arrays when asked for."""

    @pytest.mark.parametrize("text", _EXAMPLES[:4])
    def test_a_parsed_graph_is_the_reference_graph(self, text):
        parser = AsmParser()
        program = parser.parse(text)
        cfg = CfgBuilder(parser.resolve_target).build(program, name="x")
        counts = (cfg.num_vertices, cfg.num_edges)
        reference, expected = reference_parse(text)
        expected_cfg = reference_build(expected, reference.resolve_target, name="x")
        assert graph_shape(cfg) == graph_shape(expected_cfg)
        # Making the objects leaves the arrays as they were.
        assert counts == (cfg.num_vertices, cfg.num_edges)
        assert rows_of(program) == rows_of(expected)

    def test_calls_not_followed_use_the_objects(self):
        for text in (SAMPLE_ASM, REALISTIC):
            parser = AsmParser()
            program = parser.parse(text)
            cfg = CfgBuilder(parser.resolve_target, follow_calls=False).build(program)
            reference, expected = reference_parse(text)
            expected_cfg = reference_build(expected, reference.resolve_target, follow_calls=False)
            assert graph_shape(cfg) == graph_shape(expected_cfg)
        # The realistic listing calls into itself: following calls adds edges.
        assert cfg.num_edges < CfgBuilder(parser.resolve_target).build(program).num_edges
