"""The object walk of Section IV-A: the reference for the columnar front end.

The program builds a CFG with one scan (:meth:`AsmParser.parse`) and
Algorithms 1-2 as array operations (:func:`connect_columns`).  This
module spells the same front end one object at a time, the way the paper
writes it, and the tests compare the two:

* :func:`reference_parse` walks ``str.splitlines`` with the parser's
  per-line grammar, one :class:`Instruction` per row;
* :class:`InstructionTagger` is Algorithm 1, visitor-pattern tagging
  ("if-else free instruction tagging"), one ``visit_*`` method per
  control-flow class, writing a :class:`Tags` per instruction;
* :func:`connect_blocks` is Algorithm 2 (``CfgBuilder::connectBlocks``)
  over those tags: blocks made on the fly at every ``start``,
  fall-through and branch edges, empty placeholder blocks dropped;
* :data:`REFERENCE_EXTRAS` computes the attributes a layout may append
  after Table I one :class:`BasicBlock` at a time, as the extractors
  that once registered them did; :func:`reference_extras` stacks them.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.asm.instruction import Instruction, split_operands
from repro.asm.isa import ControlFlowKind
from repro.asm.parser import AsmParser
from repro.asm.program import Program
from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import CfgConstructionError


def reference_parse(text: str, strict: bool = False) -> Tuple[AsmParser, Program]:
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
    instructions = []
    for position, address in enumerate(addresses):
        _, mnemonic, operands, size = first[address]
        if position + 1 < len(addresses):
            size = addresses[position + 1] - address
        instructions.append(
            Instruction(address, mnemonic, split_operands(operands), max(size, 1))
        )
    if addresses:
        for label in pending:
            parser.labels.setdefault(label, addresses[-1] + 1)
    return parser, Program(instructions)


@dataclass
class Tags:
    """The four tags Algorithm 1 gives an instruction."""

    start: bool = False
    branch_to: Optional[int] = None
    fall_through: bool = False
    is_return: bool = False


class InstructionTagger:
    """Algorithm 1: tags every instruction of a program for block construction.

    ``resolve_target`` maps a branch operand to a destination address (or
    ``None``); with ``follow_calls`` a ``call`` branches to its callee,
    without it a call only falls through.
    """

    def __init__(
        self,
        resolve_target: Callable[[str], Optional[int]],
        follow_calls: bool = True,
    ) -> None:
        self._resolve_target = resolve_target
        self.follow_calls = follow_calls
        self._dispatch = {
            ControlFlowKind.SEQUENTIAL: self.visit_sequential,
            ControlFlowKind.CONDITIONAL_JUMP: self.visit_conditional_jump,
            ControlFlowKind.UNCONDITIONAL_JUMP: self.visit_unconditional_jump,
            ControlFlowKind.CALL: self.visit_call,
            ControlFlowKind.RETURN: self.visit_return,
            ControlFlowKind.TERMINATE: self.visit_terminate,
        }

    def tag(self, program: Program) -> Dict[int, Tags]:
        """Fresh tags of every instruction of ``program``, by address."""
        tags = {inst.address: Tags() for inst in program}
        first = program.first()
        if first is not None:
            tags[first.address].start = True
        for inst in program:
            self._dispatch[inst.flow_kind](tags, inst)
        return tags

    def visit_sequential(self, tags: Dict[int, Tags], inst: Instruction) -> None:
        """Ordinary instructions simply fall through."""
        tags[inst.address].fall_through = True

    def visit_conditional_jump(self, tags: Dict[int, Tags], inst: Instruction) -> None:
        """``visitConditionalJump(cj)``: branch to the target and fall through."""
        self._branch(tags, inst)
        tags[inst.address].fall_through = True
        _mark_start(tags, inst.next_address)

    def visit_unconditional_jump(self, tags: Dict[int, Tags], inst: Instruction) -> None:
        """``jmp`` branches to its target and never falls through."""
        self._branch(tags, inst)
        # The instruction after a jmp starts a new block (it can only be
        # reached via some other branch).
        _mark_start(tags, inst.next_address)

    def visit_call(self, tags: Dict[int, Tags], inst: Instruction) -> None:
        """``call`` transfers to the callee and then resumes after itself."""
        if self.follow_calls:
            self._branch(tags, inst)
        tags[inst.address].fall_through = True
        _mark_start(tags, inst.next_address)

    def visit_return(self, tags: Dict[int, Tags], inst: Instruction) -> None:
        """``ret`` ends the block with no static successor."""
        tags[inst.address].is_return = True
        _mark_start(tags, inst.next_address)

    def visit_terminate(self, tags: Dict[int, Tags], inst: Instruction) -> None:
        """``hlt``/``int3``-style terminators end the block."""
        _mark_start(tags, inst.next_address)

    def _branch(self, tags: Dict[int, Tags], inst: Instruction) -> None:
        """``findDstAddr(inst)``, then tag the branch and its target."""
        if not inst.operands:
            return
        dst_addr = self._resolve_target(inst.operands[0])
        if dst_addr is not None:
            tags[inst.address].branch_to = dst_addr
            _mark_start(tags, dst_addr)


def _mark_start(tags: Dict[int, Tags], address: int) -> None:
    if address in tags:
        tags[address].start = True


def connect_blocks(
    program: Program, tags: Dict[int, Tags], name: str = ""
) -> ControlFlowGraph:
    """Algorithm 2: create vertices and edges over a tagged program."""
    instructions = list(program)
    addresses = [inst.address for inst in instructions]
    blocks: Dict[int, List[Instruction]] = {}
    edges: Set[Tuple[int, int]] = set()
    curr_block: Optional[int] = None
    for position, inst in enumerate(instructions):
        tag = tags[inst.address]
        if tag.start or curr_block is None:
            curr_block = inst.address
            blocks.setdefault(curr_block, [])
        next_block = curr_block
        # getNextInst(P, inst): the instruction at the next higher address.
        if position + 1 < len(instructions):
            next_inst = instructions[position + 1]
            if tag.fall_through and tags[next_inst.address].start:
                next_block = next_inst.address
                blocks.setdefault(next_block, [])
                edges.add((curr_block, next_block))
        if tag.branch_to is not None:
            # A target between instructions snaps to the next one.
            index = bisect.bisect_left(addresses, tag.branch_to)
            if index < len(addresses):
                blocks.setdefault(addresses[index], [])
                edges.add((curr_block, addresses[index]))
        blocks[curr_block].append(inst)
        curr_block = next_block
    # A branch into the middle of a block made an empty placeholder.
    empty = {start for start, block in blocks.items() if not block}
    return ControlFlowGraph.from_blocks(
        [(start, block) for start, block in blocks.items() if block],
        [edge for edge in edges if not empty.intersection(edge)],
        name=name,
    )


def reference_build(
    program: Program,
    resolve_target: Callable[[str], Optional[int]],
    follow_calls: bool = True,
    name: str = "",
) -> ControlFlowGraph:
    """Both passes over ``program``, as ``CfgBuilder.build`` once ran them."""
    if len(program) == 0:
        raise CfgConstructionError("cannot build a CFG from an empty program")
    tags = InstructionTagger(resolve_target, follow_calls).tag(program)
    return connect_blocks(program, tags, name=name)


# -- the extra attributes, one block at a time ------------------------------


def _in_degree(block: BasicBlock, graph: ControlFlowGraph) -> float:
    """Predecessor count: join points and loop headers score high."""
    return float(sum(dst == block.start_address for _, dst in graph.edges()))


def _mnemonic_entropy(block: BasicBlock, graph: ControlFlowGraph) -> float:
    """Shannon entropy of the block's mnemonic distribution.

    Junk-code padding repeats a few mnemonics (low entropy); hand-written
    or compiler-generated code mixes more operations.
    """
    if block.is_empty:
        return 0.0
    counts = Counter(inst.mnemonic for inst in block.instructions)
    total = len(block)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def _unique_mnemonics(block: BasicBlock, graph: ControlFlowGraph) -> float:
    return float(len({inst.mnemonic for inst in block.instructions}))


def _operand_count(block: BasicBlock, graph: ControlFlowGraph) -> float:
    return float(sum(len(inst.operands) for inst in block.instructions))


#: Extra attribute name -> per-block extractor, in layout order.
REFERENCE_EXTRAS = {
    "in_degree": _in_degree,
    "mnemonic_entropy": _mnemonic_entropy,
    "unique_mnemonics": _unique_mnemonics,
    "operand_count": _operand_count,
}


def reference_extras(graph: ControlFlowGraph, names: Sequence[str]) -> np.ndarray:
    """The ``(n, len(names))`` extra columns, block by block."""
    return np.array(
        [[REFERENCE_EXTRAS[name](block, graph) for name in names]
         for block in graph.blocks()],
        dtype=np.float64,
    ).reshape(graph.num_vertices, len(names))
