"""Second pass of CFG construction: block creation and connection.

This is Algorithm 2 of the paper (``CfgBuilder::connectBlocks``).  It
iterates the tagged program once, creating blocks on the fly at every
instruction whose ``start`` tag is set, wiring fall-through edges when the
current instruction falls through into a block start, and wiring branch
edges for every instruction with a resolved ``branch_to`` address.

:func:`connect_columns` computes the same blocks and edges as array
operations over a scanned :class:`~repro.asm.parser.Listing`, with no
per-instruction object.  :meth:`CfgBuilder.build` uses it for a program
parsed from text; the object walk above stays the reference, and builds
such a graph's block objects when they are first asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Dict, Optional

import numpy as np

from repro.asm.isa import FLOW_KIND_OF, ControlFlowKind
from repro.asm.parser import AsmParser, Listing, first_operand
from repro.asm.program import Program
from repro.asm.visitor import InstructionTagger
from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import CfgConstructionError


def _unresolved(operand: str) -> Optional[int]:
    """The resolver of a builder given none: no target is known."""
    return None


class CfgBuilder:
    """Builds a :class:`ControlFlowGraph` from a tagged program.

    The two-pass structure of Section IV-A is preserved exactly:
    :meth:`build` first runs the :class:`InstructionTagger` (pass 1,
    Algorithm 1) and then :meth:`connect_blocks` (pass 2, Algorithm 2).
    """

    def __init__(
        self,
        resolve_target: Optional[Callable[[str], Optional[int]]] = None,
        follow_calls: bool = True,
    ) -> None:
        self._resolve_target = resolve_target or _unresolved
        self.follow_calls = follow_calls

    def build(self, program: Program, name: str = "") -> ControlFlowGraph:
        """Tag ``program`` and assemble its control flow graph.

        A program parsed from text that still holds its columns gets a
        graph over :func:`connect_columns`, whose block objects this
        method makes (tagging ``program``) only when first asked for.
        """
        if len(program) == 0:
            raise CfgConstructionError("cannot build a CFG from an empty program")
        if program.columns is not None and self.follow_calls:
            return ControlFlowGraph.from_columns(
                connect_columns(program.columns, self._resolve_target),
                partial(self._tag_and_connect, program, name),
                name=name,
            )
        return self._tag_and_connect(program, name)

    def _tag_and_connect(self, program: Program, name: str) -> ControlFlowGraph:
        tagger = InstructionTagger(self._resolve_target, follow_calls=self.follow_calls)
        tagger.tag(program)
        return self.connect_blocks(program, name=name)

    def build_from_text(self, text: str, name: str = "") -> ControlFlowGraph:
        """Parse listing text and build its CFG in one call."""
        parser = AsmParser()
        program = parser.parse(text)
        builder = CfgBuilder(
            resolve_target=parser.resolve_target,
            follow_calls=self.follow_calls,
        )
        return builder.build(program, name=name)

    def connect_blocks(self, program: Program, name: str = "") -> ControlFlowGraph:
        """Algorithm 2: create vertices and edges over a tagged program."""
        graph = ControlFlowGraph(name=name)
        blocks_by_address: Dict[int, BasicBlock] = {}

        def get_block_at_addr(address: int) -> BasicBlock:
            """``getBlockAtAddr`` helper: fetch or create the block."""
            block = blocks_by_address.get(address)
            if block is None:
                block = BasicBlock(start_address=address)
                blocks_by_address[address] = block
                graph.add_block(block)
            return block

        curr_block: Optional[BasicBlock] = None
        for inst in program:
            if inst.start:
                curr_block = get_block_at_addr(inst.address)
            if curr_block is None:
                # Defensive: the tagger always marks the first instruction
                # as a start, so this only fires on inconsistent tags.
                curr_block = get_block_at_addr(inst.address)
            next_block = curr_block

            next_inst = program.next_instruction(inst)
            if next_inst is not None:
                if inst.fall_through and next_inst.start:
                    next_block = get_block_at_addr(next_inst.address)
                    graph.add_edge(curr_block, next_block)

            if inst.branch_to is not None:
                target = program.nearest_at_or_after(inst.branch_to)
                if target is not None:
                    block = get_block_at_addr(target.address)
                    graph.add_edge(curr_block, block)

            curr_block.append(inst)
            curr_block = next_block

        graph.remove_empty_blocks()
        return graph


_KINDS = list(ControlFlowKind)
#: Mnemonic -> control-flow code, the kind's position in
#: :class:`ControlFlowKind`; absent mnemonics are SEQUENTIAL.
_FLOW_CODE_OF: Dict[str, int] = {
    mnemonic: _KINDS.index(kind) for mnemonic, kind in FLOW_KIND_OF.items()
}
_SEQUENTIAL = _KINDS.index(ControlFlowKind.SEQUENTIAL)
#: Indexed by flow code: the kinds that fall through to the next
#: instruction, and the kinds whose operand names a branch target.
_FALLS_THROUGH, _BRANCHES = (
    np.array([kind in kinds for kind in _KINDS])
    for kinds in (
        {ControlFlowKind.SEQUENTIAL, ControlFlowKind.CONDITIONAL_JUMP,
         ControlFlowKind.CALL},
        {ControlFlowKind.CONDITIONAL_JUMP, ControlFlowKind.UNCONDITIONAL_JUMP,
         ControlFlowKind.CALL},
    )
)


@dataclass
class BlockColumns:
    """The basic blocks of a :class:`Listing` as arrays.

    ``owner[i]`` is the block of instruction ``i``, with blocks numbered
    in address order, and ``edges`` is the ``(2, E)`` int64 array of
    ``(source, destination)`` block pairs sorted without duplicates:
    the vertex numbering and edge list of the :class:`ControlFlowGraph`
    that :class:`CfgBuilder` builds from the same listing.
    """

    listing: Listing
    owner: np.ndarray
    edges: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.owner[-1]) + 1


def connect_columns(
    listing: Listing, resolve_target: Callable[[str], Optional[int]]
) -> BlockColumns:
    """Algorithms 1 and 2 as array operations over ``listing``, calls followed.

    Block starts are the first instruction, every instruction after a
    non-sequential one, and exact branch targets; a block id is the
    number of starts up to an instruction.  A fall-through edge joins an
    instruction that falls through to a following start.  A branch edge
    goes to the block of the nearest instruction at or after the target
    when that instruction is a start; otherwise the reference builds an
    empty placeholder block, which it drops along with the edge.
    """
    count = len(listing)
    if count == 0:
        raise CfgConstructionError("cannot build a CFG from an empty program")
    flow = np.fromiter(
        map(_FLOW_CODE_OF.get, listing.mnemonics, repeat(_SEQUENTIAL)),
        np.int8,
        count,
    )
    start = np.empty(count, dtype=bool)
    start[0] = True
    np.not_equal(flow[:-1], _SEQUENTIAL, out=start[1:])

    branching = _BRANCHES[flow]
    addresses = listing.addresses
    last = int(addresses[-1])
    sources, targets = [], []
    for index in np.flatnonzero(branching).tolist():
        operand = first_operand(listing.operands[index])
        target = None if operand is None else resolve_target(operand)
        # Past the last instruction there is nothing to branch to.
        if target is not None and target <= last:
            sources.append(index)
            targets.append(target)
    wanted = np.array(targets, dtype=addresses.dtype)
    reached = np.searchsorted(addresses, wanted)
    start[reached[np.asarray(addresses[reached] == wanted, dtype=bool)]] = True

    owner = np.cumsum(start) - 1
    num_blocks = int(owner[-1]) + 1
    falls = np.flatnonzero(_FALLS_THROUGH[flow[:-1]] & start[1:])
    lands = start[reached]
    keys = np.unique(np.concatenate([
        owner[falls] * num_blocks + owner[falls + 1],
        owner[np.array(sources, dtype=np.int64)[lands]] * num_blocks
        + owner[reached[lands]],
    ]))
    return BlockColumns(
        listing=listing,
        owner=owner,
        edges=np.stack([keys // num_blocks, keys % num_blocks]),
    )


def build_cfg_from_text(text: str, name: str = "") -> ControlFlowGraph:
    """Convenience wrapper: listing text -> :class:`ControlFlowGraph`."""
    return CfgBuilder().build_from_text(text, name=name)


def build_cfg_from_file(path: str, name: str = "") -> ControlFlowGraph:
    """Convenience wrapper: ``.asm`` file -> :class:`ControlFlowGraph`."""
    parser = AsmParser()
    program = parser.parse_file(path)
    builder = CfgBuilder(resolve_target=parser.resolve_target)
    return builder.build(program, name=name or path)
