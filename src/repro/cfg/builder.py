"""CFG construction: Algorithms 1 and 2 of the paper over a program's columns.

Section IV-A builds a CFG in two passes over ``P : address ->
instruction``: Algorithm 1 tags block starts, branch targets and
fall-throughs, and Algorithm 2 (``CfgBuilder::connectBlocks``) creates
the blocks and wires their edges.  :func:`connect_columns` computes the
same blocks and edges as array operations over a
:class:`~repro.asm.program.Program`, with no per-instruction object, and
returns them as a :class:`ControlFlowGraph`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, Optional

import numpy as np

from repro.asm.instruction import first_operand
from repro.asm.isa import FLOW_KIND_OF, ControlFlowKind
from repro.asm.parser import AsmParser
from repro.asm.program import Program
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import CfgConstructionError


def _unresolved(operand: str) -> Optional[int]:
    """The resolver of a builder given none: no target is known."""
    return None


class CfgBuilder:
    """Builds a :class:`ControlFlowGraph` from a program.

    Parameters
    ----------
    resolve_target:
        Callable mapping a branch operand string to a destination address
        (or ``None`` when statically unknown).  Typically
        :meth:`repro.asm.parser.AsmParser.resolve_target`.
    follow_calls:
        When ``True``, ``call`` instructions contribute a branch edge to
        the callee (intra-procedural *and* inter-procedural CFG, which is
        what MAGIC builds over whole ``.asm`` files).  When ``False``, a
        call only falls through to the instruction after it.
    """

    def __init__(
        self,
        resolve_target: Optional[Callable[[str], Optional[int]]] = None,
        follow_calls: bool = True,
    ) -> None:
        self._resolve_target = resolve_target or _unresolved
        self.follow_calls = follow_calls

    def build(self, program: Program, name: str = "") -> ControlFlowGraph:
        """The control flow graph of ``program`` (:func:`connect_columns`)."""
        return connect_columns(
            program, self._resolve_target, self.follow_calls, name=name
        )


_KINDS = list(ControlFlowKind)
#: Mnemonic -> control-flow code, the kind's position in
#: :class:`ControlFlowKind`; absent mnemonics are SEQUENTIAL.
_FLOW_CODE_OF: Dict[str, int] = {
    mnemonic: _KINDS.index(kind) for mnemonic, kind in FLOW_KIND_OF.items()
}
_SEQUENTIAL = _KINDS.index(ControlFlowKind.SEQUENTIAL)
#: Indexed by flow code: the kinds that fall through to the next
#: instruction, and the kinds whose operand names a branch target with
#: calls followed and without.
_FALLS_THROUGH, _BRANCHES, _JUMPS = (
    np.array([kind in kinds for kind in _KINDS])
    for kinds in (
        {ControlFlowKind.SEQUENTIAL, ControlFlowKind.CONDITIONAL_JUMP,
         ControlFlowKind.CALL},
        {ControlFlowKind.CONDITIONAL_JUMP, ControlFlowKind.UNCONDITIONAL_JUMP,
         ControlFlowKind.CALL},
        {ControlFlowKind.CONDITIONAL_JUMP, ControlFlowKind.UNCONDITIONAL_JUMP},
    )
)


def connect_columns(
    program: Program,
    resolve_target: Callable[[str], Optional[int]],
    follow_calls: bool = True,
    name: str = "",
) -> ControlFlowGraph:
    """Algorithms 1 and 2 as array operations over ``program``.

    Block starts are the first instruction, every instruction after a
    non-sequential one, and exact branch targets; a block id is the
    number of starts up to an instruction.  A fall-through edge joins an
    instruction that falls through to a following start.  A branch edge
    goes to the block of the nearest instruction at or after the target
    when that instruction is a start; a target inside a block, or past
    the last instruction, gives no edge.  Calls branch only when
    ``follow_calls`` is set.  The graph shares ``program``'s columns.
    """
    count = len(program)
    if count == 0:
        raise CfgConstructionError("cannot build a CFG from an empty program")
    flow = np.fromiter(
        map(_FLOW_CODE_OF.get, program.mnemonics, repeat(_SEQUENTIAL)),
        np.int8,
        count,
    )
    start = np.empty(count, dtype=bool)
    start[0] = True
    np.not_equal(flow[:-1], _SEQUENTIAL, out=start[1:])

    branching = (_BRANCHES if follow_calls else _JUMPS)[flow]
    addresses = program.addresses
    last = int(addresses[-1])
    sources, targets = [], []
    for index in np.flatnonzero(branching).tolist():
        operand = first_operand(program.operands[index])
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
    return ControlFlowGraph(
        (addresses, program.sizes, program.mnemonics, program.operands),
        owner,
        addresses[start],
        np.stack([keys // num_blocks, keys % num_blocks]),
        name,
    )


def build_cfg_from_text(text: str, name: str = "") -> ControlFlowGraph:
    """Convenience wrapper: listing text -> :class:`ControlFlowGraph`."""
    parser = AsmParser()
    program = parser.parse(text)
    builder = CfgBuilder(resolve_target=parser.resolve_target)
    return builder.build(program, name=name)


def build_cfg_from_file(path: str, name: str = "") -> ControlFlowGraph:
    """Convenience wrapper: ``.asm`` file -> :class:`ControlFlowGraph`."""
    parser = AsmParser()
    program = parser.parse_file(path)
    builder = CfgBuilder(resolve_target=parser.resolve_target)
    return builder.build(program, name=name or path)
