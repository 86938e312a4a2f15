"""Call-graph extraction from a flat disassembled program.

Function boundary recovery on stripped binaries follows IDA's layout
heuristic: function entries are (a) the program's first instruction and
(b) every statically resolved ``call`` target; a function's body spans
from its entry to the next entry in address order.  Each span gets a
local (intra-procedural) CFG built with the same two-pass algorithm as
the whole-program CFG, with call edges recorded as call-graph edges
instead of control-flow edges.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.asm.instruction import Instruction
from repro.asm.isa import ControlFlowKind
from repro.asm.parser import AsmParser
from repro.asm.program import Program
from repro.callgraph.callgraph import CallGraph
from repro.callgraph.function import Function
from repro.cfg.builder import CfgBuilder
from repro.exceptions import CfgConstructionError


def extract_call_graph(
    program: Program,
    resolve_target: Callable[[str], Optional[int]],
    name: str = "",
) -> CallGraph:
    """Recover the function call graph of ``program``."""
    if len(program) == 0:
        raise CfgConstructionError("cannot extract a call graph from an empty program")

    # Pass 1: find entries = program start + all resolved call targets.
    entries = set()
    first = program.first()
    entries.add(first.address)
    for inst in program:
        if inst.flow_kind is ControlFlowKind.CALL and inst.operands:
            target = resolve_target(inst.operands[0])
            if target is not None and target in program:
                entries.add(target)

    ordered_entries = sorted(entries)

    # Pass 2: partition instructions into [entry, next_entry) spans.
    graph = CallGraph(name=name)
    spans: List[List[Instruction]] = [[] for _ in ordered_entries]
    boundaries = ordered_entries + [float("inf")]
    span_index = 0
    for inst in program:
        while inst.address >= boundaries[span_index + 1]:
            span_index += 1
        if inst.address >= boundaries[span_index]:
            spans[span_index].append(inst)

    entry_set = set(ordered_entries)
    for entry, instructions in zip(ordered_entries, spans):
        function = Function(
            entry_address=entry,
            name=f"sub_{entry:X}",
            instructions=instructions,
        )
        graph.add_function(function)

    # Pass 3: per-function local CFGs and call edges.
    builder = CfgBuilder(resolve_target=resolve_target, follow_calls=False)
    for function in graph.functions():
        function.local_cfg = builder.build(
            Program(function.instructions), name=function.name
        )
        for inst in function.instructions:
            if inst.flow_kind is ControlFlowKind.CALL and inst.operands:
                target = resolve_target(inst.operands[0])
                if target is not None and target in entry_set:
                    if target not in function.callees:
                        function.callees.append(target)
                    graph.add_call(function.entry_address, target)
    return graph


def call_graph_from_text(text: str, name: str = "") -> CallGraph:
    """Parse listing text and extract its call graph in one call."""
    parser = AsmParser()
    program = parser.parse(text)
    return extract_call_graph(program, parser.resolve_target, name=name)
