"""Assembly substrate: instruction model, ISA taxonomy, parser.

This package implements everything MAGIC needs *below* the control flow
graph: a model of disassembled programs (:class:`Program`), an
IDA-listing parser (:class:`AsmParser`) and the Table I instruction
taxonomy (:mod:`repro.asm.isa`).
"""

from repro.asm.instruction import Instruction
from repro.asm.isa import (
    ControlFlowKind,
    InstructionCategory,
    categorize,
    control_flow_kind,
)
from repro.asm.parser import AsmParser
from repro.asm.program import Program

__all__ = [
    "AsmParser",
    "ControlFlowKind",
    "Instruction",
    "InstructionCategory",
    "Program",
    "categorize",
    "control_flow_kind",
]
