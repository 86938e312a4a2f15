"""x86-flavoured instruction set taxonomy.

MAGIC's block attributes (Table I of the paper) count instructions by
category: transfer, call, arithmetic, compare, mov, termination, and data
declaration.  The CFG builder additionally needs to know which mnemonics
change control flow (conditional jumps, unconditional jumps, calls,
returns, and terminating instructions).

This module is the single source of truth for that classification.  The
mnemonic tables cover the instructions produced by IDA Pro-style listings
of 32/64-bit x86 binaries, which is what both the Kaggle `.asm` corpus and
our synthetic corpus emit.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet


class InstructionCategory(enum.Enum):
    """Semantic category of an instruction, as counted in Table I."""

    TRANSFER = "transfer"
    CALL = "call"
    ARITHMETIC = "arithmetic"
    COMPARE = "compare"
    MOV = "mov"
    TERMINATION = "termination"
    DATA_DECLARATION = "data_declaration"
    OTHER = "other"


class ControlFlowKind(enum.Enum):
    """How an instruction affects control flow, as used by the CFG builder."""

    SEQUENTIAL = "sequential"
    CONDITIONAL_JUMP = "conditional_jump"
    UNCONDITIONAL_JUMP = "unconditional_jump"
    CALL = "call"
    RETURN = "return"
    TERMINATE = "terminate"


#: Conditional jump mnemonics: branch to a target *and* fall through.
CONDITIONAL_JUMPS: FrozenSet[str] = frozenset({
    "ja", "jae", "jb", "jbe", "jc", "jcxz", "jecxz", "jrcxz",
    "je", "jg", "jge", "jl", "jle", "jna", "jnae", "jnb", "jnbe",
    "jnc", "jne", "jng", "jnge", "jnl", "jnle", "jno", "jnp", "jns",
    "jnz", "jo", "jp", "jpe", "jpo", "js", "jz",
    "loop", "loope", "loopne", "loopnz", "loopz",
})

#: Unconditional jump mnemonics: branch to a target, never fall through.
UNCONDITIONAL_JUMPS: FrozenSet[str] = frozenset({"jmp", "ljmp"})

#: Call mnemonics: branch to a target *and* (conceptually) return to the
#: fall-through instruction afterwards.
CALLS: FrozenSet[str] = frozenset({"call", "lcall"})

#: Return mnemonics: end the current function; no fall-through edge.
RETURNS: FrozenSet[str] = frozenset({"ret", "retn", "retf", "iret", "iretd"})

#: Program/termination mnemonics (counted as "termination" in Table I).
TERMINATIONS: FrozenSet[str] = frozenset({
    "hlt", "ud2", "int3",
}) | RETURNS

#: Data movement mnemonics (counted as "mov" in Table I).
MOVS: FrozenSet[str] = frozenset({
    "mov", "movzx", "movsx", "movsxd", "movs", "movsb", "movsw", "movsd",
    "movq", "movaps", "movups", "movdqa", "movdqu", "cmova",
    "cmovae", "cmovb", "cmovbe", "cmove", "cmovg", "cmovge", "cmovl",
    "cmovle", "cmovne", "cmovno", "cmovnp", "cmovns", "cmovnz", "cmovo",
    "cmovp", "cmovs", "cmovz", "lea", "xchg", "bswap",
})

#: Stack / register transfer mnemonics (counted as "transfer" in Table I).
#: Jumps are also transfers of control and are counted here too, following
#: the convention of Yan et al.'s attribute extractor.
TRANSFERS: FrozenSet[str] = frozenset({
    "push", "pop", "pusha", "pushad", "popa", "popad", "pushf", "pushfd",
    "popf", "popfd", "enter", "leave",
}) | CONDITIONAL_JUMPS | UNCONDITIONAL_JUMPS

#: Arithmetic and logic mnemonics (counted as "arithmetic" in Table I).
ARITHMETICS: FrozenSet[str] = frozenset({
    "add", "adc", "sub", "sbb", "mul", "imul", "div", "idiv",
    "inc", "dec", "neg", "not", "and", "or", "xor",
    "shl", "shr", "sal", "sar", "rol", "ror", "rcl", "rcr",
    "shld", "shrd", "cdq", "cwd", "cbw", "cwde", "cdqe",
    "addss", "subss", "mulss", "divss", "addsd", "subsd", "mulsd", "divsd",
    "paddb", "paddw", "paddd", "psubb", "psubw", "psubd",
    "fadd", "fsub", "fmul", "fdiv", "fiadd", "fisub", "fimul", "fidiv",
})

#: Comparison mnemonics (counted as "compare" in Table I).
COMPARES: FrozenSet[str] = frozenset({
    "cmp", "test", "cmps", "cmpsb", "cmpsw", "cmpsd", "scas", "scasb",
    "scasw", "scasd", "comiss", "comisd", "ucomiss", "ucomisd",
    "fcom", "fcomp", "fcompp", "ficom", "ficomp", "ptest",
})

#: Assembler data-declaration directives (counted as "data declaration").
DATA_DECLARATIONS: FrozenSet[str] = frozenset({
    "db", "dw", "dd", "dq", "dt", "dup", "byte", "word", "dword", "qword",
    "align", "unicode",
})


#: Lower-cased mnemonic -> Table I category; absent mnemonics are OTHER.
#: Filled from the last set to the first, so a mnemonic in two sets
#: (``ret`` is a termination and a return) keeps the first set's value.
CATEGORY_OF: Dict[str, InstructionCategory] = {
    mnemonic: category
    for mnemonics, category in reversed((
        (CALLS, InstructionCategory.CALL),
        (TERMINATIONS, InstructionCategory.TERMINATION),
        (TRANSFERS, InstructionCategory.TRANSFER),
        (MOVS, InstructionCategory.MOV),
        (ARITHMETICS, InstructionCategory.ARITHMETIC),
        (COMPARES, InstructionCategory.COMPARE),
        (DATA_DECLARATIONS, InstructionCategory.DATA_DECLARATION),
    ))
    for mnemonic in mnemonics
}

#: Lower-cased mnemonic -> control-flow kind, filled the same way.
FLOW_KIND_OF: Dict[str, ControlFlowKind] = {
    mnemonic: kind
    for mnemonics, kind in reversed((
        (CONDITIONAL_JUMPS, ControlFlowKind.CONDITIONAL_JUMP),
        (UNCONDITIONAL_JUMPS, ControlFlowKind.UNCONDITIONAL_JUMP),
        (CALLS, ControlFlowKind.CALL),
        (RETURNS, ControlFlowKind.RETURN),
        (TERMINATIONS, ControlFlowKind.TERMINATE),
    ))
    for mnemonic in mnemonics
}


def categorize(mnemonic: str) -> InstructionCategory:
    """Map a mnemonic to its Table I attribute category.

    Unknown mnemonics fall into :attr:`InstructionCategory.OTHER`; they
    still contribute to the "total instructions" attribute.
    """
    return CATEGORY_OF.get(mnemonic.lower(), InstructionCategory.OTHER)


def control_flow_kind(mnemonic: str) -> ControlFlowKind:
    """Map a mnemonic to its control-flow behaviour for the CFG builder."""
    return FLOW_KIND_OF.get(mnemonic.lower(), ControlFlowKind.SEQUENTIAL)
