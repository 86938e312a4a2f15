"""Instruction model.

An :class:`Instruction` is one line of a disassembled program: an address,
a mnemonic, and operands.  A :class:`~repro.asm.program.Program` keeps
each instruction's operands as the text the listing gave
(:meth:`Instruction.operand_text`); :func:`split_operands` splits it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.asm.isa import (
    ControlFlowKind,
    InstructionCategory,
    categorize,
    control_flow_kind,
)

#: An h-suffixed hex literal starts with a decimal digit (``0Ah``,
#: ``0FFh``), as IDA and MASM write them; so ``ah``, ``bh``, ``ch`` and
#: ``dh`` stay registers.
HEX_SUFFIX_LITERAL = r"[0-9][0-9a-fA-F]*h"

#: Immediate numeric operands: decimal, hex (0x1F or 1Fh).  Leading with
#: the token's first digit lets the scanner skip straight to digits.
NUMERIC_CONSTANT_RE = re.compile(
    r"\d(?<![\w.]\d)"
    r"(?:(?<=0)x[0-9a-fA-F]+"       # 0x1F
    r"|(?<=[0-9])[0-9a-fA-F]*h"     # 1Fh, 0FFh: HEX_SUFFIX_LITERAL
    r"|\d*)"                        # 42
    r"(?![\w.])"
)


#: Bracket characters and their effect on the nesting depth.
_BRACKET_RE = re.compile(r"[()\[\]{}]")
_DEPTH_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def count_numeric_constants(operand_text: str) -> int:
    """Number of literal decimal/hex tokens in ``operand_text``."""
    return len(NUMERIC_CONSTANT_RE.findall(operand_text))


def split_operands(rest: str) -> List[str]:
    """Split an operand string on top-level commas.

    Commas inside brackets (memory operands such as ``[eax+ebx*4]`` never
    contain commas in x86, but some macro operands might) are preserved.
    """
    operands: List[str] = []
    depth = 0
    pending = ""
    for piece in rest.split(","):
        # A piece opened inside brackets joins the operand it continues.
        pending = pending + "," + piece if depth else piece
        for bracket in _BRACKET_RE.findall(piece):
            depth += _DEPTH_STEP[bracket]
        if depth == 0:
            operands.append(pending)
    if depth:
        operands.append(pending)
    return [stripped for operand in operands if (stripped := operand.strip())]


def first_operand(text: str) -> Optional[str]:
    """``split_operands(text)[0]``, or ``None`` when there is no operand."""
    if "," not in text:
        return text.strip() or None
    operands = split_operands(text)
    return operands[0] if operands else None


@dataclass
class Instruction:
    """A single assembly instruction.

    Parameters
    ----------
    address:
        Virtual address of the instruction (unique within a program).
    mnemonic:
        Lower-cased operation mnemonic, e.g. ``"mov"`` or ``"jnz"``.
    operands:
        Raw operand strings, e.g. ``["eax", "[ebp+8]"]``.
    size:
        Encoded size in bytes; ``address + size`` is the fall-through
        address used by Algorithm 1.
    """

    address: int
    mnemonic: str
    operands: List[str] = field(default_factory=list)
    size: int = 1

    def __post_init__(self) -> None:
        self.mnemonic = self.mnemonic.lower()

    @property
    def category(self) -> InstructionCategory:
        """Table I attribute category of this instruction."""
        return categorize(self.mnemonic)

    @property
    def flow_kind(self) -> ControlFlowKind:
        """Control-flow behaviour used by the CFG builder."""
        return control_flow_kind(self.mnemonic)

    @property
    def next_address(self) -> int:
        """Address of the instruction that textually follows this one."""
        return self.address + self.size

    def count_numeric_constants(self) -> int:
        """Number of immediate numeric constants among the operands.

        Memory-operand base registers and the like do not count; only
        literal decimal/hex tokens do.  This feeds the "# Numeric
        Constants" attribute of Table I.
        """
        return count_numeric_constants(self.operand_text())

    def operand_text(self) -> str:
        """The operands re-joined the way they appeared in the listing."""
        return ", ".join(self.operands)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        text = f"{self.address:#010x}  {self.mnemonic}"
        if self.operands:
            text += " " + self.operand_text()
        return text
