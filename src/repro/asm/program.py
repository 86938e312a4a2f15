"""Program: a one-to-one mapping from sorted addresses to instructions.

Section IV-A of the paper: "we first pre-process the input files so that
the resulting program ``P`` is a one-to-one mapping from sorted addresses
to assembly instructions, e.g. ``P : Z+ -> I``".  A :class:`Program`
holds ``P`` as columns, one entry per instruction, and makes an
:class:`Instruction` only when one is asked for.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.asm.instruction import Instruction, split_operands
from repro.exceptions import AsmParseError


def int_column(values: Sequence[int]) -> np.ndarray:
    """``values`` as int64, or as exact Python ints past int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def iter_instructions(
    addresses: np.ndarray,
    sizes: np.ndarray,
    mnemonics: Sequence[str],
    operands: Sequence[str],
) -> Iterator[Instruction]:
    """One :class:`Instruction` per row of the columns."""
    for address, size, mnemonic, text in zip(
        addresses.tolist(), sizes.tolist(), mnemonics, operands
    ):
        yield Instruction(address, mnemonic, split_operands(text), size)


class Program:
    """An immutable address-ordered instruction sequence, held as columns.

    ``addresses`` are ascending and unique (:func:`int_column`);
    ``sizes`` follow the gap rule: each instruction's size is the
    distance to the next address, so ``address + size`` lands on the
    textually next instruction as Algorithm 1 requires, and the last one
    keeps its own size, at least one.  ``mnemonics`` are lower-cased and
    ``operands`` holds each instruction's operand text, which
    :func:`split_operands` splits.
    """

    def __init__(self, instructions: Sequence[Instruction] = ()) -> None:
        instructions = list(instructions)
        seen = set()
        for inst in instructions:
            if inst.address in seen:
                raise AsmParseError(f"duplicate instruction address {inst.address:#x}")
            seen.add(inst.address)
        self._set(
            [inst.address for inst in instructions],
            [inst.size for inst in instructions],
            [inst.mnemonic for inst in instructions],
            [inst.operand_text() for inst in instructions],
        )

    @classmethod
    def from_rows(
        cls,
        addresses: List[int],
        sizes: List[int],
        mnemonics: List[str],
        operands: List[str],
    ) -> "Program":
        """The program of rows in listing order, as :meth:`AsmParser.parse` reads them.

        Rows are sorted by address, the first of a repeated address kept,
        as IDA listings repeat addresses for multi-line data items.
        """
        program = cls.__new__(cls)
        program._set(addresses, sizes, mnemonics, operands)
        return program

    def _set(self, addresses, sizes, mnemonics, operands) -> None:
        column = int_column(addresses)
        if not (column[1:] > column[:-1]).all():
            column, first = np.unique(column, return_index=True)
            rows = first.tolist()
            sizes = [sizes[i] for i in rows]
            mnemonics = [mnemonics[i] for i in rows]
            operands = [operands[i] for i in rows]
        gaps = np.empty(len(column), dtype=column.dtype)
        if len(column):
            gaps[:-1] = np.diff(column)
            gaps[-1] = max(sizes[-1], 1)
        self.addresses = column
        self.sizes = gaps
        self.mnemonics = mnemonics
        self.operands = operands

    def _row(self, address: int) -> Optional[int]:
        index = bisect.bisect_left(self.addresses, address)
        if index < len(self.addresses) and self.addresses[index] == address:
            return index
        return None

    def _instruction(self, row: int) -> Instruction:
        return next(iter_instructions(
            self.addresses[row:row + 1], self.sizes[row:row + 1],
            self.mnemonics[row:row + 1], self.operands[row:row + 1],
        ))

    def __len__(self) -> int:
        return len(self.mnemonics)

    def __contains__(self, address: int) -> bool:
        return self._row(address) is not None

    def __getitem__(self, address: int) -> Instruction:
        row = self._row(address)
        if row is None:
            raise KeyError(f"no instruction at address {address:#x}")
        return self._instruction(row)

    def get(self, address: int) -> Optional[Instruction]:
        """The instruction at ``address``, or ``None``."""
        row = self._row(address)
        return None if row is None else self._instruction(row)

    def __iter__(self) -> Iterator[Instruction]:
        return iter_instructions(
            self.addresses, self.sizes, self.mnemonics, self.operands
        )

    def first(self) -> Optional[Instruction]:
        """The instruction with the lowest address, or ``None`` if empty."""
        return self._instruction(0) if len(self) else None
