"""Program: a one-to-one mapping from sorted addresses to instructions.

Section IV-A of the paper: "we first pre-process the input files so that
the resulting program ``P`` is a one-to-one mapping from sorted addresses
to assembly instructions, e.g. ``P : Z+ -> I``".  This module provides
that structure plus the iteration helpers (``getNextInst``) that
Algorithm 2 assumes.

A program parsed from text (:meth:`Program.from_columns`) holds the
parser's columns and makes its :class:`Instruction` objects on first use,
so a front end that reads only the columns makes none.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.asm.instruction import Instruction
from repro.exceptions import AsmParseError

#: The attributes a program made from columns fills on first use.
_OBJECT_VIEW = frozenset({"_by_address", "_sorted_addresses", "_sorted_dirty"})


class Program:
    """An ordered, address-indexed sequence of instructions.

    The class maintains the invariant that instruction addresses are
    unique and iteration is in ascending address order, which is what the
    two-pass CFG construction relies on.
    """

    #: The parser's columns (:class:`repro.asm.parser.Listing`) while no
    #: instruction object has been made, else ``None``.
    columns: Optional[Any] = None

    def __init__(self, instructions: Iterable[Instruction] = ()) -> None:
        self._by_address: Dict[int, Instruction] = {}
        self._sorted_addresses: List[int] = []
        self._sorted_dirty = False
        for instruction in instructions:
            self.add(instruction)

    @classmethod
    def from_columns(cls, listing: Any) -> "Program":
        """The program of a scanned listing, its instructions made on first use.

        ``listing`` is a :class:`repro.asm.parser.Listing`; its
        ``instructions()`` are made the first time anything but
        :attr:`columns` or ``len`` is asked for, and from then on the
        objects are the program and :attr:`columns` is ``None``.
        """
        program = cls.__new__(cls)
        program.columns = listing
        return program

    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes not yet set: a program made from
        # columns makes its instruction objects now.
        listing = self.columns
        if name not in _OBJECT_VIEW or listing is None:
            raise AttributeError(name)
        self.columns = None
        Program.__init__(self, listing.instructions())
        return self.__dict__[name]

    def add(self, instruction: Instruction) -> None:
        """Insert an instruction; addresses must be unique."""
        if instruction.address in self._by_address:
            raise AsmParseError(
                f"duplicate instruction address {instruction.address:#x}"
            )
        self._by_address[instruction.address] = instruction
        self._sorted_addresses.append(instruction.address)
        self._sorted_dirty = True

    def _ensure_sorted(self) -> None:
        if self._sorted_dirty:
            self._sorted_addresses.sort()
            self._sorted_dirty = False

    def __len__(self) -> int:
        if self.columns is not None:
            return len(self.columns)
        return len(self._by_address)

    def __contains__(self, address: int) -> bool:
        return address in self._by_address

    def __getitem__(self, address: int) -> Instruction:
        try:
            return self._by_address[address]
        except KeyError:
            raise KeyError(f"no instruction at address {address:#x}") from None

    def get(self, address: int) -> Optional[Instruction]:
        """The instruction at ``address``, or ``None``."""
        return self._by_address.get(address)

    def __iter__(self) -> Iterator[Instruction]:
        self._ensure_sorted()
        for address in self._sorted_addresses:
            yield self._by_address[address]

    @property
    def addresses(self) -> List[int]:
        """All instruction addresses in ascending order."""
        self._ensure_sorted()
        return list(self._sorted_addresses)

    def first(self) -> Optional[Instruction]:
        """The instruction with the lowest address, or ``None`` if empty."""
        self._ensure_sorted()
        if not self._sorted_addresses:
            return None
        return self._by_address[self._sorted_addresses[0]]

    def next_instruction(self, instruction: Instruction) -> Optional[Instruction]:
        """``getNextInst(P, inst)`` from Algorithm 2.

        Returns the instruction that textually follows ``instruction``
        (the one at the next higher address), or ``None`` when
        ``instruction`` is the last one.
        """
        self._ensure_sorted()
        # Fast path: contiguous encodings mean next_address is usually it.
        fast = self._by_address.get(instruction.next_address)
        if fast is not None:
            return fast
        # Slow path: binary search for the next higher address (listings
        # may contain gaps between sections).
        import bisect

        index = bisect.bisect_right(self._sorted_addresses, instruction.address)
        if index >= len(self._sorted_addresses):
            return None
        return self._by_address[self._sorted_addresses[index]]

    def nearest_at_or_after(self, address: int) -> Optional[Instruction]:
        """The instruction at ``address``, or the first one after it.

        Jump targets occasionally land between instructions in noisy
        disassembly; resolving them to the next real instruction mirrors
        what IDA-style tools do.
        """
        exact = self._by_address.get(address)
        if exact is not None:
            return exact
        import bisect

        self._ensure_sorted()
        index = bisect.bisect_left(self._sorted_addresses, address)
        if index >= len(self._sorted_addresses):
            return None
        return self._by_address[self._sorted_addresses[index]]
