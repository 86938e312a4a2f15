"""Parser for IDA Pro-style ``.asm`` listings.

The Microsoft Malware Classification Challenge ships one ``.asm`` file per
sample, produced by IDA Pro.  A representative line looks like::

    .text:00401000 55 8B EC                 push    ebp ; set up frame

i.e. ``<section>:<hex address> [hex bytes] <mnemonic> [operands] [; comment]``.
This parser also accepts the two simpler shapes used by our synthetic
corpus and by hand-written tests::

    00401000: push ebp
    0x401000  push ebp

Label-only lines (``loc_401010:``) attach a symbolic name to the next
instruction's address so jumps may refer to them by name.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.asm.instruction import HEX_SUFFIX_LITERAL, Instruction
from repro.asm.program import Program
from repro.exceptions import AsmParseError

#: ``.text:00401000`` or ``00401000:`` or ``0x401000`` at line start.
_ADDRESS_RE = re.compile(
    r"^\s*(?:(?P<section>[.\w]+):)?(?P<addr>0x[0-9a-fA-F]+|[0-9a-fA-F]{4,16})\s*:?\s+"
)

#: A run of hex byte pairs right after the address, e.g. ``55 8B EC``.
_BYTES_RE = re.compile(r"^((?:[0-9a-fA-F]{2}\s+)+)")

#: A label-only line: ``loc_401010:`` possibly preceded by a section.
_LABEL_RE = re.compile(r"^\s*(?:[.\w]+:)?(?P<label>[A-Za-z_@?$][\w@?$]*):\s*(?:;.*)?$")

#: A mnemonic token.
_MNEMONIC_RE = re.compile(r"^(?P<mnemonic>[A-Za-z][\w.]*)\s*(?P<rest>.*)$")

#: A label on an addressed line: ``.text:00401000 sub_401000:``.
_ADDRESSED_LABEL_RE = re.compile(r"^(?P<label>[A-Za-z_@?$][\w@?$]*):\s*$")

#: An instruction body, tried in this order: a named data item
#: (``aGreeting db 'hello',0``), then a mnemonic and its operands.
_STATEMENT_RE = re.compile(
    r"^(?:(?P<label>[A-Za-z_@?$][\w@?$]*)\s+(?P<decl>(?i:db|dw|dd|dq|dt|unicode))\b\s*"
    r"|(?P<mnemonic>[A-Za-z][\w.]*)\s*)(?P<rest>.*)$"
)

#: Symbolic jump targets that encode their address, e.g. ``loc_401010``.
_SYMBOLIC_ADDR_RE = re.compile(r"^(?:loc|sub|locret|off|unk|byte|dword)_([0-9a-fA-F]+)$")

#: Literal jump targets: ``0Ah``-style hex, and bare hex addresses.
_HEX_SUFFIX_TARGET_RE = re.compile(HEX_SUFFIX_LITERAL)
_BARE_HEX_TARGET_RE = re.compile(r"[0-9a-fA-F]{4,16}")

#: Bracket characters and their effect on the nesting depth.
_BRACKET_RE = re.compile(r"[()\[\]{}]")
_DEPTH_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}

#: One parsed instruction line: (address, mnemonic, operands, encoded size).
_Row = Tuple[int, str, List[str], int]

#: Directive mnemonics that are not instructions and carry no address flow.
_SKIPPED_DIRECTIVES = frozenset({
    "proc", "endp", "segment", "ends", "assume", "public", "extrn",
    "include", "model", "org", "end",
})


def _split_operands(rest: str) -> List[str]:
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


class AsmParser:
    """Parses assembly listing text into a :class:`Program`.

    Parameters
    ----------
    strict:
        When ``True``, unparseable non-empty lines raise
        :class:`AsmParseError`.  When ``False`` (the default, matching how
        MAGIC tolerates IDA's noisy output on packed samples) such lines
        are skipped and counted in :attr:`skipped_lines`.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.skipped_lines = 0
        self.labels: Dict[str, int] = {}

    def parse(self, text: str) -> Program:
        """Parse listing text into a :class:`Program`.

        The returned program has normalized instruction sizes: each
        instruction's ``size`` is the gap to the next address, so the
        fall-through address ``inst.addr + inst.size`` always lands on the
        textually-next instruction, as Algorithm 1 requires.
        """
        self.skipped_lines = 0
        self.labels = {}
        rows, pending_labels = self._parse_lines(text.splitlines())
        return self._build_program(rows, pending_labels)

    def parse_file(self, path: str) -> Program:
        """Parse an ``.asm`` file from disk (UTF-8 with latin-1 fallback)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError:
            with open(path, "r", encoding="latin-1") as handle:
                text = handle.read()
        return self.parse(text)

    # ------------------------------------------------------------------
    # internals

    def _parse_lines(self, lines: Iterable[str]) -> Tuple[List[_Row], List[str]]:
        rows: List[_Row] = []
        pending_labels: List[str] = []
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.split(";", 1)[0].rstrip()
            if not line:
                continue

            # Every label form ends in a colon; only those lines are tried.
            label_match = line.endswith(":") and _LABEL_RE.match(line)
            if label_match:
                pending_labels.append(label_match.group("label"))
                continue

            parsed = self._parse_instruction_line(line, line_number)
            if parsed is None:
                continue
            if pending_labels:
                for label in pending_labels:
                    self.labels[label] = parsed[0]
                pending_labels = []
            rows.append(parsed)
        return rows, pending_labels

    def _parse_instruction_line(self, line: str, line_number: int) -> Optional[_Row]:
        address_match = _ADDRESS_RE.match(line)
        if not address_match:
            return self._skip(line, line_number, "no address prefix")
        # ``int(token, 16)`` accepts the optional ``0x`` prefix too.
        address = int(address_match.group("addr"), 16)

        body = line[address_match.end():]
        size = 0
        bytes_match = _BYTES_RE.match(body)
        if bytes_match:
            hex_bytes = bytes_match.group(1).split()
            # Only treat it as encoded bytes when a mnemonic follows;
            # otherwise the "bytes" are data and the line is data-only.
            remainder = body[bytes_match.end():]
            if _MNEMONIC_RE.match(remainder.strip()):
                size = len(hex_bytes)
                body = remainder

        body = body.strip()

        # Label on its own addressed line: record and skip.
        addressed_label = body.endswith(":") and _ADDRESSED_LABEL_RE.match(body)
        if addressed_label:
            self.labels[addressed_label.group("label")] = address
            return None

        # Named data item: the name is a label, the declaration is the
        # instruction (Table I counts data declarations).
        statement = _STATEMENT_RE.match(body)
        if not statement:
            return self._skip(line, line_number, "no mnemonic")
        label, decl, mnemonic, rest = statement.groups()
        if decl:
            self.labels[label] = address
            return address, decl.lower(), _split_operands(rest), size

        mnemonic = mnemonic.lower()
        if mnemonic in _SKIPPED_DIRECTIVES:
            return None
        # Trailing ``endp``/``proc`` markers: ``sub_401000 endp``.
        if rest.strip().lower() in _SKIPPED_DIRECTIVES:
            return None
        operands = _split_operands(rest)
        return address, mnemonic, operands, size

    def _skip(self, line: str, line_number: int, reason: str) -> None:
        if self.strict:
            raise AsmParseError(f"{reason}: {line.strip()!r}", line_number)
        self.skipped_lines += 1
        return None

    def _build_program(self, rows: List[_Row], trailing_labels: List[str]) -> Program:
        # De-duplicate addresses keeping the first occurrence, mirroring
        # how IDA listings repeat addresses for multi-line data items.
        seen: Dict[int, _Row] = {}
        for row in rows:
            seen.setdefault(row[0], row)
        addresses = sorted(seen)

        program = Program()
        for index, address in enumerate(addresses):
            _, mnemonic, operands, size = seen[address]
            if index + 1 < len(addresses):
                size = addresses[index + 1] - address
            program.add(Instruction(address, mnemonic, operands, max(size, 1)))
        if addresses:
            # A label at end-of-file points one past the last instruction.
            for label in trailing_labels:
                self.labels.setdefault(label, addresses[-1] + 1)
        return program

    def resolve_target(self, operand: str) -> Optional[int]:
        """Resolve a jump/call operand to a destination address.

        Handles symbolic ``loc_``/``sub_`` names, labels collected during
        parsing, and literal hex/decimal addresses.  Register-indirect and
        memory targets resolve to ``None`` (statically unknown), which the
        CFG builder treats as "no edge", the same policy the paper's
        implementation applies.
        """
        token = operand.strip()
        # Strip IDA operand decorations, possibly stacked ("dword ptr ...",
        # "offset loc_401000", "near ptr sub_401020").
        stripped = True
        while stripped:
            stripped = False
            for prefix in ("short", "near", "far", "ptr", "offset",
                           "dword", "word", "byte", "qword"):
                if token.lower().startswith(prefix + " "):
                    token = token[len(prefix) + 1:].strip()
                    stripped = True
        if token in self.labels:
            return self.labels[token]
        symbolic = _SYMBOLIC_ADDR_RE.match(token)
        if symbolic:
            return int(symbolic.group(1), 16)
        if token.lower().startswith("0x"):
            try:
                return int(token, 16)
            except ValueError:
                return None
        if _HEX_SUFFIX_TARGET_RE.fullmatch(token):
            return int(token[:-1], 16)
        if _BARE_HEX_TARGET_RE.fullmatch(token):
            return int(token, 16)
        return None
