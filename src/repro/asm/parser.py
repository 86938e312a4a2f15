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
from typing import Dict, List, Optional, Tuple

from repro.asm.instruction import HEX_SUFFIX_LITERAL
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

#: IDA operand decorations, possibly stacked (``dword ptr ...``,
#: ``offset loc_401000``, ``near ptr sub_401020``): each is a word in
#: any ASCII case, one space, then any whitespace.
_DECORATIONS_RE = re.compile(
    r"(?:(?ai:short|near|far|ptr|offset|dword|word|byte|qword) \s*)*"
)

#: Literal jump targets: ``0Ah``-style hex, and bare hex addresses.
_HEX_SUFFIX_TARGET_RE = re.compile(HEX_SUFFIX_LITERAL)
_BARE_HEX_TARGET_RE = re.compile(r"[0-9a-fA-F]{4,16}")

#: Directive mnemonics that are not instructions and carry no address flow.
_SKIPPED_DIRECTIVES = frozenset({
    "proc", "endp", "segment", "ends", "assume", "public", "extrn",
    "include", "model", "org", "end",
})
_LONGEST_DIRECTIVE = max(map(len, _SKIPPED_DIRECTIVES))

#: One line of the listing, matched by the first alternative that fits:
#:
#: 1. ``[section:]address [hex bytes] mnemonic [operands] [; comment]``
#:    that is neither a named data item nor an addressed label: groups
#:    (address, bytes, mnemonic, operands);
#: 2. ``[section:]label: [; comment]``: group label;
#: 3. a blank or comment-only line: no group;
#: 4. anything else, which the per-line grammar
#:    (:meth:`AsmParser._parse_instruction_line`) handles: group line.
#:
#: The first two agree with the per-line grammar on every line they
#: match, so the grammar has one implementation.  Operands end at
#: whitespace as ``str.strip`` sees it, which includes ``\x1c``-``\x1f``
#: even where ``\s`` is ASCII-only.
_LINE_PATTERN = (
    r"^(?:"
    # ``_ADDRESS_RE``'s ``\s*:?\s+`` as its first match takes it, in a
    # form that cannot backtrack through a long run of blanks.
    r"[ \t]*(?:[.\w]+:)?(0x[0-9a-fA-F]+|[0-9a-fA-F]{4,16})(?:[ \t]*:[ \t]+|[ \t]+)"
    # Hex bytes as ``_BYTES_RE`` takes them from the line without its
    # comment and trailing blanks: the whole run when a mnemonic follows
    # it, else none (a lookahead is atomic).
    r"(?=((?:{pair})+(?!{pair})(?=[A-Za-z])|))\2"
    r"([A-Za-z][\w.]*)"
    r"(?:[ \t]+(?!(?i:db|dw|dd|dq|dt|unicode)\b)"
    r"([^\s\x1c-\x1f;]+(?:[ \t]+[^\s\x1c-\x1f;]+)*))?"
    r"[ \t]*(?:;[^\n]*)?"
    r"|[ \t]*(?:[.\w]+:)?([A-Za-z_@?$][\w@?$]*):[ \t]*(?:;[^\n]*)?"
    r"|[ \t]*(?:;[^\n]*)?"
    r"|([^\n]+)"
    r")$"
).replace("{pair}", r"[0-9a-fA-F]{2}[ \t]+(?=[^ \t;\n])")
_LINE_RE = re.compile(_LINE_PATTERN, re.MULTILINE)
#: The same for ASCII text, where ``\w`` means the same and runs faster.
_ASCII_LINE_RE = re.compile(_LINE_PATTERN, re.MULTILINE | re.ASCII)

#: Line breaks of ``str.splitlines`` in ASCII text besides ``\n``.
_ASCII_BREAKS = "\r\v\f\x1c\x1d\x1e"

#: One parsed instruction line: (address, mnemonic, operand text, encoded size).
_Row = Tuple[int, str, str, int]


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
        """Parse listing text into a :class:`Program` with one regex pass.

        Instruction sizes follow the gap rule (:class:`Program`), so the
        fall-through address ``address + size`` always lands on the
        textually next instruction, as Algorithm 1 requires.  Lines are
        numbered as ``str.splitlines`` numbers them.
        """
        self.skipped_lines = 0
        self.labels = {}
        if text.isascii():
            pattern = _ASCII_LINE_RE
            split = any(map(text.__contains__, _ASCII_BREAKS))
        else:
            pattern, split = _LINE_RE, True
        if split:
            # ``$`` and ``[^\n]`` know no other line break: re-join the
            # lines ``str.splitlines`` sees.
            text = "\n".join(text.splitlines())
        labels = self.labels
        addresses: List[int] = []
        mnemonics: List[str] = []
        operands: List[str] = []
        sizes: List[int] = []
        add_address, add_mnemonic = addresses.append, mnemonics.append
        add_operands, add_size = operands.append, sizes.append
        pending: List[str] = []
        for number, (address, hex_bytes, mnemonic, rest, label, line) in enumerate(
            pattern.findall(text), start=1
        ):
            if address:
                mnemonic = mnemonic.lower()
                if mnemonic in _SKIPPED_DIRECTIVES or (
                    len(rest) <= _LONGEST_DIRECTIVE
                    and rest.lower() in _SKIPPED_DIRECTIVES
                ):
                    continue
                address = int(address, 16)
                size = len(hex_bytes.split()) if hex_bytes else 0
            elif label:
                pending.append(label)
                continue
            elif line:
                row = self._parse_line(line, number, pending)
                if row is None:
                    continue
                address, mnemonic, rest, size = row
            else:
                continue
            if pending:
                for name in pending:
                    labels[name] = address
                pending = []
            add_address(address)
            add_mnemonic(mnemonic)
            add_operands(rest)
            add_size(size)
        program = Program.from_rows(addresses, sizes, mnemonics, operands)
        if len(program):
            # A label at end-of-file points one past the last instruction.
            for label in pending:
                labels.setdefault(label, int(program.addresses[-1]) + 1)
        return program

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

    def _parse_line(
        self, raw_line: str, line_number: int, pending: List[str]
    ) -> Optional[_Row]:
        line = raw_line.split(";", 1)[0].rstrip()
        if not line:
            return None
        # Every label form ends in a colon; only those lines are tried.
        label_match = line.endswith(":") and _LABEL_RE.match(line)
        if label_match:
            pending.append(label_match.group("label"))
            return None
        return self._parse_instruction_line(line, line_number)

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
            return address, decl.lower(), rest, size

        mnemonic = mnemonic.lower()
        if mnemonic in _SKIPPED_DIRECTIVES:
            return None
        # Trailing ``endp``/``proc`` markers: ``sub_401000 endp``.
        if rest.strip().lower() in _SKIPPED_DIRECTIVES:
            return None
        return address, mnemonic, rest, size

    def _skip(self, line: str, line_number: int, reason: str) -> None:
        if self.strict:
            raise AsmParseError(f"{reason}: {line.strip()!r}", line_number)
        self.skipped_lines += 1
        return None

    def resolve_target(self, operand: str) -> Optional[int]:
        """Resolve a jump/call operand to a destination address.

        Handles symbolic ``loc_``/``sub_`` names, labels collected during
        parsing, and literal hex/decimal addresses.  Register-indirect and
        memory targets resolve to ``None`` (statically unknown), which the
        CFG builder treats as "no edge", the same policy the paper's
        implementation applies.
        """
        token = operand.strip()
        token = token[_DECORATIONS_RE.match(token).end():]
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
