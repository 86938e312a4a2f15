"""Block-level attribute extraction (Table I of the paper).

Each basic block is summarized by 11 numeric attributes:

From the code sequence (independent of graph structure):
  0. # Numeric Constants
  1. # Transfer Instructions
  2. # Call Instructions
  3. # Arithmetic Instructions
  4. # Compare Instructions
  5. # Mov Instructions
  6. # Termination Instructions
  7. # Data Declaration Instructions
  8. # Total Instructions

From the vertex structure:
  9. # Offspring, i.e. out-degree
 10. # Instructions in the Vertex

"More attributes can be conveniently added" (Section II-B): a *layout*
is a tuple of attribute names, Table I's eleven
(:data:`DEFAULT_ATTRIBUTES`) followed by any of four extras, each at
most once and in :data:`EXTENDED_ATTRIBUTES` order:

 11. # In-degree, i.e. predecessors (join points, loop headers)
 12. Mnemonic entropy, in bits, of the block's mnemonic distribution
 13. # Unique mnemonics
 14. # Operands

The layout travels as a value: extraction, worker contexts, the
extraction journal and model archives all carry it.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.asm.instruction import NUMERIC_CONSTANT_RE, split_operands
from repro.asm.isa import CATEGORY_OF, InstructionCategory
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import FeatureExtractionError

#: Mnemonic -> bincount code.  ``InstructionCategory`` lists the seven
#: Table I categories in channel order and OTHER last, so a code is its
#: category's channel offset and OTHER's code is read by no channel.
_NUM_CODES = len(InstructionCategory)
_CODE_OF: Dict[str, int] = {
    mnemonic: list(InstructionCategory).index(category)
    for mnemonic, category in CATEGORY_OF.items()
}

#: The 11 attributes of Table I in channel order: the default layout.
DEFAULT_ATTRIBUTES: Tuple[str, ...] = (
    "numeric_constants",
    "transfer_instructions",
    "call_instructions",
    "arithmetic_instructions",
    "compare_instructions",
    "mov_instructions",
    "termination_instructions",
    "data_declaration_instructions",
    "total_instructions",
    "offspring",
    "vertex_instructions",
)

#: Table I followed by every extra: the widest layout.
EXTENDED_ATTRIBUTES: Tuple[str, ...] = DEFAULT_ATTRIBUTES + (
    "in_degree",
    "mnemonic_entropy",
    "unique_mnemonics",
    "operand_count",
)


#: The names a layout may append after Table I, in layout order.
_EXTRAS = EXTENDED_ATTRIBUTES[len(DEFAULT_ATTRIBUTES):]


def check_layout(layout: Sequence[str]) -> Tuple[str, ...]:
    """``layout`` as a tuple, if it is one; else :class:`FeatureExtractionError`."""
    layout = tuple(layout)
    head, tail = layout[:len(DEFAULT_ATTRIBUTES)], layout[len(DEFAULT_ATTRIBUTES):]
    extras = iter(_EXTRAS)
    # ``in`` advances the iterator: the extras must come in order, once each.
    if head != DEFAULT_ATTRIBUTES or not all(name in extras for name in tail):
        raise FeatureExtractionError(
            f"attribute layout {list(layout)} is not Table I followed by "
            f"extras of {list(_EXTRAS)}, each at most once and in that order"
        )
    return layout


def category_codes(mnemonics: Sequence[str]) -> np.ndarray:
    """The bincount code of each lower-cased mnemonic, one dict probe each."""
    return np.fromiter(
        map(_CODE_OF.get, mnemonics, repeat(_NUM_CODES - 1)),
        np.int64,
        len(mnemonics),
    )


def table_one(
    owner: np.ndarray,
    codes: np.ndarray,
    operand_text: Sequence[str],
    out_degrees: np.ndarray,
) -> np.ndarray:
    """The eleven Table I channels of every block, shape ``(n, 11)``.

    Instruction ``i`` belongs to block ``owner[i]``, has category code
    ``codes[i]`` (:func:`category_codes`) and operand text
    ``operand_text[i]``; ``n`` is ``len(out_degrees)``.  The seven
    category channels are one ``bincount`` over ``(block, code)`` pairs,
    and numeric constants are one regex pass over the joined operand
    text, each match charged to its instruction's block by offset.
    """
    n = len(out_degrees)
    sizes = np.bincount(owner, minlength=n)
    counts = np.bincount(
        owner * _NUM_CODES + codes, minlength=n * _NUM_CODES
    ).reshape(n, _NUM_CODES)
    # Literals never span the newline between two instructions' operands.
    ends = np.cumsum(
        np.fromiter(map(len, operand_text), np.int64, len(operand_text)) + 1
    )
    hits = np.fromiter(
        (match.start() for match in NUMERIC_CONSTANT_RE.finditer("\n".join(operand_text))),
        np.int64,
    )
    constants = np.bincount(
        owner[np.searchsorted(ends, hits, side="right")], minlength=n
    )
    return np.column_stack(
        [constants, counts[:, :-1], sizes, out_degrees, sizes]
    ).astype(np.float64)


def _extra_columns(graph: ControlFlowGraph, extras: Sequence[str]) -> List[np.ndarray]:
    """One column per name of ``extras``, the part of a layout past Table I.

    In-degree counts edge destinations and the operand count charges
    each row's :func:`split_operands` to its block.  The mnemonic
    channels read the unique ``(block, mnemonic)`` pairs in
    first-occurrence order; ``np.subtract.at`` is unbuffered, so each
    block's entropy subtracts its ``p * log2(p)`` terms one at a time in
    that order, as a per-block loop would.
    """
    n, owner = graph.num_vertices, graph.owner
    columns: Dict[str, np.ndarray] = {}
    if "in_degree" in extras:
        columns["in_degree"] = np.bincount(graph.edge_index[1], minlength=n)
    if "operand_count" in extras:
        operands = np.fromiter(
            map(len, map(split_operands, graph.operands)), np.float64, len(owner)
        )
        columns["operand_count"] = np.bincount(owner, operands, minlength=n)
    if "mnemonic_entropy" in extras or "unique_mnemonics" in extras:
        ids: Dict[str, int] = {}
        codes = np.fromiter(
            (ids.setdefault(m, len(ids)) for m in graph.mnemonics), np.int64, len(owner)
        )
        _, first, counts = np.unique(
            owner * len(ids) + codes, return_index=True, return_counts=True
        )
        # Rows are grouped by block, so their first rows group the pairs too.
        order = np.argsort(first)
        blocks, counts = owner[first[order]], counts[order]
        columns["unique_mnemonics"] = np.bincount(blocks, minlength=n)
        p = counts / np.bincount(owner, minlength=n)[blocks]
        terms = p * np.fromiter(map(math.log2, p.tolist()), np.float64, len(p))
        columns["mnemonic_entropy"] = np.zeros(n)
        np.subtract.at(columns["mnemonic_entropy"], blocks, terms)
    return [columns[name] for name in extras]


def extract_attribute_matrix(
    graph: ControlFlowGraph, layout: Sequence[str] = DEFAULT_ATTRIBUTES
) -> np.ndarray:
    """The attribute matrix ``X`` of shape ``(n, len(layout))`` in vertex order.

    Every channel is a column operation over the graph's arrays: Table I
    from :func:`table_one`, and each extra the layout names from
    :func:`_extra_columns`.
    """
    extras = check_layout(layout)[len(DEFAULT_ATTRIBUTES):]
    if not graph.num_vertices:
        raise FeatureExtractionError(
            f"cannot extract attributes from empty CFG {graph.name!r}"
        )
    table = table_one(
        graph.owner,
        category_codes(graph.mnemonics),
        graph.operands,
        graph.out_degrees(),
    )
    if not extras:
        return table
    return np.column_stack([table, *_extra_columns(graph, extras)])
