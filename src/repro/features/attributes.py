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

"More attributes can be conveniently added" (Section II-B): register an
extractor with :func:`register_attribute` and every downstream consumer —
ACFG construction, datasets, models — picks it up through
:func:`attribute_names` / :func:`extract_block_attributes`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.asm.instruction import NUMERIC_CONSTANT_RE
from repro.asm.isa import CATEGORY_OF, InstructionCategory
from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import FeatureExtractionError

#: Extractor signature: (block, graph) -> float.
AttributeExtractor = Callable[[BasicBlock, ControlFlowGraph], float]

#: Mnemonic -> bincount code.  ``InstructionCategory`` lists the seven
#: Table I categories in channel order and OTHER last, so a code is its
#: category's channel offset and OTHER's code is read by no channel.
_NUM_CODES = len(InstructionCategory)
_CODE_OF: Dict[str, int] = {
    mnemonic: list(InstructionCategory).index(category)
    for mnemonic, category in CATEGORY_OF.items()
}

#: Ordered registry of attribute channels; order defines channel order.
#: Built-ins map to ``None`` (:func:`_extract` computes them together).
_REGISTRY: Dict[str, Optional[AttributeExtractor]] = dict.fromkeys((
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
))

#: The 11 attributes of Table I, in registry order.
DEFAULT_ATTRIBUTES: List[str] = list(_REGISTRY)


def attribute_names() -> List[str]:
    """Names of all registered attributes, in channel order."""
    return list(_REGISTRY)


def num_attributes() -> int:
    """Number of registered attribute channels (``c`` in the paper)."""
    return len(_REGISTRY)


def register_attribute(name: str, extractor: AttributeExtractor) -> None:
    """Register a custom block attribute.

    The new channel is appended after the existing ones.  Re-registering
    an existing name is rejected to keep channel order stable.
    """
    if name in _REGISTRY:
        raise FeatureExtractionError(f"attribute {name!r} already registered")
    _REGISTRY[name] = extractor


def unregister_attribute(name: str) -> None:
    """Remove a previously registered custom attribute."""
    if name in DEFAULT_ATTRIBUTES:
        raise FeatureExtractionError(f"cannot remove built-in attribute {name!r}")
    if name not in _REGISTRY:
        raise FeatureExtractionError(f"attribute {name!r} is not registered")
    del _REGISTRY[name]


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


def custom_extractors() -> List[AttributeExtractor]:
    """The registered extractors after the Table I channels, in order."""
    return [fn for fn in _REGISTRY.values() if fn is not None]


def extract_attribute_matrix(graph: ControlFlowGraph) -> np.ndarray:
    """The attribute matrix ``X`` of shape ``(n, c)`` in vertex order.

    The Table I channels come from the graph's arrays
    (:func:`table_one`); custom extractors run once per block of
    ``graph.blocks()``.
    """
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
    custom = custom_extractors()
    if not custom:
        return table
    extra = np.array(
        [[fn(block, graph) for fn in custom] for block in graph.blocks()],
        dtype=np.float64,
    )
    return np.column_stack([table, extra])


def extract_block_attributes(
    block: BasicBlock, graph: ControlFlowGraph
) -> np.ndarray:
    """The attribute vector of one block of ``graph``, shape ``(c,)``."""
    return extract_attribute_matrix(graph)[graph.vertex_index()[block.start_address]]
