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

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.asm.instruction import count_numeric_constants
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


def _extract(blocks: Sequence[BasicBlock], graph: ControlFlowGraph) -> np.ndarray:
    """Attribute rows of ``blocks``: the Table I channels, then custom ones.

    Each instruction is classified once, and the seven category channels
    are one ``bincount`` over ``(block, category code)`` pairs.  Custom
    extractors run once per block.
    """
    sizes = np.fromiter((len(block) for block in blocks), np.int64, len(blocks))
    codes = np.fromiter(
        (_CODE_OF.get(inst.mnemonic.lower(), _NUM_CODES - 1)
         for block in blocks for inst in block.instructions),
        np.int64,
        int(sizes.sum()),
    )
    owner = np.repeat(np.arange(len(blocks)), sizes)
    counts = np.bincount(
        owner * _NUM_CODES + codes, minlength=len(blocks) * _NUM_CODES
    ).reshape(len(blocks), _NUM_CODES)
    # One scan per block: literals never span the ", " between operands.
    constants = [
        count_numeric_constants(", ".join(
            [operand for inst in block.instructions for operand in inst.operands]
        ))
        for block in blocks
    ]
    offspring = [graph.out_degree(block) for block in blocks]
    custom = [fn for fn in _REGISTRY.values() if fn is not None]
    extra = np.array(
        [[fn(block, graph) for fn in custom] for block in blocks], dtype=np.float64
    )
    return np.column_stack(
        [constants, counts[:, :-1], sizes, offspring, sizes, extra]
    )


def extract_block_attributes(
    block: BasicBlock, graph: ControlFlowGraph
) -> np.ndarray:
    """The attribute vector of one block, shape ``(c,)``."""
    return _extract([block], graph)[0]


def extract_attribute_matrix(graph: ControlFlowGraph) -> np.ndarray:
    """The attribute matrix ``X`` of shape ``(n, c)`` in vertex order."""
    blocks = graph.blocks()
    if not blocks:
        raise FeatureExtractionError(
            f"cannot extract attributes from empty CFG {graph.name!r}"
        )
    return _extract(blocks, graph)
