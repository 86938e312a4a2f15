"""Control flow graph: directed graph of basic blocks.

The CFG is the central data structure of MAGIC.  A vertex is a basic
block; a directed edge ``u -> v`` exists when the last instruction of
``u`` falls through to the first instruction of ``v`` or branches to
some instruction in ``v`` (Section II-A).

A graph is held as arrays: the instruction rows, the block of each row,
the block start addresses, and the edges as vertex indices, vertices
numbered in address order (:meth:`vertex_index`).
:meth:`repro.features.acfg.ACFG.from_cfg` reads the arrays directly;
:meth:`blocks`, :meth:`successors` and the other queries make
:class:`BasicBlock` views of them, and :meth:`to_networkx` bridges to
analysis and visualisation.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.asm.instruction import Instruction
from repro.asm.program import int_column, iter_instructions
from repro.cfg.basic_block import BasicBlock
from repro.exceptions import CfgConstructionError, SerializationError


class ControlFlowGraph:
    """A directed graph of basic blocks, ordered by start address.

    Parameters
    ----------
    rows:
        ``(addresses, sizes, mnemonics, operands)``, the columns of a
        :class:`~repro.asm.program.Program`, with the rows grouped by
        block in vertex order.  A graph built from a program shares the
        program's columns.
    owner:
        The vertex of each row, a non-decreasing int64 array.
    starts:
        The start address of each vertex, ascending.
    edge_index:
        The ``(2, E)`` int64 array of ``(source, destination)`` vertex
        pairs, sorted without duplicates.
    """

    def __init__(
        self,
        rows: Tuple[np.ndarray, np.ndarray, List[str], List[str]],
        owner: np.ndarray,
        starts: np.ndarray,
        edge_index: np.ndarray,
        name: str = "",
    ) -> None:
        self.addresses, self.sizes, self.mnemonics, self.operands = rows
        self.owner = owner
        self.starts = starts
        self.edge_index = edge_index
        self.name = name

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable[Tuple[int, Sequence[Instruction]]],
        edges: Iterable[Tuple[int, int]] = (),
        name: str = "",
    ) -> "ControlFlowGraph":
        """The graph of ``(start, instructions)`` blocks and address-pair edges.

        Blocks may come in any order and may be empty; parallel edges
        collapse.  A repeated block start raises
        :class:`CfgConstructionError`, and an edge naming a missing block
        :class:`SerializationError`.
        """
        blocks = sorted(blocks, key=itemgetter(0))
        vertex: Dict[int, int] = {}
        for start, _ in blocks:
            if start in vertex:
                raise CfgConstructionError(f"duplicate block at {start:#x}")
            vertex[start] = len(vertex)
        n = max(len(blocks), 1)
        keys = []
        for src, dst in edges:
            if src not in vertex or dst not in vertex:
                raise SerializationError(
                    f"edge ({src:#x}, {dst:#x}) references a missing block"
                )
            keys.append(vertex[src] * n + vertex[dst])
        keys = np.unique(np.array(keys, dtype=np.int64))
        instructions = [inst for _, block in blocks for inst in block]
        rows = (
            int_column([inst.address for inst in instructions]),
            int_column([inst.size for inst in instructions]),
            [inst.mnemonic for inst in instructions],
            [inst.operand_text() for inst in instructions],
        )
        owner = np.repeat(np.arange(len(blocks)), np.array(
            [len(block) for _, block in blocks], dtype=np.int64
        ))
        return cls(
            rows, owner, int_column(list(vertex)),
            np.stack([keys // n, keys % n]), name,
        )

    # ------------------------------------------------------------------
    # queries

    @property
    def num_vertices(self) -> int:
        return len(self.starts)

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    def __len__(self) -> int:
        return self.num_vertices

    def out_degrees(self) -> np.ndarray:
        """Number of successors of each vertex (a Table I attribute)."""
        return np.bincount(self.edge_index[0], minlength=self.num_vertices)

    def _vertex(self, start_address: int) -> int:
        """The vertex starting at ``start_address``, or -1."""
        index = bisect.bisect_left(self.starts, start_address)
        if index < self.num_vertices and self.starts[index] == start_address:
            return index
        return -1

    def _block(self, vertex: int) -> BasicBlock:
        lo, hi = np.searchsorted(self.owner, [vertex, vertex + 1]).tolist()
        return BasicBlock(int(self.starts[vertex]), list(iter_instructions(
            self.addresses[lo:hi], self.sizes[lo:hi],
            self.mnemonics[lo:hi], self.operands[lo:hi],
        )))

    def blocks(self) -> List[BasicBlock]:
        """All blocks in ascending start-address order."""
        return [self._block(vertex) for vertex in range(self.num_vertices)]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks())

    def get_block(self, start_address: int) -> Optional[BasicBlock]:
        vertex = self._vertex(start_address)
        return None if vertex < 0 else self._block(vertex)

    def successors(self, block: BasicBlock) -> List[BasicBlock]:
        """Successor blocks of ``block`` in ascending address order."""
        src, dst = self.edge_index
        targets = dst[src == self._vertex(block.start_address)]
        return [self._block(vertex) for vertex in targets.tolist()]

    def out_degree(self, block: BasicBlock) -> int:
        """Number of offspring of ``block`` (a Table I attribute)."""
        vertex = self._vertex(block.start_address)
        return int(np.count_nonzero(self.edge_index[0] == vertex))

    def in_degree(self, block: BasicBlock) -> int:
        """Number of predecessors of ``block``."""
        vertex = self._vertex(block.start_address)
        return int(np.count_nonzero(self.edge_index[1] == vertex))

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as ``(src_start, dst_start)`` address pairs, sorted."""
        starts = self.starts.tolist()
        return [(starts[src], starts[dst]) for src, dst in zip(*self.edge_index.tolist())]

    def entry_block(self) -> Optional[BasicBlock]:
        """The block with the lowest start address, or ``None`` if empty."""
        return self._block(0) if self.num_vertices else None

    def total_instructions(self) -> int:
        return len(self.mnemonics)

    # ------------------------------------------------------------------
    # vertex numbering (Section III-A notation)

    def vertex_index(self) -> Dict[int, int]:
        """Map block start address -> dense vertex index (address order)."""
        return {start: i for i, start in enumerate(self.starts.tolist())}

    # ------------------------------------------------------------------
    # interop

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with block metadata."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        sizes = np.bincount(self.owner, minlength=self.num_vertices).tolist()
        for start, size in zip(self.starts.tolist(), sizes):
            graph.add_node(start, num_instructions=size)
        graph.add_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:
        return (
            f"ControlFlowGraph(name={self.name!r}, "
            f"vertices={self.num_vertices}, edges={self.num_edges})"
        )
