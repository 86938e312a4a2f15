"""Control flow graph: directed graph of basic blocks.

The CFG is the central data structure of MAGIC.  A vertex is a
:class:`BasicBlock`; a directed edge ``u -> v`` exists when the last
instruction of ``u`` falls through to the first instruction of ``v`` or
branches to some instruction in ``v`` (Section II-A).

The graph numbers its vertices in address order (:meth:`vertex_index`);
:meth:`repro.features.acfg.ACFG.from_cfg` turns :meth:`edges` into the
edge list DGCNN's operators ``Â = A + I`` and ``D̂^-1 Â`` are built
from.  :meth:`to_networkx` bridges to analysis and visualisation.

A graph built from a parsed program's columns
(:meth:`ControlFlowGraph.from_columns`) holds its vertices and edges as
arrays and makes its :class:`BasicBlock` objects on first use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.cfg.basic_block import BasicBlock
from repro.exceptions import CfgConstructionError

#: The attributes a graph made from columns fills on first use.
_OBJECT_VIEW = frozenset({"_blocks", "_successors"})


class ControlFlowGraph:
    """A directed graph of basic blocks, ordered by start address."""

    #: The blocks as arrays (:class:`repro.cfg.builder.BlockColumns`)
    #: while no block object has been made, else ``None``.
    columns: Optional[Any] = None

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._blocks: Dict[int, BasicBlock] = {}
        self._successors: Dict[int, Set[int]] = {}

    @classmethod
    def from_columns(
        cls,
        columns: Any,
        make_blocks: Callable[[], "ControlFlowGraph"],
        name: str = "",
    ) -> "ControlFlowGraph":
        """A graph over ``columns``, its block objects made on first use.

        ``columns`` is a :class:`repro.cfg.builder.BlockColumns`, and
        ``make_blocks()`` builds the same graph as objects.  It runs the
        first time anything but :attr:`name`, :attr:`columns` or the
        vertex and edge counts is asked for; from then on the objects
        are the graph and :attr:`columns` is ``None``.
        """
        graph = cls.__new__(cls)
        graph.name = name
        graph.columns = columns
        graph._make_blocks = make_blocks
        return graph

    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes not yet set: a graph made from
        # columns makes its block objects now.
        make_blocks = self.__dict__.get("_make_blocks")
        if name not in _OBJECT_VIEW or make_blocks is None:
            raise AttributeError(name)
        built = make_blocks()
        del self._make_blocks
        self.columns = None
        self._blocks, self._successors = built._blocks, built._successors
        return self.__dict__[name]

    def __getstate__(self) -> Dict[str, Any]:
        self._blocks  # a pickled graph carries its objects, not the columns
        return self.__dict__

    # ------------------------------------------------------------------
    # construction

    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Insert ``block``; duplicate start addresses are rejected."""
        if block.start_address in self._blocks:
            raise CfgConstructionError(
                f"duplicate block at {block.start_address:#x}"
            )
        self._blocks[block.start_address] = block
        self._successors.setdefault(block.start_address, set())
        return block

    def get_block(self, start_address: int) -> Optional[BasicBlock]:
        return self._blocks.get(start_address)

    def add_edge(self, src: BasicBlock, dst: BasicBlock) -> None:
        """Add the directed edge ``src -> dst``; both must be in the graph."""
        if src.start_address not in self._blocks:
            raise CfgConstructionError(
                f"edge source {src.start_address:#x} not in graph"
            )
        if dst.start_address not in self._blocks:
            raise CfgConstructionError(
                f"edge target {dst.start_address:#x} not in graph"
            )
        self._successors[src.start_address].add(dst.start_address)

    def remove_empty_blocks(self) -> None:
        """Drop blocks that ended up with no instructions.

        Dangling jump targets into data can create empty placeholder
        blocks during construction; a finished CFG has none.
        """
        empty = [addr for addr, b in self._blocks.items() if b.is_empty]
        for addr in empty:
            del self._blocks[addr]
            del self._successors[addr]
        for succ in self._successors.values():
            succ.difference_update(empty)

    # ------------------------------------------------------------------
    # queries

    @property
    def num_vertices(self) -> int:
        if self.columns is not None:
            return self.columns.num_blocks
        return len(self._blocks)

    @property
    def num_edges(self) -> int:
        if self.columns is not None:
            return self.columns.edges.shape[1]
        return sum(len(s) for s in self._successors.values())

    def __len__(self) -> int:
        return self.num_vertices

    def blocks(self) -> List[BasicBlock]:
        """All blocks in ascending start-address order."""
        return [self._blocks[a] for a in sorted(self._blocks)]

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks())

    def successors(self, block: BasicBlock) -> List[BasicBlock]:
        """Successor blocks of ``block`` in ascending address order."""
        return [
            self._blocks[a]
            for a in sorted(self._successors.get(block.start_address, ()))
        ]

    def out_degree(self, block: BasicBlock) -> int:
        """Number of offspring of ``block`` (a Table I attribute)."""
        return len(self._successors.get(block.start_address, ()))

    def in_degree(self, block: BasicBlock) -> int:
        """Number of predecessors of ``block``."""
        address = block.start_address
        return sum(
            1 for successors in self._successors.values() if address in successors
        )

    def edges(self) -> List[Tuple[int, int]]:
        """All edges as ``(src_start, dst_start)`` address pairs, sorted."""
        return [
            (src, dst)
            for src in sorted(self._successors)
            for dst in sorted(self._successors[src])
        ]

    def entry_block(self) -> Optional[BasicBlock]:
        """The block with the lowest start address, or ``None`` if empty."""
        if not self._blocks:
            return None
        return self._blocks[min(self._blocks)]

    def total_instructions(self) -> int:
        return sum(len(block) for block in self._blocks.values())

    # ------------------------------------------------------------------
    # vertex numbering (Section III-A notation)

    def vertex_index(self) -> Dict[int, int]:
        """Map block start address -> dense vertex index (address order)."""
        return {addr: i for i, addr in enumerate(sorted(self._blocks))}

    # ------------------------------------------------------------------
    # interop

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` with block metadata."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for block in self.blocks():
            graph.add_node(
                block.start_address,
                num_instructions=len(block),
            )
        graph.add_edges_from(self.edges())
        return graph

    def __repr__(self) -> str:
        return (
            f"ControlFlowGraph(name={self.name!r}, "
            f"vertices={self.num_vertices}, edges={self.num_edges})"
        )
