"""Graph-level metrics over control flow graphs.

Summary statistics used by the analysis examples and by downstream
feature engineering: cyclomatic complexity, strongly-connected
components (loop structure), depth, and degree statistics.  These are
*not* part of the paper's Table I block attributes; they are the kind of
whole-graph descriptors the handcrafted-feature baselines consume.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.cfg.graph import ControlFlowGraph


@dataclasses.dataclass(frozen=True)
class CfgMetrics:
    """Whole-graph structural summary of one CFG."""

    num_vertices: int
    num_edges: int
    num_instructions: int
    cyclomatic_complexity: int
    num_components: int
    num_nontrivial_sccs: int
    num_back_edges: int
    max_out_degree: int
    density: float
    depth: int

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


def compute_cfg_metrics(cfg: ControlFlowGraph) -> CfgMetrics:
    """Compute :class:`CfgMetrics` for ``cfg``.

    Cyclomatic complexity uses McCabe's ``E - N + 2P`` with ``P`` the
    number of weakly connected components.  "Back edges" are edges whose
    target address does not exceed the source (loops in layout order);
    non-trivial SCCs are cycles in the exact graph-theoretic sense.
    """
    import networkx as nx

    graph = cfg.to_networkx()
    n = graph.number_of_nodes()
    e = graph.number_of_edges()
    components = (
        nx.number_weakly_connected_components(graph) if n else 0
    )
    nontrivial_sccs = sum(
        1
        for scc in nx.strongly_connected_components(graph)
        if len(scc) > 1 or any(graph.has_edge(v, v) for v in scc)
    )
    back_edges = sum(1 for src, dst in cfg.edges() if dst <= src)
    out_degrees = [graph.out_degree(v) for v in graph.nodes] or [0]

    depth = 0
    entry = cfg.entry_block()
    if entry is not None:
        lengths = nx.single_source_shortest_path_length(
            graph, entry.start_address
        )
        depth = max(lengths.values())

    return CfgMetrics(
        num_vertices=n,
        num_edges=e,
        num_instructions=cfg.total_instructions(),
        cyclomatic_complexity=e - n + 2 * components,
        num_components=components,
        num_nontrivial_sccs=nontrivial_sccs,
        num_back_edges=back_edges,
        max_out_degree=max(out_degrees),
        density=e / (n * n) if n else 0.0,
        depth=depth,
    )


def to_dot(cfg: ControlFlowGraph, include_instructions: bool = False) -> str:
    """Render a CFG as Graphviz DOT text.

    Block labels carry the start address and instruction count; with
    ``include_instructions`` the disassembly is embedded (escaped) for
    small graphs meant for visual inspection.
    """
    lines = [f'digraph "{cfg.name or "cfg"}" {{', "  node [shape=box];"]
    for block in cfg.blocks():
        label = f"{block.start_address:#x}\\n{len(block)} insts"
        if include_instructions:
            body = "\\l".join(
                f"{inst.mnemonic} {inst.operand_text()}".strip()
                for inst in block.instructions
            )
            label = f"{block.start_address:#x}\\l{body}\\l"
        lines.append(f'  "{block.start_address:#x}" [label="{label}"];')
    for src, dst in cfg.edges():
        lines.append(f'  "{src:#x}" -> "{dst:#x}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
