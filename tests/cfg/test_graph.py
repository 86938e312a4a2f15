"""Tests for the ControlFlowGraph data structure and the matrices built from it."""

import numpy as np
import pytest

from repro.asm.instruction import Instruction
from repro.cfg.basic_block import BasicBlock
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import CfgConstructionError
from repro.features.acfg import ACFG

from tests.conftest import dense_adjacency


def block(addr, n_insts=1):
    b = BasicBlock(start_address=addr)
    for i in range(n_insts):
        b.append(Instruction(address=addr + i, mnemonic="nop", size=1))
    return b


def diamond():
    """b0 -> b1, b0 -> b2, b1 -> b3, b2 -> b3."""
    graph = ControlFlowGraph(name="diamond")
    blocks = [graph.add_block(block(0x10 * (i + 1))) for i in range(4)]
    graph.add_edge(blocks[0], blocks[1])
    graph.add_edge(blocks[0], blocks[2])
    graph.add_edge(blocks[1], blocks[3])
    graph.add_edge(blocks[2], blocks[3])
    return graph, blocks


class TestGraphStructure:
    def test_counts(self):
        graph, _ = diamond()
        assert graph.num_vertices == 4
        assert graph.num_edges == 4
        assert len(graph) == 4

    def test_duplicate_block_rejected(self):
        graph = ControlFlowGraph()
        graph.add_block(block(0x10))
        with pytest.raises(CfgConstructionError):
            graph.add_block(block(0x10))

    def test_edge_endpoints_must_exist(self):
        graph = ControlFlowGraph()
        inside = graph.add_block(block(0x10))
        outside = block(0x20)
        with pytest.raises(CfgConstructionError):
            graph.add_edge(inside, outside)
        with pytest.raises(CfgConstructionError):
            graph.add_edge(outside, inside)

    def test_parallel_edges_collapse(self):
        graph = ControlFlowGraph()
        a = graph.add_block(block(0x10))
        b = graph.add_block(block(0x20))
        graph.add_edge(a, b)
        graph.add_edge(a, b)
        assert graph.num_edges == 1

    def test_blocks_sorted_by_address(self):
        graph = ControlFlowGraph()
        graph.add_block(block(0x30))
        graph.add_block(block(0x10))
        graph.add_block(block(0x20))
        assert [b.start_address for b in graph.blocks()] == [0x10, 0x20, 0x30]

    def test_successors_and_out_degree(self):
        graph, blocks = diamond()
        succ = graph.successors(blocks[0])
        assert [s.start_address for s in succ] == [0x20, 0x30]
        assert graph.out_degree(blocks[0]) == 2
        assert graph.out_degree(blocks[3]) == 0

    def test_entry_block(self):
        graph, blocks = diamond()
        assert graph.entry_block() is blocks[0]
        assert ControlFlowGraph().entry_block() is None

    def test_remove_empty_blocks(self):
        graph = ControlFlowGraph()
        real = graph.add_block(block(0x10))
        empty = graph.add_block(BasicBlock(start_address=0x20))
        graph.add_edge(real, empty)
        graph.remove_empty_blocks()
        assert graph.num_vertices == 1
        assert graph.num_edges == 0


class TestMatrixViews:
    """The matrices of Section III-A, as the ACFG builds them from the CFG."""

    def test_adjacency_matches_edges(self):
        graph, _ = diamond()
        adjacency = dense_adjacency(ACFG.from_cfg(graph))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[0, 2] = expected[1, 3] = expected[2, 3] = 1
        np.testing.assert_array_equal(adjacency, expected)

    def test_adjacency_is_directed(self):
        graph, _ = diamond()
        adjacency = dense_adjacency(ACFG.from_cfg(graph))
        assert not np.array_equal(adjacency, adjacency.T)

    def test_augmented_adds_identity(self):
        graph, _ = diamond()
        acfg = ACFG.from_cfg(graph)
        np.testing.assert_array_equal(
            acfg.operator(normalized=False).toarray(),
            dense_adjacency(acfg) + np.eye(4),
        )

    def test_degree_matrix_row_sums(self):
        # D̂ is the row sum of Â: D̂^-1 Â times D̂ gives Â back.
        graph, _ = diamond()
        acfg = ACFG.from_cfg(graph)
        augmented = acfg.operator(normalized=False).toarray()
        degree = np.diag(augmented.sum(axis=1))
        np.testing.assert_array_equal(np.diag(degree), acfg.out_degrees() + 1)
        np.testing.assert_allclose(
            degree @ acfg.operator().toarray(), augmented
        )

    def test_vertex_index_order(self):
        graph, blocks = diamond()
        index = graph.vertex_index()
        assert index[blocks[0].start_address] == 0
        assert index[blocks[3].start_address] == 3


class TestNetworkxInterop:
    def test_roundtrip_structure(self):
        graph, _ = diamond()
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 4
        assert nx_graph.nodes[0x10]["num_instructions"] == 1
