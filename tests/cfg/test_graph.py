"""Tests for the ControlFlowGraph data structure and the matrices built from it."""

import numpy as np
import pytest

from repro.asm.instruction import Instruction
from repro.asm.program import Program
from repro.cfg.builder import connect_columns
from repro.cfg.graph import ControlFlowGraph
from repro.exceptions import CfgConstructionError, SerializationError
from repro.features.acfg import ACFG

from tests.conftest import dense_adjacency


def block(addr, n_insts=1):
    return addr, [
        Instruction(address=addr + i, mnemonic="nop", size=1) for i in range(n_insts)
    ]


def diamond():
    """b0 -> b1, b0 -> b2, b1 -> b3, b2 -> b3."""
    return ControlFlowGraph.from_blocks(
        [block(0x10 * (i + 1)) for i in range(4)],
        [(0x10, 0x20), (0x10, 0x30), (0x20, 0x40), (0x30, 0x40)],
        name="diamond",
    )


class TestGraphStructure:
    def test_counts(self):
        graph = diamond()
        assert graph.num_vertices == 4
        assert graph.num_edges == 4
        assert len(graph) == 4
        assert graph.edge_index.tolist() == [[0, 0, 1, 2], [1, 2, 3, 3]]

    def test_duplicate_block_rejected(self):
        with pytest.raises(CfgConstructionError):
            ControlFlowGraph.from_blocks([block(0x10), block(0x10)])

    def test_edge_endpoints_must_exist(self):
        with pytest.raises(SerializationError):
            ControlFlowGraph.from_blocks([block(0x10)], [(0x10, 0x20)])
        with pytest.raises(SerializationError):
            ControlFlowGraph.from_blocks([block(0x10)], [(0x20, 0x10)])

    def test_parallel_edges_collapse(self):
        graph = ControlFlowGraph.from_blocks(
            [block(0x10), block(0x20)], [(0x10, 0x20), (0x10, 0x20)]
        )
        assert graph.num_edges == 1

    def test_blocks_sorted_by_address(self):
        graph = ControlFlowGraph.from_blocks([block(0x30), block(0x10, 2), block(0x20)])
        assert [b.start_address for b in graph.blocks()] == [0x10, 0x20, 0x30]
        assert [len(b) for b in graph.blocks()] == [2, 1, 1]
        assert graph.total_instructions() == 4

    def test_successors_and_out_degree(self):
        graph = diamond()
        first, _, _, last = graph.blocks()
        succ = graph.successors(first)
        assert [s.start_address for s in succ] == [0x20, 0x30]
        assert graph.out_degree(first) == 2
        assert graph.out_degree(last) == 0
        assert graph.in_degree(last) == 2
        assert graph.out_degrees().tolist() == [2, 1, 1, 0]

    def test_entry_block(self):
        graph = diamond()
        assert graph.entry_block() == graph.blocks()[0]
        assert graph.entry_block().start_address == 0x10
        assert ControlFlowGraph.from_blocks([]).entry_block() is None

    def test_remove_empty_blocks(self):
        # A branch into the middle of a block gives no empty placeholder
        # block and no edge; the finished graph has no empty block.
        program = Program([
            Instruction(address=0x10, mnemonic="nop"),
            Instruction(address=0x14, mnemonic="nop"),
            Instruction(address=0x18, mnemonic="jmp", operands=["0x12"]),
        ])
        graph = connect_columns(program, lambda operand: int(operand, 16))
        assert graph.num_vertices == 1
        assert graph.num_edges == 0
        assert not any(block.is_empty for block in graph.blocks())

    def test_empty_block_stays_a_vertex(self):
        graph = ControlFlowGraph.from_blocks([block(0x10), (0x20, [])], [(0x10, 0x20)])
        assert graph.num_vertices == 2
        assert graph.num_edges == 1
        assert graph.blocks()[1].is_empty
        assert graph.edges() == [(0x10, 0x20)]


class TestMatrixViews:
    """The matrices of Section III-A, as the ACFG builds them from the CFG."""

    def test_adjacency_matches_edges(self):
        graph = diamond()
        adjacency = dense_adjacency(ACFG.from_cfg(graph))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[0, 2] = expected[1, 3] = expected[2, 3] = 1
        np.testing.assert_array_equal(adjacency, expected)

    def test_adjacency_is_directed(self):
        graph = diamond()
        adjacency = dense_adjacency(ACFG.from_cfg(graph))
        assert not np.array_equal(adjacency, adjacency.T)

    def test_augmented_adds_identity(self):
        graph = diamond()
        acfg = ACFG.from_cfg(graph)
        np.testing.assert_array_equal(
            acfg.operator(normalized=False).toarray(),
            dense_adjacency(acfg) + np.eye(4),
        )

    def test_degree_matrix_row_sums(self):
        # D̂ is the row sum of Â: D̂^-1 Â times D̂ gives Â back.
        graph = diamond()
        acfg = ACFG.from_cfg(graph)
        augmented = acfg.operator(normalized=False).toarray()
        degree = np.diag(augmented.sum(axis=1))
        np.testing.assert_array_equal(np.diag(degree), acfg.out_degrees() + 1)
        np.testing.assert_allclose(
            degree @ acfg.operator().toarray(), augmented
        )

    def test_vertex_index_order(self):
        graph = diamond()
        index = graph.vertex_index()
        assert index[0x10] == 0
        assert index[0x40] == 3


class TestNetworkxInterop:
    def test_roundtrip_structure(self):
        graph = diamond()
        nx_graph = graph.to_networkx()
        assert nx_graph.number_of_nodes() == 4
        assert nx_graph.number_of_edges() == 4
        assert nx_graph.nodes[0x10]["num_instructions"] == 1
