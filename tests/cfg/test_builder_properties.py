"""Property-based tests of CFG construction invariants.

These run the full front end over randomly generated family programs and
check the structural invariants any correct two-pass construction must
satisfy, regardless of input program shape.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.isa import ControlFlowKind
from repro.cfg.builder import build_cfg_from_text
from repro.datasets.synthetic_asm import FamilyProfile, generate_family_listing

PROFILE = FamilyProfile(
    name="prop",
    junk_probability=0.25,
    dispatch_probability=0.25,
    loop_probability=0.3,
    data_blocks=(0, 2),
)


def build(seed):
    return build_cfg_from_text(generate_family_listing(PROFILE, seed=seed))


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_control_transfers_only_at_block_exits(seed):
    """Mid-block instructions never branch: the defining CFG property."""
    cfg = build(seed)
    for block in cfg.blocks():
        for inst in block.instructions[:-1]:
            assert inst.flow_kind in (
                ControlFlowKind.SEQUENTIAL,
                ControlFlowKind.CALL,  # calls return: they may sit mid-block
            ), f"{inst} found mid-block"


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_blocks_partition_the_instructions(seed):
    """Every instruction lives in exactly one block."""
    cfg = build(seed)
    addresses = [
        inst.address for block in cfg.blocks() for inst in block.instructions
    ]
    assert len(addresses) == len(set(addresses))


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_blocks_are_contiguous_address_runs(seed):
    """Instructions inside a block are consecutive in address order."""
    cfg = build(seed)
    for block in cfg.blocks():
        instruction_addresses = [i.address for i in block.instructions]
        assert instruction_addresses == sorted(instruction_addresses)
        assert instruction_addresses[0] == block.start_address


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_return_blocks_have_no_successors(seed):
    """A block ending in ret has no outgoing edges."""
    cfg = build(seed)
    for block in cfg.blocks():
        if block.last_instruction.flow_kind is ControlFlowKind.RETURN:
            assert cfg.out_degree(block) == 0


@given(seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_propagation_operator_row_stochastic(seed):
    """Every generated graph yields a valid D̂^-1 Â."""
    from repro.features.acfg import ACFG

    cfg = build(seed)
    acfg = ACFG.from_cfg(cfg)
    propagation = acfg.operator().toarray()
    np.testing.assert_allclose(
        propagation.sum(axis=1), np.ones(acfg.num_vertices), atol=1e-12
    )
    assert (propagation >= 0).all()
