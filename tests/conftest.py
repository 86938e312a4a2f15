"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_mskcfg_dataset, generate_yancfg_dataset
from repro.features.acfg import ACFG

#: A hand-written listing with fully known CFG structure:
#:
#:   b0 @401000 (push/mov/cmp/jz)    -> b1 (fall-through), b3 (branch)
#:   b1 @401009 (add/jmp)            -> b4 (branch);  no fall-through
#:   b2 @40100E (xor)  [unreachable] -> b3 (fall-through)
#:   b3 @401012 (sub)                -> b4 (fall-through)
#:   b4 @401015 (mov/retn)           -> (exit)
SAMPLE_ASM = """
.text:00401000 push ebp
.text:00401001 mov ebp, esp
.text:00401004 cmp eax, 0x5
.text:00401007 jz loc_401012
.text:00401009 add eax, 0x1
.text:0040100C jmp loc_401015
.text:0040100E xor ebx, ebx
loc_401012:
.text:00401012 sub eax, 0x1
loc_401015:
.text:00401015 mov ecx, eax
.text:00401018 retn
"""

#: Expected block start addresses for SAMPLE_ASM.
SAMPLE_BLOCK_STARTS = [0x401000, 0x401009, 0x40100E, 0x401012, 0x401015]

#: Expected edges (by block start address) for SAMPLE_ASM.
SAMPLE_EDGES = {
    (0x401000, 0x401009),
    (0x401000, 0x401012),
    (0x401009, 0x401015),
    (0x40100E, 0x401012),
    (0x401012, 0x401015),
}


def acfg_from_dense(adjacency, attributes, label=None, name=""):
    """An ACFG whose edges are the non-zeros of a dense ``(n, n)`` matrix."""
    return ACFG(edges=np.stack(np.nonzero(adjacency)), attributes=attributes,
                label=label, name=name)


def dense_adjacency(acfg: ACFG) -> np.ndarray:
    """The float64 ``(n, n)`` adjacency matrix ``A`` of ``acfg``.

    ``A[i, j] == 1`` iff the edge ``i -> j`` exists; this is the dense
    form the ACFG held before it kept only its edge list.
    """
    matrix = np.zeros((acfg.num_vertices, acfg.num_vertices))
    matrix[acfg.edges[0], acfg.edges[1]] = 1.0
    return matrix


@pytest.fixture
def sample_asm() -> str:
    return SAMPLE_ASM


@pytest.fixture(scope="session")
def tiny_mskcfg():
    """A small but complete synthetic MSKCFG dataset (session-cached)."""
    return generate_mskcfg_dataset(total=45, seed=11)


@pytest.fixture(scope="session")
def tiny_yancfg():
    """A small synthetic YANCFG dataset (session-cached)."""
    return generate_yancfg_dataset(total=52, seed=11)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
