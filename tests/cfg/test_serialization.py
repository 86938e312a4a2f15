"""Tests for CFG/ACFG serialization round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.builder import build_cfg_from_text
from repro.cfg.serialization import (
    acfg_from_text,
    acfg_to_text,
    cfg_from_dict,
    cfg_to_dict,
    load_cfg,
    save_cfg,
)
from repro.exceptions import SerializationError
from repro.features.acfg import ACFG

from tests.conftest import SAMPLE_ASM, SAMPLE_EDGES, acfg_from_dense, dense_adjacency


class TestJsonRoundTrip:
    def test_structure_preserved(self):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        restored = cfg_from_dict(cfg_to_dict(cfg))
        assert restored.name == "sample"
        assert restored.num_vertices == cfg.num_vertices
        assert set(restored.edges()) == SAMPLE_EDGES

    def test_instructions_preserved(self):
        cfg = build_cfg_from_text(SAMPLE_ASM)
        restored = cfg_from_dict(cfg_to_dict(cfg))
        original = cfg.entry_block().instructions
        round_tripped = restored.entry_block().instructions
        assert [i.mnemonic for i in original] == [i.mnemonic for i in round_tripped]
        assert [i.operands for i in original] == [i.operands for i in round_tripped]

    def test_file_roundtrip(self, tmp_path):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="sample")
        path = str(tmp_path / "sample.json")
        save_cfg(cfg, path)
        restored = load_cfg(path)
        assert set(restored.edges()) == set(cfg.edges())

    def test_bad_version_rejected(self):
        with pytest.raises(SerializationError):
            cfg_from_dict({"version": 999, "blocks": [], "edges": []})

    def test_dangling_edge_rejected(self):
        data = cfg_to_dict(build_cfg_from_text(SAMPLE_ASM))
        data["edges"].append([0xDEAD, 0xBEEF])
        with pytest.raises(SerializationError):
            cfg_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_cfg(str(path))


class TestAcfgTextFormat:
    def test_roundtrip(self):
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        attributes = np.array([[1.5, 2.0], [0.0, -3.25], [4.0, 0.5]])
        text = acfg_to_text(edges, attributes, label="Ramnit")
        assert text.endswith("\n0 1\n1 2\n2 0\n")
        edges2, attr2, label = acfg_from_text(text)
        np.testing.assert_array_equal(edges2, edges)
        assert edges2.dtype == np.int64
        np.testing.assert_array_equal(attr2, attributes)
        assert label == "Ramnit"

    def test_roundtrip_without_label(self):
        edges = np.zeros((2, 0), dtype=np.int64)
        attributes = np.ones((2, 3))
        edges2, _, label = acfg_from_text(acfg_to_text(edges, attributes))
        assert label is None
        assert edges2.shape == (2, 0)

    def test_duplicate_edge_lines_collapse(self):
        edges, attributes, _ = acfg_from_text("2 1\n1.0\n1.0\n1 0\n0 1\n1 0\n")
        acfg = ACFG(edges=edges, attributes=attributes)
        np.testing.assert_array_equal(acfg.edges, [[0, 1], [1, 0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SerializationError):
            acfg_to_text(np.zeros((3, 2), dtype=np.int64), np.ones((2, 2)))

    def test_empty_record_rejected(self):
        with pytest.raises(SerializationError):
            acfg_from_text("")

    def test_truncated_record_rejected(self):
        with pytest.raises(SerializationError):
            acfg_from_text("3 2\n1.0 2.0\n")

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(SerializationError):
            acfg_from_text("1 1\n1.0\n0 5\n")

    @given(
        n=st.integers(min_value=1, max_value=6),
        c=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, n, c, seed):
        """Property: any generated (A, X) pair survives the text format."""
        rng = np.random.default_rng(seed)
        adjacency = (rng.random((n, n)) < 0.4).astype(float)
        attributes = np.round(rng.standard_normal((n, c)), 6)
        acfg = acfg_from_dense(adjacency, attributes)
        edges2, attr2, _ = acfg_from_text(acfg_to_text(acfg.edges, attributes))
        np.testing.assert_array_equal(dense_adjacency(ACFG(edges2, attr2)), adjacency)
        np.testing.assert_allclose(attr2, attributes)


def reference_acfg_to_text(edges, attributes, label=None):
    """The record as written one ``repr(float)`` at a time."""
    n, c = attributes.shape
    lines = [f"{n} {c}" + (f" {label}" if label else "")]
    for row in attributes:
        lines.append(" ".join(repr(float(v)) for v in row))
    for src, dst in zip(edges[0].tolist(), edges[1].tolist()):
        lines.append(f"{src} {dst}")
    return "\n".join(lines) + "\n"


#: Values whose text is easy to get wrong: signed zeros, large integral
#: floats, exponent forms, non-finite and non-integral values.
_SPECIAL = st.sampled_from([
    0.0, -0.0, 1.0, 4095.0, 4096.0, -1.0, 1e16, 1e22, -1e16, 2.0**53,
    2.0**53 + 2, float("nan"), float("inf"), float("-inf"), 0.5, 1e-300,
    5e-324, 3.0000000000000004,
])
_VALUE = _SPECIAL | st.integers(0, 5000).map(float) | st.floats(allow_nan=True)


class TestAcfgTextBytes:
    """``acfg_to_text`` is byte-identical to one repr per value: dataset
    caches and extraction journals written before stay valid."""

    @given(
        rows=st.integers(1, 5).flatmap(lambda c: st.lists(
            st.lists(_VALUE, min_size=c, max_size=c), min_size=1, max_size=5
        )),
        edges=st.lists(st.tuples(st.sampled_from([0, 1, 4095, 4096, 70000]),
                                 st.sampled_from([0, 2, 4095, 4096, 70000])),
                       max_size=6),
        dtype=st.sampled_from([np.float64, np.float32]),
        label=st.sampled_from([None, "", "Ramnit"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_one_repr_per_value(self, rows, edges, dtype, label):
        with np.errstate(over="ignore"):
            attributes = np.array(rows, dtype=dtype)
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        assert acfg_to_text(pairs, attributes, label) == reference_acfg_to_text(
            pairs, attributes, label
        )

    def test_integer_and_empty_matrices(self):
        counts = np.arange(12, dtype=np.int64).reshape(4, 3) * 700
        none = np.zeros((2, 0), dtype=np.int64)
        for attributes in (counts, counts.astype(np.float64), np.zeros((3, 0))):
            assert acfg_to_text(none, attributes) == reference_acfg_to_text(none, attributes)
