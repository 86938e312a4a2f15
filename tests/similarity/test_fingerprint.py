"""Fingerprint invariants: vertex-order independence, determinism,
cross-process stability, and quantization behaviour."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimilarityError
from repro.similarity import (
    CfgFingerprint,
    fingerprint_acfg,
    quantize_attributes,
)

from tests.conftest import acfg_from_dense, dense_adjacency

from tests.similarity.conftest import extract_acfg

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _random_acfg(seed, num_vertices=12):
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((num_vertices, num_vertices)) < 0.25).astype(
        np.float64
    )
    np.fill_diagonal(adjacency, 0.0)
    attributes = rng.integers(
        0, 200, size=(num_vertices, 11)
    ).astype(np.float64)
    return acfg_from_dense(adjacency=adjacency, attributes=attributes, label=0,
                           name=f"random-{seed}")


def _permuted(acfg, permutation):
    return acfg_from_dense(
        adjacency=dense_adjacency(acfg)[np.ix_(permutation, permutation)],
        attributes=acfg.attributes[permutation],
        label=acfg.label,
        name=acfg.name,
    )


class TestVertexOrderInvariance:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_permuting_vertices_preserves_the_fingerprint(
        self, graph_seed, perm_seed
    ):
        acfg = _random_acfg(graph_seed)
        permutation = np.random.default_rng(perm_seed).permutation(
            acfg.num_vertices
        )
        original = fingerprint_acfg(acfg)
        shuffled = fingerprint_acfg(_permuted(acfg, permutation))
        assert original.digest() == shuffled.digest()
        assert original.labels == shuffled.labels

    def test_permuting_a_real_extracted_graph(self):
        acfg = extract_acfg("Ramnit", 0)
        permutation = np.random.default_rng(3).permutation(
            acfg.num_vertices
        )
        assert (
            fingerprint_acfg(acfg).digest()
            == fingerprint_acfg(_permuted(acfg, permutation)).digest()
        )


class TestDeterminism:
    def test_same_graph_same_fingerprint(self):
        acfg = _random_acfg(7)
        assert (
            fingerprint_acfg(acfg).digest()
            == fingerprint_acfg(acfg).digest()
        )

    def test_fingerprint_is_stable_across_processes(self):
        """The digest computed in a fresh interpreter matches ours.

        Python's builtin ``hash()`` is process-salted; this pins the
        fingerprint to salt-free hashing, which is what lets fleet
        replicas and offline dedup share one fingerprint vocabulary.
        """
        script = (
            "from tests.similarity.conftest import extract_acfg\n"
            "from repro.similarity import fingerprint_acfg\n"
            "print(fingerprint_acfg(extract_acfg('Lollipop', 1)).digest())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [REPO_SRC, os.path.join(REPO_SRC, "..")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        )
        ours = fingerprint_acfg(extract_acfg("Lollipop", 1)).digest()
        assert child.stdout.strip() == ours


class TestQuantization:
    def test_log8_bucket_edges(self):
        values = np.array([[0.0, 1.0, 6.0, 7.0, 62.0, 63.0, 510.0, 511.0]])
        assert quantize_attributes(values).tolist() == [
            [0, 0, 0, 1, 1, 2, 2, 3]
        ]

    def test_negative_values_clamp_to_bucket_zero(self):
        assert quantize_attributes(np.array([[-5.0, -0.5]])).tolist() == [
            [0, 0]
        ]

    def test_small_perturbation_stays_in_bucket(self):
        base = np.array([[10.0, 20.0, 40.0]])
        bumped = base + 3.0
        assert (
            quantize_attributes(base).tolist()
            == quantize_attributes(bumped).tolist()
        )


class TestFingerprintApi:
    def test_negative_iterations_rejected(self):
        with pytest.raises(SimilarityError):
            fingerprint_acfg(_random_acfg(0), iterations=-1)

    def test_zero_iterations_supported(self):
        fingerprint = fingerprint_acfg(_random_acfg(0), iterations=0)
        assert fingerprint.iterations == 0
        assert fingerprint.size > 0

    def test_incomparable_iterations_raise(self):
        acfg = _random_acfg(1)
        two = fingerprint_acfg(acfg, iterations=2)
        three = fingerprint_acfg(acfg, iterations=3)
        with pytest.raises(SimilarityError):
            two.jaccard(three)

    def test_self_jaccard_is_one(self):
        fingerprint = fingerprint_acfg(_random_acfg(2))
        assert fingerprint.jaccard(fingerprint) == pytest.approx(1.0)

    def test_size_counts_both_streams(self):
        acfg = _random_acfg(3, num_vertices=5)
        fingerprint = fingerprint_acfg(acfg, iterations=2)
        # attributed stream (weight 1) + structure stream (weight 2),
        # (iterations + 1) rounds each, 5 vertices.
        assert fingerprint.size == 5 * 3 * (1 + 2)

    def test_expanded_elements_are_distinct(self):
        fingerprint = fingerprint_acfg(_random_acfg(4))
        elements = fingerprint.expanded_elements()
        assert elements.size == fingerprint.size
        assert np.unique(elements).size == elements.size
