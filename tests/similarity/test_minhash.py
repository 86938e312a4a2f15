"""Minhash signatures: reproducibility and estimation accuracy."""

import numpy as np
import pytest

from repro.exceptions import SimilarityError
from repro.similarity import CfgFingerprint, MinHasher, estimated_jaccard

from tests.similarity.test_fingerprint import _random_acfg
from repro.similarity import fingerprint_acfg


class TestReproducibility:
    def test_two_hashers_agree_bit_for_bit(self):
        fingerprint = fingerprint_acfg(_random_acfg(0))
        first = MinHasher().signature(fingerprint)
        second = MinHasher().signature(fingerprint)
        assert first.dtype == np.uint64
        assert np.array_equal(first, second)

    def test_different_seed_different_signature(self):
        fingerprint = fingerprint_acfg(_random_acfg(0))
        default = MinHasher().signature(fingerprint)
        other = MinHasher(seed=1234).signature(fingerprint)
        assert not np.array_equal(default, other)

    def test_signature_width_matches_permutations(self):
        fingerprint = fingerprint_acfg(_random_acfg(1))
        assert MinHasher(num_permutations=64).signature(
            fingerprint
        ).shape == (64,)


class TestEstimation:
    def test_identical_fingerprints_estimate_one(self):
        fingerprint = fingerprint_acfg(_random_acfg(2))
        hasher = MinHasher()
        signature = hasher.signature(fingerprint)
        assert estimated_jaccard(signature, signature) == pytest.approx(1.0)

    def test_estimate_tracks_exact_jaccard(self):
        """Signature agreement approximates the true multiset Jaccard.

        With 128 permutations the standard error is < 0.05; a 0.15 bound
        keeps the test deterministic-tight without flaking on the
        fixed-seed hash family.
        """
        hasher = MinHasher()
        for seed_a, seed_b in [(0, 1), (2, 3), (4, 5)]:
            fp_a = fingerprint_acfg(_random_acfg(seed_a))
            fp_b = fingerprint_acfg(_random_acfg(seed_b))
            exact = fp_a.jaccard(fp_b)
            estimate = estimated_jaccard(
                hasher.signature(fp_a), hasher.signature(fp_b)
            )
            assert abs(estimate - exact) < 0.15


class TestValidation:
    def test_empty_fingerprint_rejected(self):
        empty = CfgFingerprint(labels=(), num_vertices=0, iterations=3)
        with pytest.raises(SimilarityError):
            MinHasher().signature(empty)

    def test_width_mismatch_rejected(self):
        fingerprint = fingerprint_acfg(_random_acfg(3))
        wide = MinHasher(num_permutations=128).signature(fingerprint)
        narrow = MinHasher(num_permutations=64).signature(fingerprint)
        with pytest.raises(SimilarityError):
            estimated_jaccard(wide, narrow)

    def test_bad_permutation_count_rejected(self):
        with pytest.raises(SimilarityError):
            MinHasher(num_permutations=0)



class TestChunkBoundaries:
    """The chunked signature equals the one-shot ``(a*x + b) % p`` minimum.

    3000 elements is about what a 290-vertex graph's fingerprint holds.
    """

    @pytest.mark.parametrize("num_elements", [1, 255, 256, 257, 3000])
    def test_matches_unchunked_reference(self, num_elements):
        rng = np.random.default_rng(num_elements)
        elements = np.unique(rng.integers(
            0, np.iinfo(np.uint64).max, size=num_elements, dtype=np.uint64,
        ))
        assert elements.size == num_elements
        fingerprint = CfgFingerprint(
            labels=tuple((element, 1) for element in elements.tolist()),
            num_vertices=1,
            iterations=3,
        )
        hasher = MinHasher()
        prime = np.uint64(2**31 - 1)
        x = fingerprint.expanded_elements() % prime
        expected = (
            (hasher._a * x + hasher._b) % prime
        ).min(axis=1)
        np.testing.assert_array_equal(hasher.signature(fingerprint), expected)
