"""Tests for the Strand-style sequence classifier."""

import numpy as np
import pytest

from repro.baselines.strand import StrandClassifier, sequence_ngrams, tokenize_acfg
from repro.exceptions import TrainingError

from tests.conftest import acfg_from_dense


def make_acfg(attributes, label=0):
    n = attributes.shape[0]
    return acfg_from_dense(adjacency=np.zeros((n, n)), attributes=attributes, label=label)


class TestTokenization:
    def test_deterministic(self):
        acfg = make_acfg(np.arange(12, dtype=float).reshape(4, 3))
        assert tokenize_acfg(acfg) == tokenize_acfg(acfg)

    def test_one_token_per_block(self):
        acfg = make_acfg(np.ones((7, 3)))
        assert len(tokenize_acfg(acfg)) == 7

    def test_identical_blocks_share_tokens(self):
        acfg = make_acfg(np.ones((3, 2)))
        tokens = tokenize_acfg(acfg)
        assert len(set(tokens)) == 1


class TestNgrams:
    def test_standard_case(self):
        grams = sequence_ngrams([1, 2, 3, 4], 2)
        assert grams == {(1, 2), (2, 3), (3, 4)}

    def test_short_sequence_collapses(self):
        assert sequence_ngrams([1, 2], 3) == {(1, 2)}

    def test_empty_sequence(self):
        assert sequence_ngrams([], 3) == set()


class TestClassifier:
    def make_family(self, rng, base, count, label):
        acfgs = []
        for _ in range(count):
            n = int(rng.integers(5, 9))
            attributes = np.tile(base, (n, 1)) + rng.integers(0, 2, (n, 3))
            acfgs.append(make_acfg(attributes.astype(float), label))
        return acfgs

    def test_separates_distinct_profiles(self, rng):
        family_a = self.make_family(rng, np.array([1.0, 0.0, 0.0]) * 20, 8, 0)
        family_b = self.make_family(rng, np.array([0.0, 20.0, 5.0]), 8, 1)
        acfgs = family_a + family_b
        labels = [a.label for a in acfgs]
        clf = StrandClassifier(num_classes=2, ngram=2).fit(acfgs, labels)
        assert (clf.predict(acfgs) == np.array(labels)).mean() > 0.9

    def test_proba_normalized_even_with_no_match(self, rng):
        train = self.make_family(rng, np.array([5.0, 5.0, 5.0]), 4, 0)
        clf = StrandClassifier(num_classes=2).fit(train, [0] * 4)
        # A radically different sample may match nothing: uniform fallback.
        alien = make_acfg(np.full((3, 3), 1e6))
        proba = clf.predict_proba([alien])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_validation(self):
        with pytest.raises(TrainingError):
            StrandClassifier(num_classes=2, ngram=0)
        with pytest.raises(TrainingError):
            StrandClassifier(num_classes=2).fit([], [1])
        with pytest.raises(TrainingError):
            StrandClassifier(num_classes=2).predict([])
