"""Tests for minibatch iteration and the memoizing collate layer."""

import numpy as np
import pytest

from repro.exceptions import TrainingError
from repro.train.batching import BatchCollator, collate_graphs, iterate_minibatches

from tests.conftest import acfg_from_dense


def make_acfgs(n):
    return [
        acfg_from_dense(
            adjacency=np.zeros((1, 1)),
            attributes=np.array([[float(i)]]),
            label=0,
            name=f"s{i}",
        )
        for i in range(n)
    ]


class TestMinibatches:
    def test_covers_all_samples_once(self):
        acfgs = make_acfgs(23)
        seen = []
        for batch in iterate_minibatches(acfgs, 5, rng=np.random.default_rng(0)):
            seen.extend(a.name for a in batch)
        assert sorted(seen) == sorted(a.name for a in acfgs)

    def test_batch_sizes(self):
        batches = list(
            iterate_minibatches(make_acfgs(23), 5, rng=np.random.default_rng(0))
        )
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]

    def test_no_shuffle_preserves_order(self):
        batches = list(iterate_minibatches(make_acfgs(6), 2, shuffle=False))
        assert [a.name for b in batches for a in b] == [f"s{i}" for i in range(6)]

    def test_shuffle_deterministic_for_seed(self):
        acfgs = make_acfgs(10)
        a = [x.name for b in iterate_minibatches(acfgs, 3, rng=np.random.default_rng(1)) for x in b]
        b = [x.name for b2 in iterate_minibatches(acfgs, 3, rng=np.random.default_rng(1)) for x in b2]
        assert a == b

    def test_invalid_batch_size(self):
        with pytest.raises(TrainingError):
            list(iterate_minibatches(make_acfgs(3), 0))


class TestCollateGraphs:
    def test_builds_graph_batch(self):
        batch = collate_graphs(make_acfgs(3))
        assert batch.num_graphs == 3
        assert batch.normalized is True

    def test_unnormalized(self):
        batch = collate_graphs(make_acfgs(2), normalize_propagation=False)
        assert batch.normalized is False


class TestBatchCollator:
    def test_cache_hit_returns_same_object(self):
        acfgs = make_acfgs(4)
        collator = BatchCollator()
        first = collator(acfgs)
        assert collator(acfgs) is first
        assert (collator.hits, collator.misses) == (1, 1)

    def test_different_order_is_different_batch(self):
        acfgs = make_acfgs(3)
        collator = BatchCollator()
        forward = collator(acfgs)
        backward = collator(list(reversed(acfgs)))
        assert backward is not forward
        assert collator.misses == 2

    def test_eviction_bound(self):
        acfgs = make_acfgs(6)
        collator = BatchCollator(max_entries=2)
        collator([acfgs[0]])
        collator([acfgs[1]])
        collator([acfgs[2]])  # evicts the [acfgs[0]] entry (FIFO)
        assert len(collator) == 2
        collator([acfgs[0]])
        assert collator.hits == 0 and collator.misses == 4

    def test_zero_entries_disables_caching(self):
        acfgs = make_acfgs(2)
        collator = BatchCollator(max_entries=0)
        first = collator(acfgs)
        second = collator(acfgs)
        assert second is not first
        assert len(collator) == 0

    def test_negative_entries_rejected(self):
        with pytest.raises(TrainingError):
            BatchCollator(max_entries=-1)

    def test_clear(self):
        collator = BatchCollator()
        collator(make_acfgs(2))
        collator.clear()
        assert len(collator) == 0


class TestCollatorFifoSemantics:
    def test_hit_does_not_refresh_fifo_position(self):
        """The bound is FIFO by insertion, not LRU: a cache hit does not
        rescue an entry from eviction."""
        acfgs = make_acfgs(4)
        collator = BatchCollator(max_entries=2)
        collator([acfgs[0]])
        collator([acfgs[1]])
        collator([acfgs[0]])          # hit; FIFO position unchanged
        collator([acfgs[2]])          # evicts [acfgs[0]] despite the hit
        assert (collator.hits, collator.misses) == (1, 3)
        collator([acfgs[1]])          # survived: inserted after acfgs[0]
        assert collator.hits == 2
        collator([acfgs[0]])          # evicted: re-collates
        assert collator.misses == 4

    def test_max_entries_zero_counts_misses_only(self):
        acfgs = make_acfgs(2)
        collator = BatchCollator(max_entries=0)
        collator(acfgs)
        collator(acfgs)
        assert (collator.hits, collator.misses) == (0, 2)
        assert len(collator) == 0


class TestTrainerValidationMemoization:
    """Locks in the PR 1 win: the per-epoch validation pass collates once."""

    def make_labelled_acfgs(self, rng, count, label):
        acfgs = []
        for i in range(count):
            n = int(rng.integers(4, 8))
            adjacency = (rng.random((n, n)) < 0.4).astype(float)
            np.fill_diagonal(adjacency, 0.0)
            attributes = rng.standard_normal((n, 11)) + 2.0 * label
            acfgs.append(
                acfg_from_dense(adjacency=adjacency, attributes=attributes,
                                label=label, name=f"m{label}_{i}")
            )
        return acfgs

    def test_validation_chunks_hit_cache_after_first_epoch(self):
        from repro.core.dgcnn import ModelConfig, build_model
        from repro.train.trainer import Trainer, TrainingConfig

        rng = np.random.default_rng(5)
        train = self.make_labelled_acfgs(rng, 6, 0) + self.make_labelled_acfgs(rng, 6, 1)
        val = self.make_labelled_acfgs(rng, 3, 0) + self.make_labelled_acfgs(rng, 3, 1)
        model = build_model(
            ModelConfig(
                num_attributes=11, num_classes=2, pooling="sort_weighted",
                graph_conv_sizes=(6, 6), sort_k=3, hidden_size=8,
                dropout=0.0, seed=0,
            )
        )
        epochs = 3
        trainer = Trainer(TrainingConfig(epochs=epochs, batch_size=4, seed=0))
        trainer.train(model, train, val)

        collator = trainer.last_collator
        assert collator is not None
        # The single fixed validation chunk misses on epoch 1 and hits on
        # every later epoch's validation pass.
        assert collator.hits >= epochs - 1

        # Post-training evaluation through the same collator reuses the
        # memoized chunk instead of re-collating (the cross_validate path).
        before = collator.hits
        Trainer.evaluate(model, val, family_names=["a", "b"], collator=collator)
        assert collator.hits == before + 1
