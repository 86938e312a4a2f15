"""Tests for the batch-first execution path.

The key property: the batched production path (GraphBatch + sparse
block-diagonal propagation) is *numerically equivalent* to the per-graph
dense reference path — forward log-probs and the gradients they induce,
for all three pooling variants.
"""

import numpy as np
import pytest

from repro.core.batched import GraphBatch
from repro.core.dgcnn import POOLING_TYPES, ModelConfig, build_model
from repro.exceptions import ConfigurationError
from repro.features.acfg import ACFG
from repro.nn import functional as F
from repro.nn.loss import nll_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.train.batching import BatchCollator


def random_acfg(rng, n, c=11, label=0):
    adjacency = (rng.random((n, n)) < 0.3).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return ACFG(
        adjacency=adjacency,
        attributes=rng.standard_normal((n, c)),
        label=label,
    )


def small_config(pooling, **overrides):
    base = dict(
        num_attributes=11, num_classes=4, pooling=pooling,
        graph_conv_sizes=(8, 8), sort_k=4, amp_grid=(2, 2),
        conv2d_channels=4, conv1d_channels=(4, 8), conv1d_kernel=3,
        hidden_size=16, dropout=0.0, seed=0,
    )
    base.update(overrides)
    return ModelConfig(**base)


class TestGraphBatch:
    def test_structure(self, rng):
        acfgs = [random_acfg(rng, n) for n in (3, 5, 2)]
        batch = GraphBatch(acfgs)
        assert batch.num_graphs == 3
        assert batch.total_vertices == 10
        assert batch.propagation.shape == (10, 10)
        assert batch.attributes.shape == (10, 11)
        np.testing.assert_array_equal(batch.boundaries, [0, 3, 8, 10])

    def test_block_diagonal_matches_individual_operators(self, rng):
        acfgs = [random_acfg(rng, n) for n in (3, 4)]
        batch = GraphBatch(acfgs)
        dense = batch.propagation.toarray()
        np.testing.assert_allclose(dense[:3, :3], acfgs[0].propagation_operator())
        np.testing.assert_allclose(dense[3:, 3:], acfgs[1].propagation_operator())
        # Off-diagonal blocks are zero: graphs do not leak into each other.
        assert np.count_nonzero(dense[:3, 3:]) == 0
        assert np.count_nonzero(dense[3:, :3]) == 0

    def test_operator_is_genuinely_sparse(self, rng):
        """The CSR merge stores only true non-zeros, not dense blocks.

        Regression test for the dense-block assembly bug:
        ``scipy.sparse.block_diag`` keeps explicit zeros when handed
        dense arrays, which inflated nnz from ~(n + |E|) to ~n^2 per
        graph and made the "sparse" path slower than the dense loop.
        """
        acfgs = [random_acfg(rng, n) for n in (6, 9, 4)]
        batch = GraphBatch(acfgs)
        true_nnz = sum(
            np.count_nonzero(a.propagation_operator()) for a in acfgs
        )
        assert batch.propagation.nnz == true_nnz
        total = batch.total_vertices
        assert batch.propagation.nnz < total * total

    def test_labels_collected(self, rng):
        acfgs = [random_acfg(rng, 3, label=2), random_acfg(rng, 4, label=0)]
        np.testing.assert_array_equal(GraphBatch(acfgs).labels, [2, 0])

    def test_labels_none_when_any_missing(self, rng):
        acfgs = [random_acfg(rng, 3), random_acfg(rng, 4)]
        acfgs[1].label = None
        assert GraphBatch(acfgs).labels is None

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            GraphBatch([])

    def test_split_roundtrip(self, rng):
        acfgs = [random_acfg(rng, n) for n in (2, 4)]
        batch = GraphBatch(acfgs)
        stacked = Tensor(batch.attributes)
        pieces = batch.split(stacked)
        np.testing.assert_array_equal(pieces[0].data, acfgs[0].attributes)
        np.testing.assert_array_equal(pieces[1].data, acfgs[1].attributes)

    def test_unnormalized_mode(self, rng):
        acfgs = [random_acfg(rng, 3)]
        batch = GraphBatch(acfgs, normalize_propagation=False)
        assert batch.normalized is False
        np.testing.assert_allclose(
            batch.propagation.toarray(), acfgs[0].augmented_adjacency()
        )

    def test_transpose_cached(self, rng):
        batch = GraphBatch([random_acfg(rng, 5)])
        first = batch.propagation_transpose()
        assert batch.propagation_transpose() is first
        np.testing.assert_allclose(
            first.toarray(), batch.propagation.toarray().T
        )


class TestSparseMatmul:
    def test_forward_matches_dense(self, rng):
        import scipy.sparse

        dense = rng.standard_normal((4, 4)) * (rng.random((4, 4)) < 0.5)
        sparse = scipy.sparse.csr_matrix(dense)
        x = Tensor(rng.standard_normal((4, 3)))
        np.testing.assert_allclose(
            F.sparse_matmul(sparse, x).data, dense @ x.data
        )

    @pytest.mark.parametrize("precompute_transpose", [False, True])
    def test_gradient_matches_dense(self, rng, precompute_transpose):
        import scipy.sparse

        dense = rng.standard_normal((5, 5)) * (rng.random((5, 5)) < 0.4)
        sparse = scipy.sparse.csr_matrix(dense)
        matrix_t = sparse.T.tocsr() if precompute_transpose else None
        x_sparse = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        x_dense = Tensor(x_sparse.data.copy(), requires_grad=True)
        (F.sparse_matmul(sparse, x_sparse, matrix_t=matrix_t) ** 2).sum().backward()
        ((Tensor(dense) @ x_dense) ** 2).sum().backward()
        np.testing.assert_allclose(x_sparse.grad, x_dense.grad, atol=1e-12)


class TestModelContract:
    def test_forward_accepts_prebuilt_graph_batch(self, rng):
        model = build_model(small_config("sort_weighted"))
        model.eval()
        acfgs = [random_acfg(rng, n) for n in (3, 6)]
        np.testing.assert_array_equal(
            model(model.collate(acfgs)).data, model(acfgs).data
        )

    def test_normalization_mismatch_rejected(self, rng):
        model = build_model(small_config("sort_weighted"))
        batch = GraphBatch([random_acfg(rng, 4)], normalize_propagation=False)
        with pytest.raises(ConfigurationError):
            model(batch)

    def test_reference_path_rejects_graph_batch(self, rng):
        model = build_model(small_config("sort_weighted"))
        batch = model.collate([random_acfg(rng, 4)])
        with pytest.raises(ConfigurationError):
            model.forward_reference(batch)


class TestBatchedEqualsReference:
    """Forward and gradient equivalence, batched vs per-graph reference."""

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_forward_equivalence(self, pooling, rng):
        model = build_model(small_config(pooling))
        model.eval()
        acfgs = [random_acfg(rng, n) for n in (3, 7, 5)]

        np.testing.assert_allclose(
            model(acfgs).data,
            model.forward_reference(acfgs).data,
            atol=1e-8,
        )

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_parameters_agree_after_one_optimizer_step(self, pooling, rng):
        """One Adam step via either path lands on the same parameters."""
        config = small_config(pooling)
        batched_model = build_model(config)
        reference_model = build_model(config)
        reference_model.load_state_dict(batched_model.state_dict())
        acfgs = [
            random_acfg(rng, 5, label=1),
            random_acfg(rng, 8, label=0),
            random_acfg(rng, 3, label=2),
        ]
        labels = np.array([a.label for a in acfgs])

        for model, forward in (
            (batched_model, lambda m: m(acfgs)),
            (reference_model, lambda m: m.forward_reference(acfgs)),
        ):
            optimizer = Adam(model.parameters(), lr=1e-2)
            optimizer.zero_grad()
            nll_loss(forward(model), labels).backward()
            optimizer.step()

        batched_state = batched_model.state_dict()
        reference_state = reference_model.state_dict()
        assert batched_state.keys() == reference_state.keys()
        for name in batched_state:
            np.testing.assert_allclose(
                batched_state[name], reference_state[name], atol=1e-8,
                err_msg=f"{pooling}: parameter {name} diverged",
            )

    def test_gradient_flows_through_batched_path(self, rng):
        model = build_model(small_config("sort_weighted", graph_conv_sizes=(6, 6)))
        acfgs = [random_acfg(rng, 5, label=1), random_acfg(rng, 4, label=0)]
        loss = nll_loss(model(acfgs), np.array([1, 0]))
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, f"no grad for {name}"


class TestCollatorEquivalence:
    def test_memoized_collate_identical_to_fresh_build(self, rng):
        """A cache hit must return results identical to a fresh build."""
        model = build_model(small_config("adaptive"))
        model.eval()
        acfgs = [random_acfg(rng, n) for n in (4, 6, 3)]
        collator = BatchCollator()

        fresh = GraphBatch(acfgs)
        first = collator(acfgs)
        second = collator(acfgs)
        assert second is first  # memoized across calls (epochs)
        assert collator.hits == 1 and collator.misses == 1

        np.testing.assert_array_equal(
            model(second).data, model(fresh).data
        )
