"""Tests for the compiled tape execution engine (`repro.nn.tape`).

The contract under test is the one DESIGN.md pins down: float64 replay
is *bit-exact* with the eager path (forward, loss, and every parameter
gradient), float32 is an opt-in inference-only mode with a documented
tolerance, one recorded program per mode and dtype serves batches of
every shape, and its arena is bounded by the largest batch it has seen.
Predictions replay one lean float64 tape cached per model, which dies
with its model and remembers a model it cannot record.
"""

import contextlib
import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.core.batched import GraphBatch
from repro.core.dgcnn import POOLING_TYPES, ModelConfig, build_model
from repro.exceptions import CompilationError, GradientError
from repro.nn.layers import Module, Parameter
from repro.nn.loss import nll_loss
from repro.nn.tape import CompiledModel, inference_tape, program_key
from repro.nn.tensor import Tensor
from repro.train import trainer as trainer_module
from repro.train.batching import collate_graphs
from repro.train.trainer import Trainer, TrainingConfig

from tests.conftest import acfg_from_dense

NUM_ATTRIBUTES = 11
NUM_CLASSES = 4
#: Documented float32 tolerance (USAGE §14): a dozen fused layers of
#: single-precision arithmetic on z-scored attributes stays well under
#: 1e-4 absolute on the log-probabilities.
FLOAT32_ATOL = 1e-4


def random_acfg(rng, n, label=0):
    adjacency = (rng.random((n, n)) < 0.3).astype(float)
    np.fill_diagonal(adjacency, 0.0)
    return acfg_from_dense(
        adjacency=adjacency,
        attributes=rng.standard_normal((n, NUM_ATTRIBUTES)),
        label=label,
    )


def random_batch(rng, sizes=(3, 5, 2, 6)):
    return GraphBatch([random_acfg(rng, n) for n in sizes])


def small_config(pooling, dropout=0.0, seed=0):
    return ModelConfig(
        num_attributes=NUM_ATTRIBUTES,
        num_classes=NUM_CLASSES,
        pooling=pooling,
        graph_conv_sizes=(8, 8),
        sort_k=4,
        amp_grid=(2, 2),
        conv2d_channels=4,
        conv1d_channels=(4, 8),
        conv1d_kernel=3,
        hidden_size=16,
        dropout=dropout,
        seed=seed,
    )


def eager_gradients(model, batch, labels):
    """Eager forward+backward; returns (log_probs, {name: grad copy})."""
    for param in model.parameters():
        param.zero_grad()
    log_probs = model(batch)
    nll_loss(log_probs, labels).backward()
    return log_probs.data, {
        name: param.grad.copy()
        for name, param in model.named_parameters()
        if param.grad is not None
    }


def compiled_gradients(compiled, model, batch, labels):
    """Compiled forward+backward mirroring the trainer's seed rule."""
    for param in model.parameters():
        param.zero_grad()
    log_probs = compiled.forward(batch)
    rows = np.arange(len(labels))
    seed = np.zeros_like(log_probs)
    seed[rows, labels] = -(1.0 / len(labels))
    compiled.backward(seed)
    return log_probs, {
        name: param.grad.copy()
        for name, param in model.named_parameters()
        if param.grad is not None
    }


class RefusedTape(CompiledModel):
    """A tape that has refused its model before the first batch."""

    def __init__(self, model, dtype="float64"):
        super().__init__(model, dtype)
        self.refused = "eager reference run"


@contextlib.contextmanager
def eager_training():
    """``Trainer`` trains eagerly inside: its tape refuses the model."""
    with pytest.MonkeyPatch.context() as patch, pytest.warns(
        RuntimeWarning, match="falls back to the eager path"
    ):
        patch.setattr(trainer_module, "CompiledModel", RefusedTape)
        yield


class TestFloat64Equivalence:
    """Replay must be indistinguishable from eager — to the bit."""

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_forward_bit_exact_on_capture_and_replay(self, pooling):
        rng = np.random.default_rng(11)
        model = build_model(small_config(pooling)).eval()
        compiled = CompiledModel(model)
        first, second = random_batch(rng), random_batch(rng)

        captured = compiled.forward(first)
        assert np.array_equal(captured, model(first).data)  # repro: allow[float-equality] — bit-exactness is the contract under test
        replayed = compiled.forward(second)
        assert np.array_equal(replayed, model(second).data)  # repro: allow[float-equality] — bit-exactness is the contract under test
        stats = compiled.stats()
        assert stats["captures"] == 1 and stats["replays"] == 1
        assert stats["fused_ops"] > 0  # SpMM+ReLU / Linear+ReLU collapsed

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_gradients_bit_exact_after_replay(self, pooling):
        rng = np.random.default_rng(23)
        eager_model = build_model(small_config(pooling)).eval()
        compiled_model = build_model(small_config(pooling)).eval()
        compiled = CompiledModel(compiled_model)
        labels = np.array([0, 1, 2, 3])
        batches = [random_batch(rng) for _ in range(2)]

        for batch in batches:  # second iteration exercises replay-backward
            _, expected = eager_gradients(eager_model, batch, labels)
            _, actual = compiled_gradients(
                compiled, compiled_model, batch, labels
            )
            assert expected.keys() == actual.keys()
            for name in expected:
                assert np.array_equal(actual[name], expected[name]), name  # repro: allow[float-equality] — bit-exactness is the contract under test

    def test_training_mode_dropout_stream_is_preserved(self):
        # Replay draws from the Dropout module's own rng, so a compiled
        # run consumes the identical stream an eager run would have.
        rng = np.random.default_rng(3)
        eager_model = build_model(small_config("sort_conv1d", dropout=0.4))
        compiled_model = build_model(small_config("sort_conv1d", dropout=0.4))
        eager_model.train(True)
        compiled_model.train(True)
        compiled = CompiledModel(compiled_model)
        labels = np.array([1, 3, 0, 2])
        for batch in [random_batch(rng) for _ in range(3)]:
            _, expected = eager_gradients(eager_model, batch, labels)
            _, actual = compiled_gradients(
                compiled, compiled_model, batch, labels
            )
            for name in expected:
                assert np.array_equal(actual[name], expected[name]), name  # repro: allow[float-equality] — bit-exactness is the contract under test
        assert compiled.stats()["replays"] == 2

    def test_full_training_run_matches_eager(self):
        rng = np.random.default_rng(5)
        data = [
            random_acfg(rng, int(rng.integers(3, 9)),
                        label=int(rng.integers(0, NUM_CLASSES)))
            for _ in range(20)
        ]
        histories, states = [], []
        for runs in (eager_training, contextlib.nullcontext):
            model = build_model(small_config("adaptive", dropout=0.2))
            trainer = Trainer(TrainingConfig(epochs=3, batch_size=10, seed=9))
            with runs():
                histories.append(trainer.train(model, data))
            states.append(model.state_dict())
        assert histories[0].train_losses == histories[1].train_losses  # repro: allow[float-equality] — bit-exactness is the contract under test
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name]), name  # repro: allow[float-equality] — bit-exactness is the contract under test


class TestFloat32Inference:
    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_within_documented_tolerance(self, pooling):
        rng = np.random.default_rng(41)
        model = build_model(small_config(pooling)).eval()
        compiled = CompiledModel(model, dtype="float32")
        for batch in [random_batch(rng) for _ in range(2)]:  # capture + replay
            out = compiled.infer(batch)
            assert out.dtype == np.float32
            reference = model(batch).data
            np.testing.assert_allclose(
                out.astype(np.float64), reference, atol=FLOAT32_ATOL
            )

    def test_training_mode_is_rejected(self):
        model = build_model(small_config("adaptive")).train(True)
        compiled = CompiledModel(model, dtype="float32")
        with pytest.raises(CompilationError):
            compiled.forward(random_batch(np.random.default_rng(0)))

    def test_backward_is_rejected(self):
        rng = np.random.default_rng(1)
        model = build_model(small_config("adaptive")).eval()
        compiled = CompiledModel(model, dtype="float32")
        out = compiled.infer(random_batch(rng))
        with pytest.raises(GradientError):
            compiled.backward(np.zeros_like(out, dtype=np.float64))

    def test_parameter_update_invalidates_cast_cache(self):
        # load_state_dict rebinds parameter arrays; the float32 leaf
        # cache must notice and re-cast instead of serving stale casts.
        rng = np.random.default_rng(2)
        model = build_model(small_config("adaptive")).eval()
        compiled = CompiledModel(model, dtype="float32")
        batch = random_batch(rng)
        before = compiled.infer(batch).copy()
        state = {
            key: value * 1.5 for key, value in model.state_dict().items()
        }
        model.load_state_dict(state)
        after = compiled.infer(batch)
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(
            after.astype(np.float64), model(batch).data, atol=FLOAT32_ATOL
        )


def shape_sequence(count=22, seed=29):
    """Batch sizes with distinct boundaries: large, small, large, two
    batches with the same vertex and graph counts, then mixed."""
    rng = np.random.default_rng(seed)
    sequence = [(9, 12, 7, 11, 10, 8), (1,), (12, 3, 10, 9, 11, 6), (5, 3), (3, 5)]
    while len(sequence) < count:
        sizes = tuple(int(n) for n in rng.integers(1, 13, int(rng.integers(1, 7))))
        if sizes not in sequence:
            sequence.append(sizes)
    return sequence


class TestFloat32AcrossShapes:
    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_one_program_serves_every_shape(self, pooling):
        rng = np.random.default_rng(43)
        model = build_model(small_config(pooling)).eval()
        compiled = CompiledModel(model, dtype="float32")
        for sizes in shape_sequence():
            batch = random_batch(rng, sizes)
            np.testing.assert_allclose(
                compiled.infer(batch).astype(np.float64), model(batch).data,
                atol=FLOAT32_ATOL,
            )
        stats = compiled.stats()
        assert stats["programs"] == 1 and stats["captures"] == 1


class TestSignatureCache:
    """One program per (mode, dtype, attribute width, normalization)."""

    def test_program_key_ignores_shape_and_tracks_mode_and_dtype(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng)
        base = program_key(batch, False, np.dtype(np.float64))
        other = random_batch(rng, sizes=(3, 5, 2, 7, 1))
        assert base == program_key(other, False, np.dtype(np.float64))
        assert base != program_key(batch, True, np.dtype(np.float64))
        assert base != program_key(batch, False, np.dtype(np.float32))
        raw = GraphBatch([random_acfg(rng, 4)], normalize_propagation=False)
        assert base != program_key(raw, False, np.dtype(np.float64))

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_one_program_replays_every_shape_bit_exact(self, pooling, training):
        # Large -> small -> large and then mixed shapes through one
        # program: every forward and every parameter gradient must equal
        # the eager run's, dropout stream included.
        rng = np.random.default_rng(31)
        dropout = 0.3 if training else 0.0
        eager_model = build_model(small_config(pooling, dropout=dropout)).train(training)
        compiled_model = build_model(small_config(pooling, dropout=dropout)).train(training)
        compiled = CompiledModel(compiled_model)
        sequence = shape_sequence()
        assert len({tuple(random_batch(rng, s).boundaries) for s in sequence}) >= 20
        for sizes in sequence:
            batch = random_batch(rng, sizes)
            labels = rng.integers(0, NUM_CLASSES, len(sizes))
            expected_out, expected = eager_gradients(eager_model, batch, labels)
            actual_out, actual = compiled_gradients(compiled, compiled_model, batch, labels)
            assert np.array_equal(actual_out, expected_out), sizes  # repro: allow[float-equality] — bit-exactness is the contract under test
            assert expected.keys() == actual.keys()
            for name in expected:
                assert np.array_equal(actual[name], expected[name]), (sizes, name)  # repro: allow[float-equality] — bit-exactness is the contract under test
        stats = compiled.stats()
        assert stats["programs"] == 1
        assert stats["captures"] == 1 and stats["replays"] == len(sequence) - 1

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_arena_is_bounded_by_the_largest_batch(self, pooling):
        # The largest batch has the most graphs and each of them is
        # larger than any graph of the other batches, so it needs the
        # most room in every slot and workspace array.
        largest = (16,) * 8

        def arena_after(sequence):
            rng = np.random.default_rng(37)
            model = build_model(small_config(pooling, dropout=0.3)).train(True)
            compiled = CompiledModel(model)
            for sizes in sequence:
                batch = random_batch(rng, sizes)
                compiled_gradients(compiled, model, batch, rng.integers(0, NUM_CLASSES, len(sizes)))
            return compiled.stats()["arena_bytes"]

        mixed = shape_sequence()
        held = arena_after(mixed[:10] + [largest] + mixed[10:])
        alone = arena_after([largest, largest])  # capture, then one replay
        assert 0 < held <= alone

    def test_rejects_bad_configuration(self):
        model = build_model(small_config("adaptive"))
        with pytest.raises(CompilationError):
            CompiledModel(model, dtype="float16")

    def test_backward_before_forward_raises(self):
        model = build_model(small_config("adaptive"))
        with pytest.raises(GradientError):
            CompiledModel(model).backward(np.zeros((1, NUM_CLASSES)))


class UntapeableModel(Module):
    """A GraphBatch model with a custom op: eager runs it, the tape refuses it."""

    normalize_propagation = True

    def __init__(self):
        super().__init__()
        self.weight = Parameter(
            np.linspace(-1.0, 1.0, NUM_ATTRIBUTES * NUM_CLASSES).reshape(
                NUM_ATTRIBUTES, NUM_CLASSES
            )
        )
        self.calls = 0

    def forward(self, batch):
        self.calls += 1
        scores = batch.attributes[batch.boundaries[:-1]] @ self.weight.data
        log_probs = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
        return Tensor._make(log_probs, (self.weight,), grad_fn=lambda g: (None,))


class TestPredictionTape:
    """Predictions replay one lean float64 tape cached per model."""

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_default_predict_proba_captures_once_bit_exact(self, pooling):
        rng = np.random.default_rng(47)
        model = build_model(small_config(pooling))
        sizes = (1, 7, 3, 12, 5, 9)
        for n in sizes:
            graph = random_acfg(rng, n)
            out = Trainer.predict_proba(model, [graph])
            expected = np.exp(model(collate_graphs([graph])).data)
            assert np.array_equal(out, expected), n  # repro: allow[float-equality] — bit-exactness is the contract under test
        stats = inference_tape(model).stats()
        assert stats["captures"] == 1 and stats["replays"] == len(sizes) - 1

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_infer_then_backward_raises(self, pooling):
        rng = np.random.default_rng(53)
        model = build_model(small_config(pooling)).eval()
        compiled = CompiledModel(model)
        for _ in range(2):  # after the capture, then after a replay
            out = compiled.infer(random_batch(rng))
            with pytest.raises(GradientError, match="infer"):
                compiled.backward(np.zeros_like(out))

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_infer_keeps_no_argmaxes(self, pooling):
        # Adaptive max pooling and SortPooling's Conv1D head's max pool
        # save argmaxes for a backward; the weighted-vertices head has none.
        rng = np.random.default_rng(57)
        model = build_model(small_config(pooling)).eval()
        lean, full = CompiledModel(model), CompiledModel(model)
        for batch in [random_batch(rng) for _ in range(3)]:
            lean.infer(batch)
            full.forward(batch)
        lean_bytes, full_bytes = (t.stats()["arena_bytes"] for t in (lean, full))
        if pooling == "sort_weighted":
            assert lean_bytes == full_bytes
        else:
            assert lean_bytes < full_bytes

    @pytest.mark.parametrize("pooling", POOLING_TYPES)
    def test_eval_backward_stays_bit_exact_between_lean_replays(self, pooling):
        # Lean infer replays and eval-mode forward+backward share one
        # program; the argmaxes a backward reads are back after infer.
        rng = np.random.default_rng(59)
        eager_model = build_model(small_config(pooling)).eval()
        compiled_model = build_model(small_config(pooling)).eval()
        compiled = CompiledModel(compiled_model)
        labels = np.array([0, 1, 2, 3])
        for _ in range(3):
            lean_batch, batch = random_batch(rng), random_batch(rng)
            lean = compiled.infer(lean_batch)
            assert np.array_equal(lean, eager_model(lean_batch).data)  # repro: allow[float-equality] — bit-exactness is the contract under test
            _, expected = eager_gradients(eager_model, batch, labels)
            _, actual = compiled_gradients(compiled, compiled_model, batch, labels)
            for name in expected:
                assert np.array_equal(actual[name], expected[name]), name  # repro: allow[float-equality] — bit-exactness is the contract under test
        assert compiled.stats()["programs"] == 1

    def test_cached_tape_dies_with_its_model(self):
        rng = np.random.default_rng(61)
        model = build_model(small_config("adaptive"))
        Trainer.predict_proba(model, [random_acfg(rng, 6), random_acfg(rng, 4)])
        tape = weakref.ref(inference_tape(model))
        gc.disable()
        try:
            del model
            # Reference counting alone frees it: no model<->tape cycle.
            assert tape() is None
        finally:
            gc.enable()

    def test_model_stays_copyable_and_picklable(self):
        rng = np.random.default_rng(67)
        graphs = [random_acfg(rng, n) for n in (5, 8)]
        model = build_model(small_config("sort_weighted"))
        expected = Trainer.predict_proba(model, graphs)
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert np.array_equal(Trainer.predict_proba(clone, graphs), expected)  # repro: allow[float-equality] — bit-exactness is the contract under test
            assert inference_tape(clone) is not inference_tape(model)

    def test_refused_model_goes_straight_to_eager(self):
        rng = np.random.default_rng(71)
        graphs = [random_acfg(rng, n) for n in (4, 6)]
        model = UntapeableModel()
        first = Trainer.predict_proba(model, graphs)
        assert model.calls == 2  # the refused capture, then the eager run
        tape = inference_tape(model)
        assert tape.refused is not None
        assert tape.stats()["captures"] == 0
        second = Trainer.predict_proba(model, graphs)
        assert model.calls == 3  # no second capture
        assert np.array_equal(first, second)  # repro: allow[float-equality] — same eager arithmetic
        with pytest.raises(CompilationError):
            tape.infer(collate_graphs(graphs))
        assert model.calls == 3

    def test_one_graph_batch_leaves_the_cached_operator_unchanged(self):
        rng = np.random.default_rng(73)
        graph = random_acfg(rng, 9)
        operator = graph.operator()
        before = [operator.data.copy(), operator.indices.copy(), operator.indptr.copy()]
        model = build_model(small_config("sort_conv1d")).eval()
        labels = np.array([2])
        for dtype in ("float64", "float32"):
            compiled = CompiledModel(model, dtype=dtype)
            for _ in range(3):  # capture, then replays
                batch = GraphBatch([graph])
                assert batch.propagation is operator  # shared, not merged
                compiled.infer(batch)
        compiled = CompiledModel(model)
        for _ in range(3):  # float64 forward+backward reads the transpose too
            compiled_gradients(compiled, model, GraphBatch([graph]), labels)
        assert graph.operator() is operator
        for kept, now in zip(before, (operator.data, operator.indices, operator.indptr)):
            assert np.array_equal(kept, now)  # repro: allow[float-equality] — untouched storage
