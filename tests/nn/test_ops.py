"""Op-level parity of the two engines over every op-table entry.

Each case builds one op (or, for the fused entries, the chain the tape's
fusion pass collapses into it) over ``requires_grad`` leaves and checks
three runs against each other: eager autograd, the compiled tape on the
capture inputs, and a replay of the same tape after every leaf is
rebound to new values and the batch to a new same-shape batch.  float64
compares the forward output and every input gradient with
``np.array_equal``; float32 inference stays within 1e-4 of the float64
eager output.

Several kinds (``sub``, ``pow``, ``gather``, ...) are reached by no DGCNN
variant, so this is the only test of their replay path.

The batched pooling heads (``sort_pool``, ``conv2d_amp``) are also
checked graph by graph against the generic ops they replace.
"""

from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np
import pytest

from repro.core.adaptive_pooling import conv2d_adaptive_max_pool
from repro.core.batched import GraphBatch
from repro.core.sort_pooling import sort_pool, sort_vertex_order
from repro.nn import functional as F
from repro.nn import ops
from repro.nn.ops import OPS, Workspace
from repro.nn.tape import compile_output
from repro.nn.tensor import Tensor, concatenate, gather_rows, pad_rows, stack

from tests.conftest import acfg_from_dense

FLOAT32_ATOL = 1e-4
VERTICES = (3, 4)
#: Graph sizes 2, 7, 1, 4 around k = 4: padded, truncated and exact.
SORT_K = 4
SORT_BOUNDS = (0, 2, 9, 10, 14)
#: Graph sizes 1, 2, 5, 7: every row window of a 3x3 grid overlaps another.
AMP_BOUNDS = (0, 1, 3, 8, 15)


class Case(NamedTuple):
    name: str
    kind: str
    shapes: Tuple[Tuple[int, ...], ...]
    fn: Callable[[List[Tensor], GraphBatch, np.random.Generator], Tensor]
    positive: bool = False  # draw inputs from [0.5, 2) (log, div, pow)
    ties: bool = False  # first input has tied keys and duplicate rows


def graph_batch(seed: int) -> GraphBatch:
    rng = np.random.default_rng(seed)
    acfgs = []
    for n in VERTICES:
        adjacency = (rng.random((n, n)) < 0.5).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        acfgs.append(acfg_from_dense(adjacency=adjacency, attributes=rng.standard_normal((n, 11))))
    return GraphBatch(acfgs)


def propagate(x: Tensor, batch: GraphBatch) -> Tensor:
    return F.sparse_matmul(batch.propagation, x, batch.propagation_transpose())


N = sum(VERTICES)

CASES = [
    Case("add_broadcast", "add", ((3, 4), (4,)), lambda t, b, r: t[0] + t[1]),
    Case("sub_broadcast", "sub", ((3, 4), (3, 1)), lambda t, b, r: t[0] - t[1]),
    Case("mul", "mul", ((2, 3), (2, 3)), lambda t, b, r: t[0] * t[1]),
    Case("div", "div", ((2, 3), (2, 3)), lambda t, b, r: t[0] / t[1], positive=True),
    Case("neg", "neg", ((2, 3),), lambda t, b, r: -t[0]),
    Case("pow", "pow", ((5,),), lambda t, b, r: t[0] ** 3, positive=True),
    Case("matmul", "matmul", ((3, 4), (4, 2)), lambda t, b, r: t[0] @ t[1]),
    Case("matmul_vector", "matmul", ((4,), (4, 2)), lambda t, b, r: t[0] @ t[1]),
    Case("matmul_broadcast", "matmul", ((1, 4), (3, 4, 5)), lambda t, b, r: t[0] @ t[1]),
    Case("transpose", "transpose", ((2, 3, 4),), lambda t, b, r: t[0].transpose(1, 0, 2)),
    Case("reshape", "reshape", ((2, 6),), lambda t, b, r: t[0].reshape(3, 4)),
    Case("getitem_slice", "getitem", ((5, 3),), lambda t, b, r: t[0][1:4]),
    Case("getitem_repeats", "getitem", ((5, 3),), lambda t, b, r: t[0][[0, 2, 0]]),
    Case("concat", "concat", ((2, 3), (2, 2)),
         lambda t, b, r: concatenate([t[0], t[1]], axis=1)),
    Case("stack", "stack", ((2, 3), (2, 3)), lambda t, b, r: stack([t[0], t[1]], axis=1)),
    Case("gather", "gather", ((4, 3),), lambda t, b, r: gather_rows(t[0], [2, 0, 2])),
    Case("pad_rows", "pad_rows", ((3, 2),), lambda t, b, r: pad_rows(t[0], 5)),
    Case("sum_axis", "sum", ((3, 4),), lambda t, b, r: t[0].sum(axis=1)),
    Case("sum_all", "sum", ((3, 4),), lambda t, b, r: t[0].sum()),
    Case("max", "max", ((3, 4),), lambda t, b, r: t[0].max(axis=1)),
    Case("relu", "relu", ((3, 4),), lambda t, b, r: t[0].relu()),
    Case("tanh", "tanh", ((3, 4),), lambda t, b, r: t[0].tanh()),
    Case("sigmoid", "sigmoid", ((3, 4),), lambda t, b, r: t[0].sigmoid()),
    Case("exp", "exp", ((3, 4),), lambda t, b, r: t[0].exp()),
    Case("log", "log", ((3, 4),), lambda t, b, r: t[0].log(), positive=True),
    Case("conv1d", "conv1d", ((2, 3, 9), (4, 3, 3), (4,)),
         lambda t, b, r: F.conv1d(t[0], t[1], t[2], stride=2)),
    Case("conv1d_disjoint", "conv1d", ((2, 3, 14), (4, 3, 4), (4,)),
         lambda t, b, r: F.conv1d(t[0], t[1], t[2], stride=4)),
    Case("conv2d_padded", "conv2d", ((1, 2, 5, 4), (3, 2, 3, 3), (3,)),
         lambda t, b, r: F.conv2d(t[0], t[1], t[2], stride=1, padding=1)),
    Case("conv2d_strided", "conv2d", ((1, 2, 6, 5), (3, 2, 2, 2)),
         lambda t, b, r: F.conv2d(t[0], t[1], stride=2)),
    Case("max_pool2d", "max_pool2d", ((2, 2, 4, 6),),
         lambda t, b, r: F.max_pool2d(t[0], 2)),
    Case("adaptive_max_pool2d", "adaptive_max_pool2d", ((1, 2, 5, 7),),
         lambda t, b, r: F.adaptive_max_pool2d(t[0], (3, 3))),
    Case("max_pool2d_of_relu", "max_pool2d", ((2, 2, 4, 6),),
         lambda t, b, r: F.max_pool2d(t[0].relu(), 2)),
    Case("sort_pool_truncate", "sort_pool", ((6, 4),),
         lambda t, b, r: sort_pool(t[0], 4, (0, 6))),
    Case("sort_pool_pad", "sort_pool", ((3, 4),), lambda t, b, r: sort_pool(t[0], 5, (0, 3))),
    Case("sort_pool_batch_ties", "sort_pool", ((SORT_BOUNDS[-1], 3),),
         lambda t, b, r: sort_pool(t[0], SORT_K, SORT_BOUNDS), ties=True),
    Case("conv2d_amp", "conv2d_amp", ((6, 5), (2, 1, 3, 3), (2,)),
         lambda t, b, r: conv2d_adaptive_max_pool(t[0], t[1], t[2], (3, 3), (0, 6))),
    Case("conv2d_amp_batch_ties", "conv2d_amp", ((AMP_BOUNDS[-1], 5), (2, 1, 3, 3), (2,)),
         lambda t, b, r: conv2d_adaptive_max_pool(t[0], t[1], t[2], (3, 3), AMP_BOUNDS),
         ties=True),
    Case("spmm", "spmm", ((N, 3),), lambda t, b, r: propagate(t[0], b)),
    # No transpose passed: the backward transposes lazily, and a replay
    # must still use the replay batch's transpose.
    Case("spmm_lazy_transpose", "spmm", ((N, 3),),
         lambda t, b, r: F.sparse_matmul(b.propagation, t[0])),
    Case("log_softmax", "log_softmax", ((3, 5),), lambda t, b, r: F.log_softmax(t[0])),
    Case("dropout", "dropout", ((4, 5),),
         lambda t, b, r: F.dropout(t[0], 0.4, training=True, rng=r)),
    Case("spmm_relu", "spmm_act", ((N, 3),), lambda t, b, r: propagate(t[0], b).relu()),
    Case("spmm_tanh", "spmm_act", ((N, 3),), lambda t, b, r: propagate(t[0], b).tanh()),
    Case("linear_relu", "linear_relu", ((3, 4), (4, 5), (5,)),
         lambda t, b, r: (t[0] @ t[1] + t[2]).relu()),
]


def tied(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Small integers, so keys tie, with every third row a duplicate."""
    values = rng.integers(-2, 3, shape).astype(float)
    values[1::3] = values[0::3][: len(values[1::3])]
    return values


def draw(case: Case, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    if case.positive:
        return [rng.uniform(0.5, 2.0, shape) for shape in case.shapes]
    values = [rng.standard_normal(shape) for shape in case.shapes]
    if case.ties:
        values[0] = tied(rng, case.shapes[0])
    return values


def eager(case: Case, values: Sequence[np.ndarray], batch: GraphBatch,
          rng: np.random.Generator):
    """Forward + backward with a fixed random seed gradient."""
    leaves = [Tensor(v.copy(), requires_grad=True) for v in values]
    out = case.fn(leaves, batch, rng)
    seed = np.random.default_rng(99).standard_normal(out.shape)
    out.backward(seed)
    return out, seed, out.data.copy(), [leaf.grad.copy() for leaf in leaves], leaves


def assert_bit_exact(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)  # repro: allow[float-equality] — bit-exactness is the contract under test


def test_every_table_entry_has_a_case():
    assert {case.kind for case in CASES} == set(OPS)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_float64_eager_capture_and_replay_are_bit_exact(case):
    batch, replay_batch = graph_batch(0), graph_batch(1)
    rng = np.random.default_rng(7)
    drawn = rng.bit_generator.state
    out, seed, expected, expected_grads, leaves = eager(case, draw(case, 1), batch, rng)
    executor = compile_output(out, batch)
    assert case.kind in {record.kind for record in executor.records}

    # Capture inputs: the tape must reproduce the eager run exactly
    # (dropout redraws the same mask from the same generator state).
    rng.bit_generator.state = drawn
    for leaf in leaves:
        leaf.grad = None
    assert_bit_exact(executor.forward(batch), expected)
    executor.backward(seed)
    for leaf, grad in zip(leaves, expected_grads):
        assert_bit_exact(leaf.grad, grad)

    # Replay: new leaf values (rebinding, as an optimizer step does) and
    # a new batch of the same signature.
    values = draw(case, 2)
    drawn = rng.bit_generator.state
    _, _, expected, expected_grads, _ = eager(case, values, replay_batch, rng)
    rng.bit_generator.state = drawn
    for leaf, value in zip(leaves, values):
        leaf.data = value.copy()
        leaf.grad = None
    assert_bit_exact(executor.forward(replay_batch), expected)
    executor.backward(seed)
    for leaf, grad in zip(leaves, expected_grads):
        assert_bit_exact(leaf.grad, grad)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_float32_inference_within_tolerance(case):
    batch, replay_batch = graph_batch(0), graph_batch(1)
    rng = np.random.default_rng(7)
    drawn = rng.bit_generator.state
    out, _, expected, _, leaves = eager(case, draw(case, 1), batch, rng)
    executor = compile_output(out, batch, dtype="float32")

    rng.bit_generator.state = drawn
    got = executor.forward(batch)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got.astype(np.float64), expected, atol=FLOAT32_ATOL)

    values = draw(case, 2)
    drawn = rng.bit_generator.state
    _, _, expected, _, _ = eager(case, values, replay_batch, rng)
    rng.bit_generator.state = drawn
    for leaf, value in zip(leaves, values):
        leaf.data = value.copy()
    got = executor.forward(replay_batch)
    np.testing.assert_allclose(got.astype(np.float64), expected, atol=FLOAT32_ATOL)


# ----------------------------------------------------------------------
# the batched pooling heads against the per-graph generic ops


def pooling_inputs(kind: str, n: int, width: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.standard_normal((n, width))
    if kind == "tied":
        return tied(rng, (n, width))
    return np.ones((n, width))  # every interior conv cell ties


def assert_grads_close(actual: Sequence[Tensor], expected: Sequence[Tensor]) -> None:
    for got, want in zip(actual, expected):
        np.testing.assert_allclose(got.grad, want.grad, rtol=0, atol=1e-12)


def leaves_of(values: Sequence[np.ndarray]) -> List[Tensor]:
    return [Tensor(v.copy(), requires_grad=True) for v in values]


@pytest.mark.parametrize("inputs", ["normal", "tied", "constant"])
def test_sort_pool_matches_per_graph_sort_take_and_pad(inputs):
    x = pooling_inputs(inputs, SORT_BOUNDS[-1], 3, seed=4)
    seed = np.random.default_rng(5).standard_normal((len(SORT_BOUNDS) - 1, SORT_K, 3))

    (batched,) = leaves_of([x])
    out = sort_pool(batched, SORT_K, SORT_BOUNDS)
    out.backward(seed)

    (reference,) = leaves_of([x])
    pooled = []
    for start, end in zip(SORT_BOUNDS[:-1], SORT_BOUNDS[1:]):
        rows = reference[start:end]
        order = sort_vertex_order(rows.data)[:SORT_K]
        pooled.append(pad_rows(gather_rows(rows, order), SORT_K))
    expected = stack(pooled, axis=0)
    expected.backward(seed)

    assert_bit_exact(out.data, expected.data)
    assert_grads_close([batched], [reference])


def test_sort_pool_orders_nan_keys_like_the_per_graph_sort():
    x = pooling_inputs("tied", SORT_BOUNDS[-1], 3, seed=6)
    x[[3, 5, 6, 12], -1] = np.nan
    x[4, 0] = np.nan
    k = max(np.diff(SORT_BOUNDS))  # keep every row, NaN keys sort last
    out = sort_pool(Tensor(x), k, SORT_BOUNDS).data
    for graph, (start, end) in enumerate(zip(SORT_BOUNDS[:-1], SORT_BOUNDS[1:])):
        order = sort_vertex_order(x[start:end])
        np.testing.assert_array_equal(out[graph, : order.size], x[start:end][order])


@pytest.mark.parametrize("inputs", ["normal", "tied", "constant"])
def test_conv2d_amp_matches_per_graph_conv_relu_and_pool(inputs):
    rng = np.random.default_rng(8)
    values = [
        pooling_inputs(inputs, AMP_BOUNDS[-1], 5, seed=7),
        rng.standard_normal((4, 1, 3, 3)),
        rng.standard_normal(4),
    ]
    seed = np.random.default_rng(9).standard_normal((len(AMP_BOUNDS) - 1, 4, 3, 3))

    fused = leaves_of(values)
    out = conv2d_adaptive_max_pool(*fused, (3, 3), AMP_BOUNDS).relu()
    out.backward(seed)

    reference = leaves_of(values)
    x, weight, bias = reference
    pooled = []
    for start, end in zip(AMP_BOUNDS[:-1], AMP_BOUNDS[1:]):
        image = x[start:end].reshape(1, 1, end - start, 5)
        convolved = F.conv2d(image, weight, bias, padding=1).relu()
        pooled.append(F.adaptive_max_pool2d(convolved, (3, 3)).reshape(4, 3, 3))
    expected = stack(pooled, axis=0)
    expected.backward(seed)

    assert_bit_exact(out.data, expected.data)
    assert_grads_close(fused, reference)


def test_conv2d_amp_pools_nan_like_the_per_graph_pool():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((AMP_BOUNDS[-1], 5))
    x[[0, 4, 12], [2, 0, 4]] = np.nan
    weight, bias = Tensor(rng.standard_normal((2, 1, 3, 3))), Tensor(rng.standard_normal(2))
    fused = conv2d_adaptive_max_pool(Tensor(x, requires_grad=True), weight, bias, (3, 3), AMP_BOUNDS)
    fused.backward(np.ones(fused.shape))
    for graph, (start, end) in enumerate(zip(AMP_BOUNDS[:-1], AMP_BOUNDS[1:])):
        image = Tensor(x[start:end].reshape(1, 1, end - start, 5))
        convolved = F.conv2d(image, weight, bias, padding=1)
        expected = F.adaptive_max_pool2d(convolved, (3, 3)).data[0]
        np.testing.assert_array_equal(fused.data[graph], expected)


@pytest.mark.parametrize("block", [1, 2, 5, 64])
def test_lean_conv2d_amp_convolves_in_row_blocks(monkeypatch, block):
    # A lean forward builds the conv map a few rows at a time; its
    # output equals the whole-map forward's bit for bit, and its scratch
    # stays the same size as the batch grows.
    monkeypatch.setattr(ops, "AMP_ROW_BLOCK", block)
    rng = np.random.default_rng(13)
    weight, bias = rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2)
    op, lean = OPS["conv2d_amp"], Workspace(differentiable=False)
    scratch = []
    for bounds in (AMP_BOUNDS, (0, 9), (0, 3, 4), tuple(range(0, 41, 5))):
        for kind in ("normal", "tied"):
            x = pooling_inputs(kind, bounds[-1], 5, seed=14)
            x[x.shape[0] // 2, 1] = np.nan
            ins, meta = [x, weight, bias], {"grid": (3, 3), "boundaries": bounds}
            np.testing.assert_array_equal(op.forward(ins, None, meta, lean),
                                          op.forward(ins, None, meta, {}))
        scratch.append(lean.storage["conv"].size)
    assert "best_rows" not in lean.storage
    assert max(scratch) <= 3 * block * 2  # widest column window x block x channels


@pytest.mark.parametrize("kind", ["sort_pool", "conv2d_amp"])
def test_pooling_head_replays_across_shapes_with_one_workspace(kind):
    # One Workspace serves batches of different shapes, larger and
    # smaller than the one before and with the same vertex and graph
    # counts but other boundaries: its plans and arrays (and the conv
    # image's zero padding) must follow the boundaries.
    rng = np.random.default_rng(12)
    weight, bias = rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2)
    op, state = OPS[kind], Workspace()
    for bounds in (AMP_BOUNDS, (0, 3, 4), AMP_BOUNDS, (0, 7, 8, 10, 15), (0, 9)):
        x = rng.standard_normal((bounds[-1], 5))
        if kind == "sort_pool":
            ins, meta = [x], {"k": SORT_K, "boundaries": bounds}
        else:
            ins, meta = [x, weight, bias], {"grid": (3, 3), "boundaries": bounds}
        fresh: dict = {}
        expected = op.forward(ins, None, meta, fresh)
        out = np.empty_like(expected)
        assert op.forward(ins, out, meta, state) is out
        assert_bit_exact(out, expected)
        g = rng.standard_normal(expected.shape)
        need = [True] * len(ins)
        for got, want in zip(op.backward(g, ins, out, meta, state, need),
                             op.backward(g, ins, expected, meta, fresh, need)):
            assert_bit_exact(got, want)


@pytest.mark.parametrize("length, kernel, stride", [
    (12, 4, 4),   # windows tile the input
    (14, 4, 4),   # windows leave a tail the gradient never reaches
    (9, 3, 2),    # overlapping windows
    (9, 3, 1),
    (10, 2, 3),   # gaps between windows
])
def test_conv1d_input_gradient_matches_the_tap_loop(monkeypatch, length, kernel, stride):
    # The column gradient is drawn directly, -0.0 taps included (a BLAS
    # matmul never yields -0.0), and scattered back by the kernel.
    rng = np.random.default_rng(length * 100 + kernel * 10 + stride)
    x = rng.standard_normal((2, 3, length))
    w = rng.standard_normal((4, 3, kernel))
    l_out = (length - kernel) // stride + 1
    windows = rng.standard_normal((2, 3, kernel, l_out))
    windows[rng.random(windows.shape) < 0.3] = -0.0
    monkeypatch.setattr(
        ops, "_conv_bwd",
        lambda g, ins, state, need: ([None, None], windows.reshape(2, -1, l_out)),
    )
    g = np.zeros((2, 4, l_out))
    grad_x = OPS["conv1d"].backward(g, [x, w], g, {"stride": stride}, {}, [True, False])[0]

    expected = np.zeros_like(x)
    for k in range(kernel):
        expected[:, :, k : k + stride * l_out : stride] += windows[:, :, k, :]
    assert_bit_exact(grad_x, expected)
    assert np.array_equal(np.signbit(grad_x), np.signbit(expected))
