"""The op table: one forward and one backward kernel per op kind.

Both execution engines run these kernels and nothing else.  The eager
:class:`~repro.nn.tensor.Tensor` calls them with fresh arrays while it
records the autograd graph; the compiled tape (:mod:`repro.nn.tape`)
calls the very same functions with preallocated arena buffers.  Because
each op's arithmetic is written once, float64 replay is bit-exact with
eager execution by construction.

Kernel signatures
-----------------
``forward(ins, out, meta, state) -> array``
    ``ins`` are the input arrays in parent order.  ``out`` is ``None``
    (allocate the result) or the array to write it into; view kinds
    (``reshape``, ``getitem``, ``transpose``) ignore it and return a
    view of their input.
``backward(g, ins, out, meta, state, need) -> grads``
    ``g`` is the gradient of the output ``out``.  Returns one entry per
    input: its gradient, or ``None`` where ``need`` is false (a kernel
    may also fill those in; callers ignore them).

``shape(ins, meta) -> tuple``
    The shape ``forward`` gives its result for these inputs; the tape
    reads it to hand the kernel an ``out`` view of the right size.
    View kinds have none.

``meta`` holds an op's static parameters and operands (axis, stride,
the constant sparse propagation matrix, the dropout generator, a
pooling head's ``boundaries``).  ``state`` is the per-node mutable part:
the data-dependent values the backward kernel reuses (argmaxes, the
sort order, the dropout mask, im2col columns), per-batch plans and
scratch arrays.  Eager execution gives every op a fresh plain ``dict``,
so scratch is allocated per call and dropped with it; the tape gives
every record one :class:`Workspace`, whose arrays are views of
grow-only storage, so one tape serves batches of any shape and
allocates only when a batch needs more room than any before it.
Plans derived from ``boundaries`` or an input's shape are re-derived
when those change.  An inference-only tape's workspaces are not
``differentiable``, and forward kernels skip the argmaxes no backward
will read.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

try:  # scipy's C kernel for CSR @ dense-matrix, accumulating into out.
    # Private module, so guard the import *and* the symbol: if either is
    # missing we fall back to the (allocating) ``matrix @ src`` operator,
    # which runs the same arithmetic.
    from scipy.sparse import _sparsetools as _sparse_kernels

    _HAVE_CSR_MATVECS = hasattr(_sparse_kernels, "csr_matvecs")
except ImportError:  # pragma: no cover - scipy is a hard dependency
    _sparse_kernels = None
    _HAVE_CSR_MATVECS = False

Arrays = Sequence[np.ndarray]
Grads = Sequence[Optional[np.ndarray]]
Forward = Callable[[Arrays, Optional[np.ndarray], Dict[str, Any], Dict[str, Any]], np.ndarray]
Backward = Callable[
    [np.ndarray, Arrays, np.ndarray, Dict[str, Any], Dict[str, Any], Sequence[bool]],
    Grads,
]


Shape = Callable[[Arrays, Dict[str, Any]], Tuple[int, ...]]


class Op:
    """One table entry: the forward and backward kernel of a kind, and
    the forward result's shape (``None`` for view kinds)."""

    __slots__ = ("forward", "backward", "shape")

    def __init__(self, forward: Forward, backward: Backward, shape: Optional[Shape]) -> None:
        self.forward = forward
        self.backward = backward
        self.shape = shape


class Workspace(dict):
    """A tape record's state: its arrays are views of grow-only storage.

    :meth:`array` hands out a view of the storage kept under a key,
    reallocating that storage only when a shape needs more elements than
    it holds, so a workspace ends up holding each array at the largest
    size any batch asked for.  An inference-only (float32) tape marks
    its workspaces not ``differentiable``: no backward kernel will read
    them, so forward kernels skip the values only a backward reads
    (argmaxes).
    """

    def __init__(self, differentiable: bool = True) -> None:
        super().__init__()
        self.differentiable = differentiable
        self.storage: Dict[Any, np.ndarray] = {}

    def array(self, key: Any, shape: Tuple[int, ...], dtype: Any = np.float64) -> np.ndarray:
        """A ``shape`` view of ``key``'s storage, contents undefined.

        While the shape and dtype stay the same, every call returns the
        same view object.
        """
        view = self.get(key)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        size = math.prod(shape)
        flat = self.storage.get(key)
        if flat is None or flat.dtype != dtype or flat.size < size:
            flat = self.storage[key] = np.empty(size, dtype)
        view = self[key] = flat[:size].reshape(shape)
        return view

    def nbytes(self) -> int:
        """Bytes of storage held."""
        return sum(flat.nbytes for flat in self.storage.values())


def _differentiable(state: Dict[str, Any]) -> bool:
    """Whether a backward kernel may read ``state`` (always, for eager)."""
    return getattr(state, "differentiable", True)


def _scratch(state: Dict[str, Any], key: str, shape: Tuple[int, ...],
             dtype: Any = np.float64) -> np.ndarray:
    """A work array with undefined contents, kept only by a workspace."""
    if isinstance(state, Workspace):
        return state.array(key, shape, dtype)
    return np.empty(shape, dtype)


def _zeroed(state: Dict[str, Any], key: str, shape: Tuple[int, ...]) -> np.ndarray:
    """A zero-filled work array, kept only by a workspace."""
    if isinstance(state, Workspace):
        arr = state.array(key, shape)
        arr.fill(0.0)
        return arr
    return np.zeros(shape)


def _saved(state: Dict[str, Any], key: str, shape: Tuple[int, ...],
           dtype: Any = np.float64) -> np.ndarray:
    """An array the backward kernel reads back, so always kept."""
    if isinstance(state, Workspace):
        return state.array(key, shape, dtype)
    arr = state[key] = np.empty(shape, dtype)
    return arr


def _bordered(state: Dict[str, Any], key: str, shape: Tuple[int, ...],
              dtype: Any) -> np.ndarray:
    """A kept array whose entries the caller never writes stay zero.

    It is zero-filled whenever it is handed out at a new shape: the
    entries one shape leaves alone another may have written.
    """
    arr = state.get(key)
    if arr is not None and arr.shape == shape and arr.dtype == dtype:
        return arr
    arr = _saved(state, key, shape, dtype)
    arr.fill(0.0)
    return arr


def _same_shape(ins: Arrays, meta: Dict[str, Any]) -> Tuple[int, ...]:
    return ins[0].shape


def _broadcast_shape(ins: Arrays, meta: Dict[str, Any]) -> Tuple[int, ...]:
    a, b = ins[0].shape, ins[1].shape
    if a[len(a) - len(b):] == b:  # b spans a's trailing axes (a bias, say)
        return a
    return np.broadcast_shapes(a, b)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away prepended broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along dimensions that were broadcast from size one.
    axes = tuple(
        axis for axis, size in enumerate(shape) if size == 1 and grad.shape[axis] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _reduced_shape(shape: Tuple[int, ...], axis: int) -> Tuple[int, ...]:
    reduced = list(shape)
    reduced[axis] = 1
    return tuple(reduced)


# ----------------------------------------------------------------------
# elementwise arithmetic


def _add_fwd(ins, out, meta, state):
    return np.add(ins[0], ins[1], out=out)


def _add_bwd(g, ins, out, meta, state, need):
    return [_unbroadcast(g, x.shape) if n else None for x, n in zip(ins, need)]


def _sub_fwd(ins, out, meta, state):
    return np.subtract(ins[0], ins[1], out=out)


def _sub_bwd(g, ins, out, meta, state, need):
    return (_unbroadcast(g, ins[0].shape), _unbroadcast(-g, ins[1].shape))


def _mul_fwd(ins, out, meta, state):
    return np.multiply(ins[0], ins[1], out=out)


def _mul_bwd(g, ins, out, meta, state, need):
    a, b = ins
    return (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))


def _div_fwd(ins, out, meta, state):
    return np.divide(ins[0], ins[1], out=out)


def _div_bwd(g, ins, out, meta, state, need):
    a, b = ins
    return (_unbroadcast(g / b, a.shape), _unbroadcast(-g * a / (b * b), b.shape))


def _neg_fwd(ins, out, meta, state):
    return np.negative(ins[0], out=out)


def _neg_bwd(g, ins, out, meta, state, need):
    return (np.negative(g, out=_scratch(state, "neg_g", g.shape)),)


def _pow_fwd(ins, out, meta, state):
    return np.power(ins[0], meta["exponent"], out=out)


def _pow_bwd(g, ins, out, meta, state, need):
    exponent = meta["exponent"]
    return (g * exponent * np.power(ins[0], exponent - 1),)


# ----------------------------------------------------------------------
# matrix and shape ops


def _matmul_fwd(ins, out, meta, state):
    return np.matmul(ins[0], ins[1], out=out)


def _matmul_bwd(g, ins, out, meta, state, need):
    a, b = ins
    if a.ndim == 2 and b.ndim == 2:
        return (
            np.matmul(g, b.T, out=_scratch(state, "mm_ga", a.shape)) if need[0] else None,
            np.matmul(a.T, g, out=_scratch(state, "mm_gb", b.shape)) if need[1] else None,
        )
    # Promote 1-D operands to 2-D, apply the 2-D rule, then squeeze the
    # promoted axis back out of the result.
    a2 = a[None, :] if a.ndim == 1 else a
    b2 = b[:, None] if b.ndim == 1 else b
    g2 = g[None, ...] if a.ndim == 1 else g
    if b.ndim == 1:
        g2 = g2[..., None]
    # A batched operand broadcasts against a 2-D one: sum the broadcast
    # dimensions back out of the other's gradient.
    grad_a = _unbroadcast(g2 @ b2.swapaxes(-1, -2), a2.shape).reshape(a.shape)
    grad_b = _unbroadcast(a2.swapaxes(-1, -2) @ g2, b2.shape).reshape(b.shape)
    return (grad_a, grad_b)


def _matmul_shape(ins, meta):
    a, b = ins[0].shape, ins[1].shape
    rows = a[-2:-1]                      # () for a 1-D left operand
    cols = b[-1:] if len(b) > 1 else ()  # () for a 1-D right operand
    stacks = np.broadcast_shapes(a[:-2], b[:-2]) if a[:-2] and b[:-2] else a[:-2] or b[:-2]
    return stacks + rows + cols


def _transpose_fwd(ins, out, meta, state):
    return ins[0].transpose(meta["order"])


def _transpose_bwd(g, ins, out, meta, state, need):
    return (g.transpose(np.argsort(meta["order"])),)


def _reshape_fwd(ins, out, meta, state):
    return ins[0].reshape(meta["shape"])


def _reshape_bwd(g, ins, out, meta, state, need):
    return (g.reshape(ins[0].shape),)


def _getitem_fwd(ins, out, meta, state):
    return ins[0][meta["key"]]


def _getitem_bwd(g, ins, out, meta, state, need):
    full = _zeroed(state, "getitem_g", ins[0].shape)
    np.add.at(full, meta["key"], g)  # an index may select an element twice
    return (full,)


def _concat_fwd(ins, out, meta, state):
    return np.concatenate(ins, axis=meta["axis"], out=out)


def _concat_shape(ins, meta):
    shape = list(ins[0].shape)
    shape[meta["axis"]] = sum(x.shape[meta["axis"]] for x in ins)
    return tuple(shape)


def _concat_bwd(g, ins, out, meta, state, need):
    axis = meta["axis"]
    index: List[Any] = [slice(None)] * g.ndim
    pieces = []
    start = 0
    for x in ins:
        stop = start + x.shape[axis]
        index[axis] = slice(start, stop)
        pieces.append(g[tuple(index)])
        start = stop
    return pieces


def _stack_fwd(ins, out, meta, state):
    return np.stack(ins, axis=meta["axis"], out=out)


def _stack_shape(ins, meta):
    shape = list(ins[0].shape)
    axis = meta["axis"]
    shape.insert(axis if axis >= 0 else len(shape) + 1 + axis, len(ins))
    return tuple(shape)


def _stack_bwd(g, ins, out, meta, state, need):
    rows = np.moveaxis(g, meta["axis"], 0)
    return [rows[i] for i in range(len(ins))]


def _gather_fwd(ins, out, meta, state):
    return np.take(ins[0], meta["indices"], axis=0, out=out)


def _gather_shape(ins, meta):
    return np.shape(meta["indices"]) + ins[0].shape[1:]


def _gather_bwd(g, ins, out, meta, state, need):
    full = _zeroed(state, "gather_g", ins[0].shape)
    np.add.at(full, meta["indices"], g)
    return (full,)


def _pad_rows_shape(ins, meta):
    return (meta["total_rows"],) + ins[0].shape[1:]


def _pad_rows_fwd(ins, out, meta, state):
    x = ins[0]
    if out is None:
        out = np.empty(_pad_rows_shape(ins, meta), x.dtype)
    out[x.shape[0]:] = 0.0
    out[: x.shape[0]] = x
    return out


def _pad_rows_bwd(g, ins, out, meta, state, need):
    return (g[: ins[0].shape[0]],)


# ----------------------------------------------------------------------
# reductions


def _sum_fwd(ins, out, meta, state):
    return np.add.reduce(ins[0], axis=meta["axis"], keepdims=meta["keepdims"], out=out)


def _reduce_shape(ins, meta):
    shape, axis = ins[0].shape, meta["axis"]
    if axis is None:
        axes = set(range(len(shape)))
    else:
        axes = {a % len(shape) for a in (axis if isinstance(axis, tuple) else (axis,))}
    if meta["keepdims"]:
        return tuple(1 if i in axes else size for i, size in enumerate(shape))
    return tuple(size for i, size in enumerate(shape) if i not in axes)


def _sum_bwd(g, ins, out, meta, state, need):
    shape = ins[0].shape
    axis = meta["axis"]
    if axis is not None and not meta["keepdims"]:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for a in sorted(ax % len(shape) for ax in axes):
            g = np.expand_dims(g, a)
    return (np.broadcast_to(g, shape),)


def _max_fwd(ins, out, meta, state):
    x = ins[0]
    axis = meta["axis"]
    if _differentiable(state):
        state["argmax"] = x.argmax(axis=axis)
    return np.amax(x, axis=axis, keepdims=meta["keepdims"], out=out)


def _max_bwd(g, ins, out, meta, state, need):
    axis = meta["axis"]
    full = _zeroed(state, "max_g", ins[0].shape)
    values = g if meta["keepdims"] else np.expand_dims(g, axis)
    np.put_along_axis(full, np.expand_dims(state["argmax"], axis), values, axis)
    return (full,)


# ----------------------------------------------------------------------
# elementwise nonlinearities (backward rules read the output only, so
# they also serve the fused kernels, which overwrite the pre-activation)


def _relu_fwd(ins, out, meta, state):
    return np.maximum(ins[0], 0.0, out=out)


def _relu_bwd(g, ins, out, meta, state, need):
    mask = np.greater(out, 0.0, out=_scratch(state, "relu_mask", out.shape, bool))
    return (np.multiply(g, mask, out=_scratch(state, "relu_g", g.shape)),)


def _tanh_fwd(ins, out, meta, state):
    return np.tanh(ins[0], out=out)


def _tanh_bwd(g, ins, out, meta, state, need):
    grad = np.multiply(out, out, out=_scratch(state, "tanh_g", g.shape))
    np.subtract(1.0, grad, out=grad)
    return (np.multiply(g, grad, out=grad),)


def _sigmoid_fwd(ins, out, meta, state):
    out = np.negative(ins[0], out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _sigmoid_bwd(g, ins, out, meta, state, need):
    grad = np.multiply(g, out, out=_scratch(state, "sigmoid_g", g.shape))
    return (np.multiply(grad, 1.0 - out, out=grad),)


def _exp_fwd(ins, out, meta, state):
    return np.exp(ins[0], out=out)


def _exp_bwd(g, ins, out, meta, state, need):
    return (np.multiply(g, out, out=_scratch(state, "exp_g", g.shape)),)


def _log_fwd(ins, out, meta, state):
    return np.log(ins[0], out=out)


def _log_bwd(g, ins, out, meta, state, need):
    return (np.divide(g, ins[0], out=_scratch(state, "log_g", g.shape)),)


# ----------------------------------------------------------------------
# convolutions: im2col, then one 2-D matmul per sample.  The columns are
# saved for the backward pass; ``cols`` is ``(n, c_in * kernel, l_out)``.


def _conv_fwd(cols: np.ndarray, ins: Arrays, out: np.ndarray) -> np.ndarray:
    """``out <- weight @ cols (+ bias)`` over flattened kernel windows."""
    w = ins[1].reshape(ins[1].shape[0], -1)
    flat = out.reshape(out.shape[0], out.shape[1], -1)
    for i in range(cols.shape[0]):
        np.matmul(w, cols[i], out=flat[i])
    if len(ins) == 3:
        np.add(flat, ins[2][None, :, None], out=flat)
    return out


def _conv_bwd(g: np.ndarray, ins: Arrays, state: Dict[str, Any], need: Sequence[bool]):
    """Weight and bias gradients, plus the gradient of the columns."""
    w = ins[1].reshape(ins[1].shape[0], -1)
    cols = state["cols"]
    g = g.reshape(g.shape[0], g.shape[1], -1)
    grads: List[Optional[np.ndarray]] = [None] * len(ins)
    grad_cols = None
    if need[0]:
        grad_cols = _scratch(state, "conv_gcols", cols.shape)
        for i in range(g.shape[0]):
            np.matmul(w.T, g[i], out=grad_cols[i])
    if need[1]:
        grad_w = _scratch(state, "conv_gw", w.shape)
        np.matmul(g[0], cols[0].T, out=grad_w)
        for i in range(1, g.shape[0]):
            grad_w += g[i] @ cols[i].T
        grads[1] = grad_w.reshape(ins[1].shape)
    if len(ins) == 3 and need[2]:
        grads[2] = np.sum(g, axis=(0, 2), out=_scratch(state, "conv_gb", ins[2].shape))
    return grads, grad_cols


def _conv1d_shape(ins, meta):
    (n, _, length), (channels, _, kernel) = ins[0].shape, ins[1].shape
    return (n, channels, (length - kernel) // meta["stride"] + 1)


def _conv1d_fwd(ins, out, meta, state):
    x, w = ins[0], ins[1]
    stride = meta["stride"]
    n, c_in, length = x.shape
    kernel = w.shape[2]
    l_out = (length - kernel) // stride + 1
    cols = _saved(state, "cols", (n, c_in * kernel, l_out), x.dtype)
    s0, s1, s2 = x.strides
    patches = as_strided(
        x, (n, c_in, kernel, l_out), (s0, s1, s2, s2 * stride), writeable=False
    )
    np.copyto(cols.reshape(patches.shape), patches)
    if out is None:
        out = np.empty((n, w.shape[0], l_out), x.dtype)
    return _conv_fwd(cols, ins, out)


def _conv1d_bwd(g, ins, out, meta, state, need):
    grads, grad_cols = _conv_bwd(g, ins, state, need)
    if grad_cols is not None:
        x = ins[0]
        stride, kernel, l_out = meta["stride"], ins[1].shape[2], g.shape[2]
        windows = grad_cols.reshape(x.shape[0], x.shape[1], kernel, l_out)
        grad_x = grads[0] = _zeroed(state, "conv_gx", x.shape)
        if stride == kernel:
            # Windows do not overlap: every position takes one tap, added
            # (not copied) so a -0.0 tap turns +0.0 as in the loop.
            covered = grad_x[:, :, : kernel * l_out].reshape(
                x.shape[0], x.shape[1], l_out, kernel
            )
            np.add(covered, windows.transpose(0, 1, 3, 2), out=covered)
        else:
            for k in range(kernel):
                grad_x[:, :, k : k + stride * l_out : stride] += windows[:, :, k, :]
    return grads


def _conv2d_geometry(x: np.ndarray, w: np.ndarray, meta: Dict[str, Any]):
    (sh, sw), (ph, pw) = meta["stride"], meta["padding"]
    kh, kw = w.shape[2], w.shape[3]
    h_out = (x.shape[2] + 2 * ph - kh) // sh + 1
    w_out = (x.shape[3] + 2 * pw - kw) // sw + 1
    return sh, sw, ph, pw, kh, kw, h_out, w_out


def _conv2d_shape(ins, meta):
    x, w = ins[0], ins[1]
    h_out, w_out = _conv2d_geometry(x, w, meta)[6:]
    return (x.shape[0], w.shape[0], h_out, w_out)


def _conv2d_fwd(ins, out, meta, state):
    x, w = ins[0], ins[1]
    sh, sw, ph, pw, kh, kw, h_out, w_out = _conv2d_geometry(x, w, meta)
    n, c_in, height, width = x.shape
    if ph or pw:
        padded = _bordered(state, "padded", (n, c_in, height + 2 * ph, width + 2 * pw), x.dtype)
        padded[:, :, ph : ph + height, pw : pw + width] = x
        x = padded
    cols = _saved(state, "cols", (n, c_in * kh * kw, h_out * w_out), x.dtype)
    source, patches = state.get("patches", (None, None))
    if source is not x:  # a workspace's padded input keeps its window view
        s0, s1, s2, s3 = x.strides
        patches = as_strided(
            x, (n, c_in, kh, kw, h_out, w_out), (s0, s1, s2, s3, s2 * sh, s3 * sw),
            writeable=False,
        )
        state["patches"] = (x, patches)
    np.copyto(cols.reshape(patches.shape), patches)
    if out is None:
        out = np.empty((n, w.shape[0], h_out, w_out), x.dtype)
    return _conv_fwd(cols, ins, out)


def _conv2d_bwd(g, ins, out, meta, state, need):
    grads, grad_cols = _conv_bwd(g, ins, state, need)
    if grad_cols is not None:
        x = ins[0]
        sh, sw, ph, pw, kh, kw, h_out, w_out = _conv2d_geometry(x, ins[1], meta)
        n, c_in, height, width = x.shape
        windows = grad_cols.reshape(n, c_in, kh, kw, h_out, w_out)
        grad_padded = _zeroed(state, "conv_gx", (n, c_in, height + 2 * ph, width + 2 * pw))
        for i in range(kh):
            for j in range(kw):
                grad_padded[
                    :, :, i : i + sh * h_out : sh, j : j + sw * w_out : sw
                ] += windows[:, :, i, j]
        grads[0] = grad_padded[:, :, ph : ph + height, pw : pw + width]
    return grads


# ----------------------------------------------------------------------
# pooling


def adaptive_window_bounds(input_size: int, output_size: int, index: int) -> Tuple[int, int]:
    """Window ``[start, end)`` for output cell ``index`` (PyTorch rule).

    ``start = floor(index * in / out)``, ``end = ceil((index + 1) * in / out)``.
    Windows tile the input, overlap when ``in`` is not a multiple of
    ``out``, and adapt their size to the input — exactly the behaviour the
    paper illustrates in Figure 6.
    """
    start = (index * input_size) // output_size
    end = math.ceil((index + 1) * input_size / output_size)
    return start, end


def _pool_grid(meta: Dict[str, Any], height: int, width: int) -> Tuple[int, int]:
    if "grid" in meta:
        return meta["grid"]
    (kh, kw), (sh, sw) = meta["kernel"], meta["stride"]
    return (height - kh) // sh + 1, (width - kw) // sw + 1


def _max_pool_shape(ins, meta):
    x = ins[0].shape
    return x[:2] + _pool_grid(meta, x[2], x[3])


def _pool_windows(meta: Dict[str, Any], state: Dict[str, Any], height: int, width: int):
    """``(grid, windows, corners)`` of a max pool, kept per input size.

    ``windows`` lists ``(oh, ow, h0, h1, w0, w1)`` row-major over the
    grid; ``corners`` holds each window's ``(h0, w0, width)`` as arrays
    shaped like the grid, for turning flat window argmaxes into input
    coordinates.
    """
    plan = state.get("windows")
    if plan is not None and plan[0] == (height, width):
        return plan[1]
    oh_size, ow_size = _pool_grid(meta, height, width)
    if "grid" in meta:
        rows = [adaptive_window_bounds(height, oh_size, oh) for oh in range(oh_size)]
        cols = [adaptive_window_bounds(width, ow_size, ow) for ow in range(ow_size)]
    else:
        (kh, kw), (sh, sw) = meta["kernel"], meta["stride"]
        rows = [(oh * sh, oh * sh + kh) for oh in range(oh_size)]
        cols = [(ow * sw, ow * sw + kw) for ow in range(ow_size)]
    windows = [
        (oh, ow, h0, h1, w0, w1)
        for oh, (h0, h1) in enumerate(rows)
        for ow, (w0, w1) in enumerate(cols)
    ]
    corners = np.array([(h0, w0, w1 - w0) for _, _, h0, _, w0, w1 in windows]).T
    plan = ((oh_size, ow_size), windows, corners.reshape(3, oh_size, ow_size))
    state["windows"] = ((height, width), plan)
    return plan


def _max_pool_fwd(ins, out, meta, state):
    """Shared by ``max_pool2d`` and ``adaptive_max_pool2d``.

    Saves each window's first (row-major) argmax for the backward.
    """
    x = ins[0]
    n, c = x.shape[0], x.shape[1]
    grid, windows, _ = _pool_windows(meta, state, x.shape[2], x.shape[3])
    if out is None:
        out = np.empty((n, c) + grid, x.dtype)
    best = _saved(state, "argmax", (n, c) + grid, np.int64) if _differentiable(state) else None
    for oh, ow, h0, h1, w0, w1 in windows:
        window = x[:, :, h0:h1, w0:w1]
        np.maximum.reduce(window, axis=(2, 3), out=out[:, :, oh, ow])
        if best is not None:
            window.reshape(n, c, -1).argmax(axis=2, out=best[:, :, oh, ow])
    return out


def _max_pool_bwd(g, ins, out, meta, state, need):
    x = ins[0]
    n, c = x.shape[0], x.shape[1]
    _, _, (h0, w0, win_w) = _pool_windows(meta, state, x.shape[2], x.shape[3])
    # The saved window argmaxes, turned into input coordinates.
    best = state["argmax"]
    rows = h0 + best // win_w
    cols = w0 + best % win_w
    grad_x = _zeroed(state, "pool_g", x.shape)
    # One scatter over every window: it adds in (n, c, oh, ow) order, so
    # overlapping adaptive windows accumulate in window order.
    np.add.at(
        grad_x,
        (np.arange(n)[:, None, None, None], np.arange(c)[None, :, None, None], rows, cols),
        g,
    )
    return (grad_x,)


# ----------------------------------------------------------------------
# batched pooling heads: one op over every graph of a batch.  ``meta``
# carries the batch's ``boundaries`` (graph ``b`` owns input rows
# ``boundaries[b]:boundaries[b + 1]``).  The tape rebinds them to each
# replayed batch's, so a node keeps its layout plan with the boundaries
# it was derived from and re-derives it when they change.


def _sort_order(x: np.ndarray, graph: np.ndarray) -> np.ndarray:
    """Every graph's rows in SortPooling order, graph after graph.

    Per graph this is ``np.lexsort`` over all columns, last column
    primary, descending (``repro.core.sort_pooling.sort_vertex_order``).
    One lexsort on (graph, last column) orders the whole batch; only the
    rows whose last column ties another row of their graph are re-sorted
    on the full key.  ``np.lexsort`` sorts NaN last and keeps NaNs in
    input order, so two NaN keys count as a tie.
    """
    primary = -x[:, -1]
    order = np.lexsort((primary, graph))
    key = primary[order]
    tie = graph[order[1:]] == graph[order[:-1]]
    tie &= (key[1:] == key[:-1]) | (np.isnan(key[1:]) & np.isnan(key[:-1]))
    if not tie.any():
        return order
    # The sorted positions inside a tied run, and a run id keeping runs
    # apart.  Within a run the rows are in input order, so the stable
    # full-key sort breaks complete ties by input order, as per graph.
    tied_to_previous = np.concatenate(([False], tie))
    positions = np.flatnonzero(tied_to_previous | np.concatenate((tie, [False])))
    run = np.cumsum(~tied_to_previous[positions])
    rows = order[positions]
    order[positions] = rows[np.lexsort((*(-x[rows, :-1].T), run))]
    return order


def _sort_pool_plan(meta: Dict[str, Any], state: Dict[str, Any]):
    """``(graph of each row, sorted positions kept, their output rows)``."""
    plan = state.get("sort_plan")
    if plan is not None and plan[0] == meta["boundaries"]:
        return plan[1]
    bounds = np.asarray(meta["boundaries"], dtype=np.int64)
    k, sizes = meta["k"], np.diff(bounds)
    counts = np.minimum(sizes, k)
    graph = np.repeat(np.arange(counts.size), counts)
    rank = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    layout = (np.repeat(np.arange(sizes.size), sizes), bounds[graph] + rank, graph * k + rank)
    state["sort_plan"] = (meta["boundaries"], layout)
    return layout


def _sort_pool_shape(ins, meta):
    return (len(meta["boundaries"]) - 1, meta["k"], ins[0].shape[1])


def _sort_pool_fwd(ins, out, meta, state):
    """``(N, C) -> (B, k, C)``: each graph's first ``k`` sorted rows, zero-padded."""
    x = ins[0]
    graph, kept, slots = _sort_pool_plan(meta, state)
    rows = state["rows"] = _sort_order(x, graph)[kept]
    if out is None:
        out = np.empty(_sort_pool_shape(ins, meta), x.dtype)
    flat = out.reshape(-1, x.shape[1])
    if slots.size < flat.shape[0]:
        flat.fill(0.0)
    flat[slots] = x[rows]
    return out


def _sort_pool_bwd(g, ins, out, meta, state, need):
    _, _, slots = _sort_pool_plan(meta, state)
    grad = _zeroed(state, "sort_pool_g", ins[0].shape)
    grad[state["rows"]] = g.reshape(-1, g.shape[-1])[slots]  # no row is kept twice
    return (grad,)


#: Conv map rows a lean ``conv2d_amp`` forward convolves at a time.
AMP_ROW_BLOCK = 128


class _AmpPlan(NamedTuple):
    """Where a batch's graphs and pooling windows sit in the conv map."""

    pad: Tuple[int, int]
    graph_rows: List[Tuple[int, int, int]]  # (first row, end row, image row)
    map_rows: int                            # rows of the conv map
    col_windows: List[Tuple[int, int]]
    window_rows: np.ndarray  # conv-map rows of every row window, concatenated
    window_starts: np.ndarray
    window_of: np.ndarray    # the row window each ``window_rows`` entry is in


def _amp_plan(x: np.ndarray, w: np.ndarray, meta: Dict[str, Any],
              state: Dict[str, Any]) -> _AmpPlan:
    """The batch image's layout, kept with the boundaries it is for.

    The graphs are stacked into one single-channel image with ``ph``
    zero rows above each graph and below the last, so no ``kh x kw``
    window of one graph reaches a row of another.  Conv map row ``r`` is
    centred on image row ``r + ph``; the rows between graphs are
    computed and never pooled.
    """
    bounds = meta["boundaries"]
    plan = state.get("amp_plan")
    if plan is not None and plan[0] == bounds:
        return plan[1]
    (grid_h, grid_w), width = meta["grid"], x.shape[1]
    ph, pw = w.shape[2] // 2, w.shape[3] // 2
    graphs = len(bounds) - 1
    # Graph b's row 0 is conv map row bounds[b] + ph * b.
    spans = [
        (bounds[b] + ph * b + h0, bounds[b] + ph * b + h1)
        for b in range(graphs)
        for h0, h1 in (
            adaptive_window_bounds(bounds[b + 1] - bounds[b], grid_h, oh) for oh in range(grid_h)
        )
    ]
    lengths = np.array([h1 - h0 for h0, h1 in spans])
    plan = _AmpPlan(
        pad=(ph, pw),
        graph_rows=[(bounds[b], bounds[b + 1], bounds[b] + ph * (b + 1)) for b in range(graphs)],
        map_rows=bounds[-1] + ph * (graphs - 1),
        col_windows=[adaptive_window_bounds(width, grid_w, ow) for ow in range(grid_w)],
        window_rows=np.concatenate([np.arange(h0, h1) for h0, h1 in spans]),
        window_starts=np.cumsum(lengths) - lengths,
        window_of=np.repeat(np.arange(len(spans)), lengths),
    )
    state["amp_plan"] = (bounds, plan)
    return plan


def _conv2d_amp_shape(ins, meta):
    return (len(meta["boundaries"]) - 1, ins[1].shape[0]) + meta["grid"]


def _conv2d_amp_fwd(ins, out, meta, state):
    """Conv2D (one input channel, same padding) then adaptive max pooling.

    ``(N, C)`` rows of ``B`` graphs -> ``(B, c, H, W)``, each graph pooled
    over its own rows.  The image is stored transposed and the conv map
    as ``(column, row, channel)``, so both pooling stages reduce over
    long runs of contiguous memory: first over each column window, for
    every row, then over each graph's row windows.  The conv runs the
    ``conv2d`` arithmetic (a matmul over im2col columns, here one per
    column window) except that the bias is added to the column maxima:
    rounding is monotone, so ``max(v) + b == max(v + b)`` exactly.  Every
    pooled value equals the per-graph ``conv2d`` -> ReLU ->
    ``adaptive_max_pool2d`` output bit for bit (``tests/nn/test_ops.py``).

    A backward reads one cell per pooled value: the window's first
    row-major argmax, found from the pooled value and saved as its
    ``(map row, column)``.
    """
    x, w, b = ins
    plan = _amp_plan(x, w, meta, state)
    (ph, pw), rows = plan.pad, plan.map_rows
    channels, kh, kw = w.shape[0], w.shape[2], w.shape[3]
    width = x.shape[1]
    image = _saved(state, "image", (width + 2 * pw, rows + 2 * ph), x.dtype)
    source, patches = state.get("patches", (None, None))
    if source is not plan:
        # Only graph rows are written, so zeroing the image once per
        # layout keeps its padding (which moves with the boundaries) zero.
        image.fill(0.0)
        s_col, s_row = image.strides
        patches = as_strided(
            image, (kh, kw, width, rows), (s_row, s_col, s_col, s_row), writeable=False
        )
        state["patches"] = (plan, patches)
    for start, end, at in plan.graph_rows:
        image[pw : pw + width, at : at + end - start] = x[start:end].T
    # One column window at a time, so its im2col columns and conv map
    # stay in cache from the copy to the last read.  Without a backward
    # to serve, the conv map is only reduced to its column maxima, so it
    # is built AMP_ROW_BLOCK map rows at a time: the scratch stays the
    # same size however many rows the batch has.
    windows, starts = plan.window_rows, plan.window_starts
    grid_w = len(plan.col_windows)
    widest = max(w1 - w0 for w0, w1 in plan.col_windows)
    differentiable = _differentiable(state)
    block = rows if differentiable else min(rows, AMP_ROW_BLOCK)
    cols_flat = _scratch(state, "cols", (kh * kw * widest * block,), x.dtype)
    conv_flat = _scratch(state, "conv", (widest * block * channels,), x.dtype)
    col_max = _scratch(state, "col_max", (rows, channels), x.dtype)
    gathered = _scratch(state, "gathered", (windows.size, channels), x.dtype)
    pooled = _scratch(state, "pooled", (grid_w, starts.size, channels), x.dtype)
    if differentiable:
        best_rows = _saved(state, "best_rows", pooled.shape, np.int64)
        best_cols = _saved(state, "best_cols", pooled.shape, np.int64)
    weight_t = w.reshape(channels, -1).T
    for ow, (w0, w1) in enumerate(plan.col_windows):
        for r0 in range(0, rows, block):
            r1 = min(r0 + block, rows)
            span = (w1 - w0) * (r1 - r0)
            window_cols = cols_flat[: kh * kw * span].reshape(kh * kw, span)
            np.copyto(window_cols.reshape(kh, kw, w1 - w0, r1 - r0), patches[:, :, w0:w1, r0:r1])
            conv = conv_flat[: span * channels].reshape(w1 - w0, r1 - r0, channels)
            np.matmul(window_cols.T, weight_t, out=conv.reshape(-1, channels))
            np.maximum.reduce(conv, axis=0, out=col_max[r0:r1])
        np.add(col_max, b, out=col_max)
        np.take(col_max, windows, axis=0, out=gathered)
        np.maximum.reduceat(gathered, starts, axis=0, out=pooled[ow])
        if differentiable:
            # The first row of each row window holding its max in this
            # column window (or, as argmax has it, a NaN)...
            hit = np.equal(gathered, pooled[ow][plan.window_of])
            hit |= np.isnan(gathered)
            first = np.where(hit, np.arange(windows.size)[:, None], windows.size)
            np.take(windows, np.minimum.reduceat(first, starts, axis=0), out=best_rows[ow])
            # ...then the first column of that row holding it.
            at = best_rows[ow] * channels + np.arange(channels)
            segment = np.add(np.take(conv.reshape(w1 - w0, -1), at, axis=1), b)
            np.add(segment.argmax(axis=0), w0, out=best_cols[ow])
    graphs, grid_h = len(plan.graph_rows), meta["grid"][0]
    if out is None:
        out = np.empty(_conv2d_amp_shape(ins, meta), x.dtype)
    np.copyto(out, pooled.reshape(grid_w, graphs, grid_h, channels).transpose(1, 3, 2, 0))
    return out


def _conv2d_amp_bwd(g, ins, out, meta, state, need):
    x, w, _ = ins
    plan = _amp_plan(x, w, meta, state)
    pw, width = plan.pad[1], x.shape[1]
    channels, taps = w.shape[0], w.shape[2] * w.shape[3]
    graphs, _, grid_h, grid_w = g.shape
    # Pooled gradients in the saved cells' (ow, graph window, channel) layout.
    g_cells = g.transpose(3, 0, 2, 1).reshape(grid_w, graphs * grid_h, channels)
    tap_row, tap_col = np.divmod(np.arange(taps), w.shape[3])
    # Image coordinates of every tap of every saved cell.
    image = state["image"]
    at = (state["best_cols"][..., None] + tap_col, state["best_rows"][..., None] + tap_row)
    grads: List[Optional[np.ndarray]] = [None, None, None]
    if need[0]:
        grad_image = _zeroed(state, "amp_g_image", image.shape)
        np.add.at(grad_image, at, g_cells[..., None] * w.reshape(channels, taps))
        grad_x = grads[0] = _scratch(state, "amp_gx", x.shape)
        for start, end, row in plan.graph_rows:
            grad_x[start:end] = grad_image[pw : pw + width, row : row + end - start].T
    if need[1]:
        grad_w = (g_cells[..., None] * image[at]).sum(axis=(0, 1))
        grads[1] = grad_w.reshape(w.shape)
    if need[2]:
        grads[2] = g_cells.sum(axis=(0, 1))
    return grads


# ----------------------------------------------------------------------
# sparse propagation


def _spmm(matrix: Any, src: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """``matrix @ src`` for a scipy CSR ``matrix``, written into ``out``.

    ``csr_matvecs`` accumulates ``dst += A @ src`` into a zeroed ``dst``
    — exactly what scipy's own ``@`` does into its freshly zeroed result,
    so both spellings run identical arithmetic.
    """
    if out is None:
        out = np.zeros((matrix.shape[0], src.shape[1]), np.result_type(matrix.dtype, src.dtype))
    else:
        out.fill(0.0)
    if (
        _HAVE_CSR_MATVECS
        and getattr(matrix, "format", None) == "csr"
        and src.flags.c_contiguous
        and out.flags.c_contiguous
        and matrix.data.dtype == src.dtype == out.dtype
    ):
        n_rows, n_cols = matrix.shape
        _sparse_kernels.csr_matvecs(
            n_rows,
            n_cols,
            src.shape[1],
            matrix.indptr,
            matrix.indices,
            matrix.data,
            src.ravel(),
            out.ravel(),
        )
    else:
        out[...] = matrix @ src
    return out


def _spmm_shape(ins, meta):
    return (meta["matrix"].shape[0], ins[0].shape[1])


def _spmm_fwd(ins, out, meta, state):
    return _spmm(meta["matrix"], ins[0], out)


def _spmm_bwd(g, ins, out, meta, state, need):
    matrix_t = meta.get("matrix_t")
    if matrix_t is None:  # transposed lazily, once per operand
        matrix_t = meta["matrix_t"] = meta["matrix"].T.tocsr()
    return (_spmm(matrix_t, g, _scratch(state, "spmm_g", ins[0].shape)),)


# ----------------------------------------------------------------------
# softmax family and regularization


def _log_softmax_fwd(ins, out, meta, state):
    x = ins[0]
    axis = meta["axis"]
    reduced = _reduced_shape(x.shape, axis)
    peak = np.maximum.reduce(
        x, axis=axis, keepdims=True, out=_scratch(state, "lsm_max", reduced, x.dtype)
    )
    shifted = np.subtract(x, peak, out=out)
    exps = np.exp(shifted, out=_scratch(state, "lsm_exp", x.shape, x.dtype))
    log_sum = np.add.reduce(
        exps, axis=axis, keepdims=True, out=_scratch(state, "lsm_sum", reduced, x.dtype)
    )
    np.log(log_sum, out=log_sum)
    return np.subtract(shifted, log_sum, out=shifted)


def _log_softmax_bwd(g, ins, out, meta, state, need):
    axis = meta["axis"]
    softmax = np.exp(out, out=_scratch(state, "lsm_exp", out.shape))
    g_sum = np.add.reduce(
        g, axis=axis, keepdims=True, out=_scratch(state, "lsm_gsum", _reduced_shape(g.shape, axis))
    )
    np.multiply(softmax, g_sum, out=softmax)
    return (np.subtract(g, softmax, out=_scratch(state, "lsm_g", g.shape)),)


def _dropout_fwd(ins, out, meta, state):
    x = ins[0]
    p = meta["p"]
    rand = meta["rng"].random(out=_scratch(state, "drop_rand", x.shape))
    keep = np.greater_equal(rand, p, out=_scratch(state, "drop_keep", x.shape, bool))
    mask = np.divide(keep, 1.0 - p, out=_saved(state, "mask", x.shape))
    return np.multiply(x, mask, out=out)


def _dropout_bwd(g, ins, out, meta, state, need):
    return (np.multiply(g, state["mask"], out=_scratch(state, "drop_g", g.shape)),)


# ----------------------------------------------------------------------
# fused kernels (emitted only by the tape's fusion pass): compositions of
# the entries above, run in place on one output buffer


def _spmm_act_fwd(ins, out, meta, state):
    out = _spmm_fwd(ins, out, meta, state)
    return OPS[meta["activation"]].forward((out,), out, meta, state)


def _spmm_act_bwd(g, ins, out, meta, state, need):
    (grad,) = OPS[meta["activation"]].backward(g, (out,), out, meta, state, (True,))
    return _spmm_bwd(grad, ins, out, meta, state, need)


def _linear_relu_fwd(ins, out, meta, state):
    x, w, b = ins
    out = _matmul_fwd((x, w), out, meta, state)
    out = _add_fwd((out, b), out, meta, state)
    return _relu_fwd((out,), out, meta, state)


def _linear_relu_shape(ins, meta):
    return (ins[0].shape[0], ins[1].shape[1])


def _linear_relu_bwd(g, ins, out, meta, state, need):
    x, w, b = ins
    (grad,) = _relu_bwd(g, (out,), out, meta, state, (True,))
    grad_b = _add_bwd(grad, (out, b), out, meta, state, (False, need[2]))[1]
    grad_x, grad_w = _matmul_bwd(grad, (x, w), out, meta, state, need[:2])
    return (grad_x, grad_w, grad_b)


OPS: Dict[str, Op] = {
    "add": Op(_add_fwd, _add_bwd, _broadcast_shape),
    "sub": Op(_sub_fwd, _sub_bwd, _broadcast_shape),
    "mul": Op(_mul_fwd, _mul_bwd, _broadcast_shape),
    "div": Op(_div_fwd, _div_bwd, _broadcast_shape),
    "neg": Op(_neg_fwd, _neg_bwd, _same_shape),
    "pow": Op(_pow_fwd, _pow_bwd, _same_shape),
    "matmul": Op(_matmul_fwd, _matmul_bwd, _matmul_shape),
    "transpose": Op(_transpose_fwd, _transpose_bwd, None),
    "reshape": Op(_reshape_fwd, _reshape_bwd, None),
    "getitem": Op(_getitem_fwd, _getitem_bwd, None),
    "concat": Op(_concat_fwd, _concat_bwd, _concat_shape),
    "stack": Op(_stack_fwd, _stack_bwd, _stack_shape),
    "gather": Op(_gather_fwd, _gather_bwd, _gather_shape),
    "pad_rows": Op(_pad_rows_fwd, _pad_rows_bwd, _pad_rows_shape),
    "sum": Op(_sum_fwd, _sum_bwd, _reduce_shape),
    "max": Op(_max_fwd, _max_bwd, _reduce_shape),
    "relu": Op(_relu_fwd, _relu_bwd, _same_shape),
    "tanh": Op(_tanh_fwd, _tanh_bwd, _same_shape),
    "sigmoid": Op(_sigmoid_fwd, _sigmoid_bwd, _same_shape),
    "exp": Op(_exp_fwd, _exp_bwd, _same_shape),
    "log": Op(_log_fwd, _log_bwd, _same_shape),
    "conv1d": Op(_conv1d_fwd, _conv1d_bwd, _conv1d_shape),
    "conv2d": Op(_conv2d_fwd, _conv2d_bwd, _conv2d_shape),
    "max_pool2d": Op(_max_pool_fwd, _max_pool_bwd, _max_pool_shape),
    "adaptive_max_pool2d": Op(_max_pool_fwd, _max_pool_bwd, _max_pool_shape),
    "sort_pool": Op(_sort_pool_fwd, _sort_pool_bwd, _sort_pool_shape),
    "conv2d_amp": Op(_conv2d_amp_fwd, _conv2d_amp_bwd, _conv2d_amp_shape),
    "spmm": Op(_spmm_fwd, _spmm_bwd, _spmm_shape),
    "log_softmax": Op(_log_softmax_fwd, _log_softmax_bwd, _same_shape),
    "dropout": Op(_dropout_fwd, _dropout_bwd, _same_shape),
    "spmm_act": Op(_spmm_act_fwd, _spmm_act_bwd, _spmm_shape),
    "linear_relu": Op(_linear_relu_fwd, _linear_relu_bwd, _linear_relu_shape),
}
