"""Neural-network operations built on the autograd tensor.

Implements the ops DGCNN needs beyond basic arithmetic: 1-D and 2-D
convolutions (im2col formulation), max pooling, *adaptive* max pooling
(Section III-C of the paper), numerically stable (log-)softmax, and
dropout.  This module checks shapes and arguments; the arithmetic is the
op table's (:mod:`repro.nn.ops`).  Every op here has a finite-difference
gradient test in ``tests/nn/test_gradcheck.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.ops import adaptive_window_bounds
from repro.nn.tensor import Tensor, apply_op

__all__ = [
    "adaptive_max_pool2d",
    "adaptive_window_bounds",
    "conv1d",
    "conv2d",
    "dropout",
    "log_softmax",
    "max_pool1d",
    "max_pool2d",
    "softmax",
    "sparse_matmul",
]

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (value, value)


# ----------------------------------------------------------------------
# convolutions


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
) -> Tensor:
    """1-D convolution.

    ``x``: ``(N, C_in, L)``; ``weight``: ``(C_out, C_in, K)``;
    ``bias``: ``(C_out,)``.  Output: ``(N, C_out, L_out)`` with
    ``L_out = (L - K) // stride + 1`` (no padding — DGCNN's remaining
    Conv1D layers never pad).
    """
    if x.ndim != 3:
        raise ShapeError(f"conv1d input must be (N, C, L), got {x.shape}")
    if weight.ndim != 3:
        raise ShapeError(f"conv1d weight must be (F, C, K), got {weight.shape}")
    _, c_in, length = x.shape
    _, c_in_w, kernel = weight.shape
    if c_in != c_in_w:
        raise ShapeError(
            f"conv1d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )
    if kernel > length:
        raise ShapeError(f"conv1d kernel {kernel} larger than input length {length}")
    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op("conv1d", parents, {"stride": stride})


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
) -> Tensor:
    """2-D convolution via im2col.

    ``x``: ``(N, C_in, H, W)``; ``weight``: ``(C_out, C_in, KH, KW)``;
    output ``(N, C_out, H_out, W_out)``.
    """
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be (N, C, H, W), got {x.shape}")
    if weight.ndim != 4:
        raise ShapeError(f"conv2d weight must be (F, C, KH, KW), got {weight.shape}")
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    _, c_in, height, width = x.shape
    _, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c_in}, weight expects {c_in_w}"
        )
    padded_h, padded_w = height + 2 * ph, width + 2 * pw
    if kh > padded_h or kw > padded_w:
        raise ShapeError(
            f"conv2d kernel ({kh}, {kw}) larger than padded input "
            f"({padded_h}, {padded_w})"
        )
    parents = (x, weight) if bias is None else (x, weight, bias)
    return apply_op("conv2d", parents, {"stride": (sh, sw), "padding": (ph, pw)})


# ----------------------------------------------------------------------
# pooling


def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Plain max pooling over ``(N, C, H, W)``."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    height, width = x.shape[2], x.shape[3]
    h_out = (height - kh) // sh + 1
    w_out = (width - kw) // sw + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(
            f"max_pool2d kernel ({kh}, {kw}) too large for input "
            f"({height}, {width})"
        )
    return apply_op("max_pool2d", (x,), {"kernel": (kh, kw), "stride": (sh, sw)})


def max_pool1d(x: Tensor, kernel_size: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over ``(N, C, L)``, implemented via :func:`max_pool2d`."""
    if x.ndim != 3:
        raise ShapeError(f"max_pool1d input must be (N, C, L), got {x.shape}")
    n, c, length = x.shape
    stride_value = stride if stride is not None else kernel_size
    as_2d = x.reshape(n, c, 1, length)
    pooled = max_pool2d(as_2d, (1, kernel_size), (1, stride_value))
    return pooled.reshape(n, c, pooled.shape[-1])


def adaptive_max_pool2d(x: Tensor, output_size: IntPair) -> Tensor:
    """Adaptive max pooling: any ``(N, C, H, W)`` -> ``(N, C, OH, OW)``.

    The key layer of the paper's second DGCNN extension (Section III-C):
    it unifies graph-convolution outputs of *varying* vertex counts into
    a fixed-size grid by choosing window sizes per input.
    """
    oh_size, ow_size = _pair(output_size)
    if x.ndim != 4:
        raise ShapeError(f"adaptive_max_pool2d input must be 4-D, got {x.shape}")
    if x.shape[2] < 1 or x.shape[3] < 1:
        raise ShapeError("adaptive_max_pool2d input has an empty spatial dim")
    return apply_op("adaptive_max_pool2d", (x,), {"grid": (oh_size, ow_size)})


# ----------------------------------------------------------------------
# sparse support


def sparse_matmul(matrix, x: Tensor, matrix_t=None) -> Tensor:
    """Multiply a *constant* scipy.sparse matrix with a dense tensor.

    Used by the block-diagonal batched graph convolution: the propagation
    operator ``D̂^-1 Â`` carries no gradient, so only the dense operand's
    gradient (``Sᵀ · grad``) is needed.  Pass ``matrix_t`` (the CSR
    transpose of ``matrix``) when it is already available — e.g. cached
    on a :class:`~repro.core.batched.GraphBatch` — so the backward pass
    does not re-transpose per layer; otherwise the transpose is computed
    lazily on first backward.
    """
    if x.ndim != 2:
        raise ShapeError(f"sparse_matmul expects a 2-D tensor, got {x.shape}")
    if matrix.shape[1] != x.shape[0]:
        raise ShapeError(
            f"sparse matrix {matrix.shape} incompatible with tensor {x.shape}"
        )
    return apply_op("spmm", (x,), {"matrix": matrix, "matrix_t": matrix_t})


# ----------------------------------------------------------------------
# softmax family


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    return apply_op("log_softmax", (x,), {"axis": axis})


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    return log_softmax(x, axis=axis).exp()


# ----------------------------------------------------------------------
# regularization


def dropout(
    x: Tensor,
    p: float,
    training: bool,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: identity at eval time, scaled mask in training."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    generator = rng if rng is not None else np.random.default_rng()
    return apply_op("dropout", (x,), {"p": p, "rng": generator})
