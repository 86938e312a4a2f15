"""Reverse-mode automatic differentiation over numpy arrays.

This module is the numerical heart of the reproduction.  The paper trains
its models with PyTorch; since no deep-learning framework is available in
this environment, we implement the minimal-but-complete equivalent: a
:class:`Tensor` that records the computation graph on the fly and a
:meth:`Tensor.backward` that walks it in reverse topological order,
accumulating gradients.

Design notes
------------
* Every differentiable operation is one entry of the op table in
  :mod:`repro.nn.ops`.  :func:`apply_op` runs the entry's forward kernel
  into a fresh array and stamps the output with the entry's name
  (``_op``), its static parameters (``_op_meta``) and a fresh per-node
  ``state`` dict that the backward kernel reads back (argmaxes, masks,
  im2col columns).  :meth:`Tensor.backward` calls the same entry's
  backward kernel, and the compiled tape (:mod:`repro.nn.tape`) replays
  the same kernels into arena buffers, so both engines share one
  implementation of every op.  Ops built purely by composing other ops
  (``mean``, ``max_pool1d``) need no entry of their own.
* Broadcasting follows numpy semantics; backward kernels sum gradients
  back down to each parent's shape.
* Gradients are plain ``numpy.ndarray``s stored on leaf (and, when
  requested, interior) tensors, mirroring PyTorch's ``.grad``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import GradientError, ShapeError
from repro.nn.ops import OPS

ArrayLike = Union["Tensor", np.ndarray, float, int, list]


class Tensor:
    """A numpy array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = (
        "data",
        "requires_grad",
        "grad",
        "_parents",
        "_grad_fn",
        "_op",
        "_op_meta",
        "_state",
        "_order_cache",
        "name",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._grad_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None
        self._op: Optional[str] = None
        self._op_meta: Optional[Dict[str, Any]] = None
        self._state: Optional[Dict[str, Any]] = None
        self._order_cache: Optional[List["Tensor"]] = None
        self.name = name

    # ------------------------------------------------------------------
    # graph construction

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        grad_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None,
        op: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
        state: Optional[Dict[str, Any]] = None,
    ) -> "Tensor":
        """Wrap ``data`` as a node; records the graph if a parent needs grad.

        Table ops pass their entry name ``op``; a bare ``grad_fn`` closure
        records a custom op that eager autograd runs but the compiled
        tape refuses.
        """
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._grad_fn = grad_fn
            out._op = op
            out._op_meta = meta
            out._state = state
        return out

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Zero the gradient in place.

        The gradient array is kept (and filled with zeros) rather than
        dropped so that buffers referenced by compiled tape replays —
        and by optimizers holding views — survive across steps without
        reallocation.  A tensor that never received a gradient keeps
        ``grad is None``.
        """
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # backward

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise GradientError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise GradientError(
                f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
            )

        # The recorded graph is immutable once built, so repeated
        # backward() calls over the same output (gradient accumulation)
        # reuse the first walk instead of re-deriving it.
        if self._order_cache is None:
            self._order_cache = self._topological_order()
        order = self._order_cache
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.grad is None:
                node.grad = node_grad.copy()
            else:
                # In-place accumulation: `.grad` buffers persist across
                # steps (see zero_grad) instead of being reallocated.
                node.grad += node_grad
            parents = node._parents
            if node._op is not None:
                parent_grads = OPS[node._op].backward(
                    node_grad,
                    [p.data for p in parents],
                    node.data,
                    node._op_meta,
                    node._state,
                    [p.requires_grad for p in parents],
                )
            elif node._grad_fn is not None:
                parent_grads = node._grad_fn(node_grad)
            else:
                continue
            for parent, parent_grad in zip(parents, parent_grads):
                if parent_grad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + parent_grad
                else:
                    grads[key] = parent_grad

    def _topological_order(self) -> List["Tensor"]:
        order: List[Tensor] = []
        visited: set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # elementwise arithmetic

    @staticmethod
    def _coerce(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply_op("add", (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_op("neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return apply_op("sub", (self, self._coerce(other)))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply_op("mul", (self, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply_op("div", (self, self._coerce(other)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ShapeError("only scalar exponents are supported")
        return apply_op("pow", (self,), {"exponent": exponent})

    # ------------------------------------------------------------------
    # matrix ops

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 2-D operands (and 1-D vectors)."""
        return apply_op("matmul", (self, self._coerce(other)))

    __matmul__ = matmul

    def transpose(self, *axes: int) -> "Tensor":
        order = axes if axes else tuple(reversed(range(self.ndim)))
        return apply_op("transpose", (self,), {"order": tuple(order)})

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_op("reshape", (self,), {"shape": tuple(shape)})

    def __getitem__(self, key) -> "Tensor":
        return apply_op("getitem", (self,), {"key": key})

    # ------------------------------------------------------------------
    # reductions

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return apply_op("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.data.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        """Maximum along one axis; gradient routes to the arg-max entries."""
        return apply_op("max", (self,), {"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # elementwise nonlinearities

    def relu(self) -> "Tensor":
        return apply_op("relu", (self,))

    def tanh(self) -> "Tensor":
        return apply_op("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        return apply_op("sigmoid", (self,))

    def exp(self) -> "Tensor":
        return apply_op("exp", (self,))

    def log(self) -> "Tensor":
        return apply_op("log", (self,))


def apply_op(
    kind: str, parents: Tuple[Tensor, ...], meta: Optional[Dict[str, Any]] = None
) -> Tensor:
    """Run op-table entry ``kind`` eagerly over ``parents`` and record it."""
    state: Dict[str, Any] = {}
    data = OPS[kind].forward([p.data for p in parents], None, meta, state)
    return Tensor._make(data, parents, op=kind, meta=meta, state=state)


# ----------------------------------------------------------------------
# free functions building multi-parent nodes


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    parents = tuple(Tensor._coerce(t) for t in tensors)
    if not parents:
        raise ShapeError("concatenate() needs at least one tensor")
    return apply_op("concat", parents, {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shaped tensors along a new axis."""
    parents = tuple(Tensor._coerce(t) for t in tensors)
    if not parents:
        raise ShapeError("stack() needs at least one tensor")
    return apply_op("stack", parents, {"axis": axis})


def gather_rows(tensor: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of a 2-D tensor; gradient scatter-adds back.

    A selection computed from forward values (a SortPooling order, say)
    is treated as constant during backprop.
    """
    tensor = Tensor._coerce(tensor)
    if tensor.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {tensor.shape}")
    indices = np.asarray(indices, dtype=np.int64)
    return apply_op("gather", (tensor,), {"indices": indices})


def pad_rows(tensor: Tensor, total_rows: int) -> Tensor:
    """Zero-pad a 2-D tensor along axis 0 up to ``total_rows`` rows."""
    tensor = Tensor._coerce(tensor)
    if tensor.ndim != 2:
        raise ShapeError(f"pad_rows expects a 2-D tensor, got {tensor.shape}")
    n = tensor.shape[0]
    if total_rows < n:
        raise ShapeError(f"cannot pad {n} rows down to {total_rows}")
    if total_rows == n:
        return tensor
    return apply_op("pad_rows", (tensor,), {"total_rows": total_rows})
