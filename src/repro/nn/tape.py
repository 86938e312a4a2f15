"""Capture-and-replay ("tape") execution for the autograd hot path.

The eager :class:`~repro.nn.tensor.Tensor` engine rebuilds the whole
computation graph — one node and one freshly allocated output array per
op — on *every* forward pass, even though training batches and serve
batches repeat the exact same op topology thousands of times.
This module compiles one recorded eager pass into a flat op list
("tape") and replays it over an arena of reusable buffers: no Tensor
objects, no graph walk, and no output, gradient or scratch array
allocated per op on the replay path.

One op table, two engines
-------------------------
Every op kind is one entry of :data:`repro.nn.ops.OPS`: a forward
kernel that writes into an optional ``out=`` array, a backward kernel
that returns the input gradients, and the forward result's shape rule.
Eager execution calls those kernels with fresh arrays; the tape calls
the *same* kernels with arena views and one persistent
:class:`~repro.nn.ops.Workspace` per record (the per-node ``state``
that carries argmaxes, the sort order, dropout masks, per-batch plans
and scratch arrays between a record's forward and backward).  This
module therefore holds no op's arithmetic: it classifies inputs, binds
buffers, orders the calls and sums gradient contributions.

How a tape is built
-------------------
Every eager op stamps its output with its table entry (``Tensor._op``)
and static parameters (``Tensor._op_meta``).  :func:`compile_output`
walks the recorded graph of one eager forward in topological order and
emits a :class:`TapeRecord` per compute node.  Record inputs are
classified as:

``("buf", i)``
    An intermediate — arena slot ``i``, rewritten in place on every
    replay.
``("leaf", tensor)``
    A trainable parameter.  Read through ``tensor.data`` *fresh on every
    replay*, so optimizer steps and ``load_state_dict`` (which rebind
    ``.data``) are picked up without invalidating the tape.
``("sym", name)``
    A batch-varying constant (``attributes``), identity-matched against
    the capture batch and resolved from the *replay* batch.
``("const", array)``
    Anything else — snapshotted at capture time.

Operands in an op's metadata that are the capture batch's
``propagation`` operator or its transpose, and pooling heads'
``boundaries`` equal to the capture batch's, are likewise rebound to
the replay batch's.  A ``reshape`` that keeps its input's leading
(vertex or graph) axis is recorded with that axis left free.  So one
program serves batches of any shape: :class:`CompiledModel` keys it by
:func:`program_key` (train/eval mode, dtype, attribute width and
propagation normalization), never by the batch's shape.
Data-dependent values (SortPooling's permutation, max-pool argmaxes,
dropout masks) are recomputed per replay by the forward kernels, and
plans derived from the boundaries are re-derived when they change.

A fusion pass collapses ``SpMM → activation`` in the graph-conv stack
and ``matmul → bias add → ReLU`` in the MLP head into single records
running the table's fused ``spmm_act`` / ``linear_relu`` entries, which
compose the unfused kernels in place.  Fusion only fires when the
eliminated intermediates have exactly one consumer, so gradient
accumulation order is unchanged.

The arena
---------
Each replay hands every kernel an ``out`` view sized by the op's shape
rule.  The views, the backward's gradient accumulators and every
record's workspace arrays are views of grow-only storage: a slot is
reallocated only when a batch needs more elements than any before it,
so a program holds one arena at the high-water mark of the batches it
has seen.  Views are re-sized only when the batch's vertex or graph
count changes; a batch of the previous shape replays straight into the
views it left.

Equality contract
-----------------
float64 replay is value-exact with the eager engine by construction,
whatever the batch's shape: both run the same kernels in the same
order (verified with ``np.array_equal`` in ``tests/nn/test_tape.py``
and, kind by kind, in ``tests/nn/test_ops.py``).  That holds for lean
:meth:`CompiledModel.infer` replays too, which skip only what no
forward output depends on.  float32 execution is a deliberately
different numeric mode: inference-only, opt-in, documented tolerance.

Lean inference
--------------
With no backward to serve, an ``infer`` replay saves no argmaxes, in
float64 as in float32 (a float32 tape never keeps them); so a
``backward()`` after ``infer`` raises
:class:`~repro.exceptions.GradientError`.  An eval-mode ``forward``
keeps them again, and its backward stays bit-exact.  A lean replay
also builds ``conv2d_amp``'s conv map a block of rows at a time, so an
inference arena holds no whole-batch conv map as scratch.  Predictions
replay one such float64 tape per model, :func:`inference_tape`: a
cache keyed weakly by the model, whose tape holds its model weakly.

Limits: op metadata other than the batch operands above (a
``getitem`` key, ``gather`` indices, ``pad_rows``' row count) is frozen
at capture, so a model that derives such metadata from the batch's
shape would replay wrongly for other shapes; the DGCNN variants carry
the batch's shape only through ``boundaries`` and the leading axis.

Thread safety: :class:`CompiledModel` serializes capture and replay
under one lock — arena buffers are shared mutable state — and
:func:`inference_tape` creates each model's tape under another.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse

from repro.exceptions import CompilationError, GradientError
from repro.nn.ops import OPS, Workspace
from repro.nn.tensor import Tensor


def _batch_symbol(batch: Any, name: str) -> Any:
    if name == "propagation_t":
        return batch.propagation_transpose()
    if name == "boundaries":
        return tuple(int(b) for b in batch.boundaries)
    return getattr(batch, name)


_TRANSPOSED = {"propagation": "propagation_t", "propagation_t": "propagation"}


class _Symbol:
    """Placeholder for a batch operand inside a record's metadata."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name


class TapeRecord:
    """One compiled op: kind, input refs, output arena slot, metadata."""

    __slots__ = ("kind", "inputs", "out", "meta", "state")

    def __init__(
        self,
        kind: str,
        inputs: Tuple[Tuple[str, Any], ...],
        out: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.kind = kind
        self.inputs = inputs
        self.out = out
        self.meta = meta if meta is not None else {}
        # The kernels' per-node state: data-dependent values shared by
        # this record's forward and backward, plus reusable scratch.
        self.state = Workspace()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TapeRecord({self.kind!r}, out={self.out})"


def program_key(batch: Any, training: bool, dtype: Any) -> Tuple[Any, ...]:
    """What fixes a recorded program: everything except the batch's shape.

    Batches differing only in their graphs' sizes or count replay the
    same op list; their shapes size the arena views per replay.
    """
    boundaries = getattr(batch, "boundaries", None)
    attributes = getattr(batch, "attributes", None)
    if boundaries is None or attributes is None:
        raise CompilationError(
            "compiled execution needs a GraphBatch-like input with "
            "`.boundaries` and `.attributes`"
        )
    return (
        attributes.shape[1],
        bool(getattr(batch, "normalized", True)),
        bool(training),
        np.dtype(dtype),
    )


# ----------------------------------------------------------------------
# graph -> records


def _record_graph(
    output: Tensor, batch: Any
) -> Tuple[List[TapeRecord], List[np.ndarray], int]:
    """Walk one recorded eager graph into a flat record list.

    The program order is ``reversed(output._topological_order())`` — the
    exact reverse of the order eager ``backward()`` processes nodes in,
    which is what makes replayed gradient accumulation order-identical
    to the eager engine.
    """
    if not output._parents:
        raise CompilationError(
            "model output records no computation graph; compiled "
            "execution needs at least one differentiable op"
        )
    compute = [n for n in reversed(output._topological_order()) if n._parents]
    index = {id(n): i for i, n in enumerate(compute)}
    symbols = [("attributes", getattr(batch, "attributes", None))]
    if getattr(batch, "propagation", None) is not None:
        symbols += [
            ("propagation", batch.propagation),
            ("propagation_t", batch.propagation_transpose()),
        ]
    bounds = tuple(int(b) for b in batch.boundaries)

    def symbol(value: Any) -> Optional[str]:
        if value is None:
            return None
        return next((name for name, sym in symbols if value is sym), None)

    def ref(parent: Tensor) -> Tuple[str, Any]:
        if parent._parents:
            return ("buf", index[id(parent)])
        if parent.requires_grad:
            return ("leaf", parent)
        name = symbol(parent.data)
        return ("const", parent.data) if name is None else ("sym", name)

    records: List[TapeRecord] = []
    for node in compute:
        if node._op is None:
            raise CompilationError(
                "op recorded without a table entry (custom Tensor._make "
                "caller?); cannot compile this graph"
            )
        meta = dict(node._op_meta) if node._op_meta else {}
        for key, value in meta.items():
            name = symbol(value)
            if name is None and key == "boundaries" and tuple(value) == bounds:
                name = key
            if name is not None:
                meta[key] = _Symbol(name)
        if node._op == "reshape":
            source, shape = node._parents[0].data.shape, node.data.shape
            if source and shape and source[0] == shape[0] and math.prod(shape[1:]) > 0:
                meta["shape"] = (-1,) + shape[1:]  # the batch's leading axis
        matrix = meta.get("matrix")
        if isinstance(matrix, _Symbol) and matrix.name in _TRANSPOSED:
            # Rebind the transpose with the operator, even where the
            # eager call left the backward to compute (and cache) it.
            meta["matrix_t"] = _Symbol(_TRANSPOSED[matrix.name])
        records.append(
            TapeRecord(node._op, tuple(ref(p) for p in node._parents), index[id(node)], meta)
        )
    return records, [n.data for n in compute], index[id(output)]


# ----------------------------------------------------------------------
# fusion


def _ref_array(
    ref: Tuple[str, Any], buffers: List[np.ndarray]
) -> Optional[np.ndarray]:
    tag, val = ref
    if tag == "buf":
        return buffers[val]
    if tag == "leaf":
        return val.data
    if tag == "const":
        return val
    return None


def _fuse_program(
    records: List[TapeRecord], buffers: List[np.ndarray], out_index: int
) -> Tuple[List[TapeRecord], int]:
    """Collapse SpMM→activation and matmul→add(bias)→ReLU chains.

    Only fires when every eliminated intermediate has exactly one
    consumer (and is not the program output), so no other record — and
    no gradient contribution — ever touches the removed buffers.
    """
    producer = {r.out: i for i, r in enumerate(records)}
    consumers = {out_index: 1}  # the program output counts its caller
    for r in records:
        for tag, val in r.inputs:
            if tag == "buf":
                consumers[val] = consumers.get(val, 0) + 1

    replaced: Dict[int, TapeRecord] = {}
    skip: set = set()
    for j, act in enumerate(records):
        if act.kind not in ("tanh", "relu") or len(act.inputs) != 1:
            continue
        tag, pre = act.inputs[0]
        if tag != "buf" or consumers.get(pre, 0) != 1:
            continue
        i = producer[pre]
        if i in skip:
            continue
        prod = records[i]
        if prod.kind == "spmm":
            fused_meta = dict(prod.meta)
            fused_meta["activation"] = act.kind
            replaced[j] = TapeRecord("spmm_act", prod.inputs, act.out, fused_meta)
            skip.add(i)
        elif act.kind == "relu" and prod.kind == "add" and len(prod.inputs) == 2:
            (xtag, xbuf), bias_ref = prod.inputs
            if xtag != "buf" or bias_ref[0] != "leaf":
                continue
            if consumers.get(xbuf, 0) != 1:
                continue
            mi = producer[xbuf]
            if mi in skip:
                continue
            mm = records[mi]
            if mm.kind != "matmul" or mm.inputs[1][0] != "leaf":
                continue
            x_arr = _ref_array(mm.inputs[0], buffers)
            w_arr = _ref_array(mm.inputs[1], buffers)
            if x_arr is None or x_arr.ndim != 2 or w_arr is None or w_arr.ndim != 2:
                continue
            if _ref_array(bias_ref, buffers).ndim != 1:
                continue
            replaced[j] = TapeRecord(
                "linear_relu", (mm.inputs[0], mm.inputs[1], bias_ref), act.out, {}
            )
            skip.add(i)
            skip.add(mi)
    if not replaced:
        return records, 0
    fused = [replaced.get(j, r) for j, r in enumerate(records) if j not in skip]
    return fused, len(replaced)


# ----------------------------------------------------------------------
# executor

class TapeExecutor:
    """Replays one compiled program against batches of any shape.

    The owning :class:`CompiledModel` feeds it only batches of its
    :func:`program_key` and serializes access (the arena is shared
    mutable state).
    """

    def __init__(
        self,
        records: List[TapeRecord],
        out_index: int,
        batch: Any,
        dtype: Any = "float64",
        fused_ops: int = 0,
    ) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise CompilationError(f"unsupported tape dtype {dtype!r}")
        self.records = records
        self.out_index = out_index
        self.fused_ops = fused_ops
        #: Whether replays keep what a backward reads (argmaxes); see
        #: :meth:`set_differentiable`.
        self.differentiable = True
        if self.dtype != np.float64:
            self.set_differentiable(False)  # inference only: no backward follows
        # Storage of the output slots (keyed by slot) and the backward's
        # gradient accumulators (keyed by ("grad", slot)); the records'
        # workspaces hold the rest of the arena.
        self.arena = Workspace()
        # The current replay's array in each slot: an arena view, or the
        # fresh view a view kind returned.
        self.bufs: List[Optional[np.ndarray]] = [None] * (max(r.out for r in records) + 1)
        self._sized_for: Optional[Tuple[int, int]] = None
        self._syms: Dict[str, Any] = {}
        self._binds: List[Tuple[Dict[str, Any], str, str]] = []
        for rec in records:
            for tag, val in rec.inputs:
                if tag == "sym":
                    self._syms[val] = None
            for key, value in rec.meta.items():
                if isinstance(value, _Symbol):
                    self._binds.append((rec.meta, key, value.name))
                    self._syms[value.name] = None
                elif scipy.sparse.issparse(value):
                    rec.meta[key] = self._cast_const(value)
        self._leaf_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._batch: Any = None
        self._grads: List[Optional[np.ndarray]] = []
        self._bwd: Optional[List[Callable[[], None]]] = None
        self.set_batch(batch)
        self._fwd = [self._bind_forward(rec) for rec in records]

    def set_differentiable(self, differentiable: bool) -> None:
        """Keep (or skip) the forward state only a backward reads.

        A lean replay leaves the argmaxes of the pooling and max kernels
        unwritten, so no backward may follow it.  float32 tapes are
        always lean.
        """
        differentiable = differentiable and self.dtype == np.float64
        if differentiable != self.differentiable:
            for rec in self.records:
                rec.state.differentiable = differentiable
            self.differentiable = differentiable

    def arena_bytes(self) -> int:
        """Bytes of arena storage held: slots, accumulators, workspaces."""
        return self.arena.nbytes() + sum(rec.state.nbytes() for rec in self.records)

    # -- input plumbing -------------------------------------------------

    def set_batch(self, batch: Any) -> None:
        """Bind the symbolic inputs to a batch."""
        if batch is self._batch:
            return
        self._batch = batch
        self._load_syms(batch)

    def _load_syms(self, batch: Any) -> None:
        for name in self._syms:
            if name == "propagation_t" and self._bwd is None:
                value = None  # only backward kernels read the transpose
            else:
                value = self._cast_const(_batch_symbol(batch, name))
            self._syms[name] = value
        for meta, key, name in self._binds:
            meta[key] = self._syms[name]

    def _cast_const(self, value: Any) -> Any:
        if self.dtype == np.float64 or isinstance(value, tuple):
            return value
        if isinstance(value, np.ndarray):
            return np.ascontiguousarray(value, dtype=np.float32)
        return value.astype(np.float32)  # scipy sparse matrix

    def _leaf_value(self, tensor: Tensor) -> np.ndarray:
        """float32 view of a parameter, re-cast when ``.data`` rebinds.

        Optimizer steps and ``load_state_dict`` replace ``param.data``
        with a new array, so an identity check on the source array is a
        complete invalidation rule — no version counters needed.
        """
        entry = self._leaf_cache.get(id(tensor))
        if entry is None or entry[0] is not tensor.data:
            entry = (tensor.data, tensor.data.astype(np.float32))
            self._leaf_cache[id(tensor)] = entry
        return entry[1]

    def _reader(self, ref: Tuple[str, Any]) -> Callable[[], Any]:
        tag, val = ref
        if tag == "buf":
            # Read through the slot list: replays rebind their slots.
            bufs = self.bufs
            return lambda: bufs[val]
        if tag == "leaf":
            if self.dtype == np.float64:
                return lambda: val.data
            return lambda: self._leaf_value(val)
        if tag == "const":
            const = self._cast_const(val)
            return lambda: const
        syms = self._syms
        return lambda: syms[val]

    # -- forward --------------------------------------------------------

    def forward(self, batch: Any) -> np.ndarray:
        """Replay the program; returns the output *arena buffer*.

        The returned array is reused by the next replay — callers that
        keep results must copy (``np.exp`` etc. already do).
        """
        self.set_batch(batch)
        # Every slot's shape follows from the vertex and graph counts.
        shape = (len(batch.attributes), len(batch.boundaries))
        resize = shape != self._sized_for
        self._sized_for = None
        for fn in self._fwd:
            fn(resize)
        self._sized_for = shape
        return self.bufs[self.out_index]

    def _bind_forward(self, rec: TapeRecord) -> Callable[[bool], None]:
        op = OPS[rec.kind]
        kernel, shape_of = op.forward, op.shape
        reads = [self._reader(ref) for ref in rec.inputs]
        bufs, slot, meta, state = self.bufs, rec.out, rec.meta, rec.state
        arena, dtype = self.arena, self.dtype

        def fwd(resize: bool) -> None:
            ins = [read() for read in reads]
            out = bufs[slot]
            if resize and shape_of is not None:
                out = arena.array(slot, shape_of(ins, meta), dtype)
            # View kinds return a fresh view; every other kernel writes
            # into (and returns) the slot's view.
            bufs[slot] = kernel(ins, out, meta, state)

        return fwd

    # -- backward -------------------------------------------------------

    def backward(self, seed: np.ndarray) -> None:
        """Accumulate parameter gradients for the last replayed forward.

        Kernel-for-kernel this performs the same arithmetic, in the same
        node order, as eager ``Tensor.backward`` — the program is stored
        in forward topological order, so iterating it reversed *is* the
        eager processing order.
        """
        if self.dtype != np.float64:
            raise GradientError("backward requires float64 compiled execution")
        if not self.differentiable:
            raise GradientError("the last replay was lean: it kept no backward state")
        if self._bwd is None:
            self._build_backward()
        seed = np.asarray(seed, dtype=np.float64)
        out_shape = self.bufs[self.out_index].shape
        if seed.shape != out_shape:
            raise GradientError(
                f"seed shape {seed.shape} does not match output {out_shape}"
            )
        self._grads[self.out_index] = seed
        for fn in self._bwd:
            fn()

    def _build_backward(self) -> None:
        # As in eager backward, a buffer's gradient is its first
        # contribution itself (a kernel's result, not copied); a second
        # contribution sums the two into the buffer's own accumulator.
        self._grads = [None] * len(self.bufs)
        written = {self.out_index}
        bwd: List[Callable[[], None]] = []
        for rec in reversed(self.records):
            fn = self._bind_backward(rec, written)
            if fn is not None:
                bwd.append(fn)
        self._bwd = bwd
        # propagation_t (only needed here) must be bound for the batch
        # the last forward ran against.
        if self._batch is not None:
            self._load_syms(self._batch)

    def _accumulator(
        self, ref: Tuple[str, Any], written: set
    ) -> Optional[Callable[[np.ndarray], None]]:
        tag, val = ref
        grads = self._grads
        if tag == "buf":
            if val not in written:
                written.add(val)

                def first(v: np.ndarray) -> None:
                    grads[val] = v

                return first
            arena, bufs, key = self.arena, self.bufs, ("grad", val)

            def acc(v: np.ndarray) -> None:
                total = arena.array(key, bufs[val].shape)
                grads[val] = np.add(grads[val], v, out=total)

            return acc
        if tag == "leaf":
            tensor = val

            def acc(v: np.ndarray) -> None:
                if tensor.grad is None:
                    tensor.grad = np.zeros_like(tensor.data)
                np.add(tensor.grad, v, out=tensor.grad)

            return acc
        return None

    def _bind_backward(self, rec: TapeRecord, written: set) -> Optional[Callable[[], None]]:
        accs = [self._accumulator(ref, written) for ref in rec.inputs]
        if not any(accs):
            return None
        kernel = OPS[rec.kind].backward
        reads = [self._reader(ref) for ref in rec.inputs]
        need = [acc is not None for acc in accs]
        targets = [(i, acc) for i, acc in enumerate(accs) if acc is not None]
        grads, bufs, slot = self._grads, self.bufs, rec.out
        meta, state = rec.meta, rec.state

        def bwd() -> None:
            ins = [read() for read in reads]
            results = kernel(grads[slot], ins, bufs[slot], meta, state, need)
            for i, acc in targets:
                acc(results[i])

        return bwd


# ----------------------------------------------------------------------
# public entry points


def compile_output(output: Tensor, batch: Any, dtype: Any = "float64") -> TapeExecutor:
    """Compile one recorded eager forward into a replayable executor."""
    records, captured, out_index = _record_graph(output, batch)
    records, fused = _fuse_program(records, captured, out_index)
    return TapeExecutor(records, out_index, batch, dtype=dtype, fused_ops=fused)


class CompiledModel:
    """One recorded program per train/eval mode, replayed for any batch.

    ``forward`` / ``infer`` return the *log-probability array* (not a
    Tensor).  The first batch of a :func:`program_key` runs the eager
    forward once and is compiled as a side effect; every later batch of
    that key replays the program, whatever its vertex and graph counts.
    Each program holds one arena, grown to the largest batch it has
    replayed, so memory is bounded by the largest batch rather than by
    the number of distinct shapes.  Worker ``respawn()`` re-captures.

    A model the tape cannot record is refused once: :attr:`refused`
    keeps the reason, and every later ``forward`` / ``infer`` raises
    :class:`~repro.exceptions.CompilationError` without capturing again,
    so callers fall back to eager at the cost of one exception.
    """

    def __init__(self, model: Any, dtype: Any = "float64") -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise CompilationError(f"unsupported compiled dtype {dtype!r}")
        self._model_ref = weakref.ref(model)
        # Dropped by inference_tape(): its cache must not keep a model alive.
        self._owner: Any = model
        self._programs: Dict[Tuple[Any, ...], TapeExecutor] = {}
        self._lock = threading.RLock()
        self._last_executor: Optional[TapeExecutor] = None
        self._last_eager: Optional[Tensor] = None
        #: Why the capture failed, once it has; ``None`` while recordable.
        self.refused: Optional[str] = None
        self.captures = 0
        self.replays = 0

    @property
    def model(self) -> Any:
        model = self._model_ref()
        if model is None:
            raise CompilationError("the compiled model no longer exists")
        return model

    def forward(self, batch: Any) -> np.ndarray:
        """Compiled forward honouring the model's current train/eval mode."""
        with self._lock:
            return self._run(self.model, batch, lean=False)

    def infer(self, batch: Any) -> np.ndarray:
        """Eval-mode compiled forward that keeps no backward state.

        A float64 replay skips the argmaxes only a backward reads, as a
        float32 one always does, so :meth:`backward` after ``infer``
        raises.  The model's previous train/eval mode is restored.
        """
        with self._lock:
            model = self.model
            was_training = bool(getattr(model, "training", False))
            if was_training:
                model.train(False)
            try:
                return self._run(model, batch, lean=True)
            finally:
                if was_training:
                    model.train(True)

    def _run(self, model: Any, batch: Any, lean: bool) -> np.ndarray:
        if self.refused is not None:
            raise CompilationError(self.refused)
        training = bool(getattr(model, "training", False))
        if training and self.dtype != np.dtype(np.float64):
            raise CompilationError(
                "float32 compiled execution is inference-only; train in float64"
            )
        key = program_key(batch, training, self.dtype)
        self._last_executor, self._last_eager = None, None
        executor = self._programs.get(key)
        if executor is None:
            # First batch of this key: run eagerly once, compile the graph.
            output = model(batch)
            try:
                executor = compile_output(output, batch, dtype=self.dtype)
            except CompilationError as exc:
                self.refused = str(exc)
                raise
            self._programs[key] = executor
            self.captures += 1
            if self.dtype == np.dtype(np.float64):
                # The eager output is already exact; a forward keeps its
                # graph so a capture-step backward() runs eagerly (replay
                # kernels have no saved forward state yet).
                if not lean:
                    self._last_eager = output
                return output.data
        else:
            self.replays += 1
        executor.set_differentiable(not lean)
        if not lean:
            self._last_executor = executor
        return executor.forward(batch)

    def backward(self, seed: np.ndarray) -> None:
        """Backward for the most recent :meth:`forward` (float64 only)."""
        with self._lock:
            if self._last_eager is not None:
                self._last_eager.backward(seed)
            elif self._last_executor is not None:
                self._last_executor.backward(seed)
            else:
                raise GradientError(
                    "backward() needs a compiled forward() first; "
                    "infer() keeps no backward state"
                )

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            programs = self._programs.values()
            return {
                "dtype": str(self.dtype),
                "programs": len(self._programs),
                "captures": self.captures,
                "replays": self.replays,
                "fused_ops": sum(p.fused_ops for p in programs),
                "arena_bytes": sum(p.arena_bytes() for p in programs),
            }


_INFERENCE_TAPES: "weakref.WeakKeyDictionary[Any, CompiledModel]" = (
    weakref.WeakKeyDictionary()
)
_INFERENCE_TAPES_LOCK = threading.Lock()


def inference_tape(model: Any) -> CompiledModel:
    """The float64 :class:`CompiledModel` cached for ``model``.

    Created on first use, so a model's first prediction captures and
    every later one replays.  The cache is keyed weakly and the tape
    holds its model weakly, so neither keeps the other alive: the tape
    and its arenas are freed with the model, by reference counting
    alone.  Nothing is stored on the model, which stays deep-copyable
    and picklable.
    """
    with _INFERENCE_TAPES_LOCK:
        compiled = _INFERENCE_TAPES.get(model)
        if compiled is None:
            compiled = _INFERENCE_TAPES[model] = CompiledModel(model)
            compiled._owner = None
        return compiled
