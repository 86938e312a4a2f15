"""From-scratch neural-network engine (numpy + reverse-mode autodiff).

The paper's models run on PyTorch; this package is the substrate
replacement: :class:`Tensor` autograd, layers, pooling, optimizers,
LR scheduling, and losses.  See DESIGN.md section 2 for the
substitution rationale.
"""

from repro.nn import functional
from repro.nn.clip import clip_grad_norm
from repro.nn.layers import (
    Conv1d,
    Conv2d,
    Dropout,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.loss import cross_entropy, nll_loss
from repro.nn.lr_scheduler import ReduceLROnPlateau
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.pooling import AdaptiveMaxPool2d, MaxPool2d
from repro.nn.tape import (
    CompiledModel,
    TapeExecutor,
    compile_output,
    inference_tape,
    program_key,
)
from repro.nn.tensor import Tensor, concatenate, gather_rows, pad_rows, stack

__all__ = [
    "Adam",
    "AdaptiveMaxPool2d",
    "Conv1d",
    "Conv2d",
    "Dropout",
    "Linear",
    "MaxPool2d",
    "Module",
    "Optimizer",
    "Parameter",
    "ReLU",
    "ReduceLROnPlateau",
    "SGD",
    "Sequential",
    "Tanh",
    "Tensor",
    "CompiledModel",
    "TapeExecutor",
    "program_key",
    "clip_grad_norm",
    "compile_output",
    "concatenate",
    "cross_entropy",
    "functional",
    "gather_rows",
    "inference_tape",
    "nll_loss",
    "pad_rows",
    "stack",
]
