"""Minimal reverse-mode differentiation engine.

Covers exactly the operations the trainable models need: tensor
convolution, channel transposition, the fixed per-channel resampling
filter banks (analysis with decimation by 2, synthesis with up-sampling
by 2), the activation family, elementwise add/subtract, per-channel bias,
and mean squared error.  Graphs are built eagerly as Python objects and
differentiated once by a topological sweep.

Gradients accumulate into ``Node.grad``; parameters start with a zero
gradient so a parameter that does not influence the loss simply keeps it.
A node needs a gradient only if some trainable parameter lies upstream of
it: no vector-Jacobian product (VJP) is evaluated toward constants, such
as the input image, or toward frozen parameters, whose gradient stays
zero.

:func:`backward` consumes the graph it sweeps: once a node's VJPs have
run, the node drops them, and with them the data their closures hold
(shift stacks, rectifier masks, the MSE residual), and drops its own
gradient.  Only :class:`Parameter` gradients survive; node values stay.
A second ``backward`` over a consumed graph raises :class:`ConfigError`.
Training loops build a fresh graph per step.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .activations import ActivationSpec, activation_derivative, apply_activation
from .errors import ConfigError, ShapeError

__all__ = [
    "Node",
    "Parameter",
    "constant",
    "conv",
    "transpose",
    "bank_down",
    "bank_up",
    "add",
    "sub",
    "add_bias",
    "act",
    "mse",
    "backward",
]


class Node:
    """One value in the computation graph."""

    __slots__ = ("value", "grad", "parents", "vjps", "needs_grad")

    def __init__(self, value, parents=(), vjps=()):
        self.value = value
        self.grad = None
        self.parents = parents
        self.vjps = vjps
        self.needs_grad = any(p.needs_grad for p in parents)

    def _accumulate(self, g):
        """Add ``g``, which no other node holds, into this node's gradient;
        the first one is kept as it is."""
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g


class Parameter(Node):
    """A leaf holding a trainable (or frozen) array."""

    __slots__ = ("trainable",)

    def __init__(self, value, trainable=True):
        super().__init__(np.asarray(value, dtype=np.float64))
        self.trainable = trainable
        self.needs_grad = trainable
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


def constant(value) -> Node:
    """Leaf node that never receives a gradient of interest."""
    return Node(np.asarray(value, dtype=np.float64))


def conv(kernel: Node, signal: Node) -> Node:
    """Differentiable circular tensor convolution."""
    kval, sval = kernel.value, signal.value
    if kval.shape[1] != sval.shape[0]:
        raise ShapeError(f"channel mismatch: kernel {kval.shape} vs signal {sval.shape}")
    out, stack = T._conv_forward(kval, sval)
    if stack is not None:  # expanding: the kernel gradient reuses the input's stack

        def d_kernel(g):
            return T._conv_grad_kernel(stack, g, kval.shape)

        def d_signal(g):
            return T._conv_grad_signal(kval, g)

    else:  # contracting: both gradients share one stack of the upstream gradient
        cache = [None, None]  # (upstream gradient, its correlate stack)

        def grad_stack(g):
            if cache[0] is not g:
                cache[:] = g, T._shift_stack(g, *kval.shape[2:], correlate=True)
            return cache[1]

        def d_kernel(g):
            return T._conv_grad_kernel(grad_stack(g), sval, kval.shape)

        def d_signal(g):
            return T._conv_grad_signal(kval, g, stack=grad_stack(g))

    return Node(out, (kernel, signal), (d_kernel, d_signal))


def transpose(node: Node) -> Node:
    value = np.ascontiguousarray(np.swapaxes(node.value, 0, 1))
    return Node(value, (node,), (lambda g: np.swapaxes(g, 0, 1).copy(),))


def bank_down(filters, node: Node) -> Node:
    """Fixed filter stack on every channel, decimated by 2.  ``filters`` is
    a plain array; the adjoint is :func:`fdl.tensor.bank_up` with the
    filters rotated 180 degrees."""
    rotated = filters[:, :, ::-1, ::-1]
    return Node(T.bank_down(filters, node.value), (node,), (lambda g: T.bank_up(rotated, g),))


def bank_up(filters, node: Node) -> Node:
    """Up-sampling by 2 and the transposed per-channel bank; the adjoint is
    :func:`fdl.tensor.bank_down` with the filters rotated 180 degrees."""
    rotated = filters[:, :, ::-1, ::-1]
    return Node(T.bank_up(filters, node.value), (node,), (lambda g: T.bank_down(rotated, g),))


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"add shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Node(a.value + b.value, (a, b), (lambda g: g, lambda g: g))


def sub(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"sub shape mismatch: {a.value.shape} vs {b.value.shape}")
    return Node(a.value - b.value, (a, b), (lambda g: g, lambda g: -g))


def add_bias(x: Node, bias: Node) -> Node:
    """Add a per-channel bias vector to a 4-D tensor."""
    if bias.value.ndim != 1 or x.value.ndim != 4 or bias.value.size != x.value.shape[0]:
        raise ShapeError(f"bias of shape {bias.value.shape} does not fit tensor {x.value.shape}")
    value = x.value + bias.value[:, None, None, None]
    return Node(value, (x, bias), (lambda g: g, lambda g: g.sum(axis=(1, 2, 3))))


def act(node: Node, spec: ActivationSpec) -> Node:
    """Apply an activation elementwise; kinks use the flat-side subgradient."""
    deriv = activation_derivative(spec, node.value)
    return Node(apply_activation(spec, node.value), (node,), (lambda g: g * deriv,))


def mse(a: Node, b: Node) -> Node:
    """Mean squared error between two same-shape tensors (scalar node)."""
    if a.value.shape != b.value.shape:
        raise ShapeError(f"mse shape mismatch: {a.value.shape} vs {b.value.shape}")
    diff = a.value - b.value
    n = diff.size
    value = float(np.mean(diff**2))
    return Node(
        np.float64(value),
        (a, b),
        (lambda g: g * 2.0 * diff / n, lambda g: -g * 2.0 * diff / n),
    )


def _topo_order(root: Node):
    """Nodes that need a gradient, each after all of its parents."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.needs_grad:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate d(loss)/d(node) into the ``.grad`` of every parameter
    that needs a gradient, consuming the graph: each other node's VJPs and
    gradient are dropped as soon as they have been used."""
    if np.ndim(loss.value) != 0:
        raise ConfigError(f"loss must be scalar, got shape {np.shape(loss.value)}")
    order = _topo_order(loss)
    if any(node.vjps is None for node in order):
        raise ConfigError("graph already consumed by an earlier backward")
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        if isinstance(node, Parameter):
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if parent.needs_grad:
                g = vjp(node.grad)
                # identity VJPs (add, add_bias, sub) return the node's own array
                parent._accumulate(g.copy() if g is node.grad else g)
        node.vjps = node.grad = None
