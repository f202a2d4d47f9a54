"""Minimal dense-tensor autodiff core.

Reverse-mode differentiation over 64-bit numpy arrays with an explicit
operation tape. Single-threaded per tape; tensors created outside a tape
are plain immutable values.

Gradient ownership: a gradient array may be shared (``add`` hands the same
array to both inputs, and a C-contiguous gradient is stored without a
copy), so no gradient is ever modified in place. A tape is consumed by its
one backward pass, which frees each intermediate gradient and node as it
goes; only the gradients of leaves (tensors created outside the tape, such
as parameters) survive it.
"""

from __future__ import annotations

import numpy as np

EPS_PROB = 1e-12
NORM_TOL = 1e-6  # largest |row sum - 1| that sym_kl_rows accepts
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation contract."""


class DegenerateRowError(ValueError):
    """Raised when a softmax row has no permitted entries."""


class NormalizationError(ValueError):
    """Raised when a KL input row is not a probability distribution."""


class ContractError(ValueError):
    """Raised when an operation precondition is violated."""


class NumericError(FloatingPointError):
    """Raised on non-finite intermediate values where contracts demand finiteness."""


# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of executed operations for one backward pass.

    Usage::

        with Tape() as tape:
            loss = ...
        tape.backward(loss)

    ``backward`` consumes the tape: it pops the nodes as it walks them and
    a second call raises ContractError. Gradients are accumulated
    out-of-place (``t.grad + g``, never ``+=``), because a gradient array
    may be shared between inputs and with the tensors that received it.
    """

    def __init__(self):
        self.nodes = []  # list of (output, inputs, backward_fn)
        self.consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, out, inputs, backward_fn):
        self.nodes.append((out, inputs, backward_fn))

    def backward(self, loss: "Tensor"):
        """Accumulate d(loss)/d(x) into ``x.grad`` for every leaf tensor.

        Intermediate gradients are dropped once their node has run, so
        afterwards only leaves hold a ``grad``.
        """
        if self.consumed:
            raise ContractError("tape already consumed")
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        self.consumed = True
        loss.grad = np.ones_like(loss.data)
        # Reverse execution order; each node visited exactly once, and no
        # node visited later can add to the output of one already run.
        while self.nodes:
            out, inputs, backward_fn = self.nodes.pop()
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            out.grad = None
            for t, g in zip(inputs, grads):
                if g is None:
                    continue
                g = _unbroadcast(g, t.data.shape)
                if t.grad is None:
                    # a view is copied: its memory layout would change
                    # how later sums round
                    t.grad = g if g.flags.c_contiguous else g.copy()
                else:
                    t.grad = t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` along axes that were broadcast."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """Dense float64 array participating in recorded computation."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, idx):
        return getitem(self, idx)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out: Tensor, inputs, backward_fn):
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


# Binary backward functions return None for an input that needs no
# gradient (a constant or a stop-gradient side) instead of computing it.


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def backward(g):
        return (g if a.requires_grad else None,
                g if b.requires_grad else None)

    return _record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def backward(g):
        return (g if a.requires_grad else None,
                -g if b.requires_grad else None)

    return _record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def backward(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return _record(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)

    def backward(g):
        return (g / b.data if a.requires_grad else None,
                -g * a.data / (b.data * b.data) if b.requires_grad else None)

    return _record(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record(out, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes (leading axes broadcast)."""
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}"
        )
    out = Tensor(np.matmul(a.data, b.data))

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) \
            if a.requires_grad else None
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g) \
            if b.requires_grad else None
        return ga, gb

    return _record(out, (a, b), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes))
    return _record(out, (a,), lambda g: (np.transpose(g, inv),))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    out = Tensor(a.data.reshape(shape))
    return _record(out, (a,), lambda g: (g.reshape(old),))


def getitem(a: Tensor, idx) -> Tensor:
    out = Tensor(a.data[idx])

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _record(out, (a,), backward)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _record(out, (a,), backward)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)]
    )
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / float(n))


def sqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g * 0.5 / out.data,))


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)
    return _record(out, (a,), lambda g: (g * 2.0 * a.data,))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0.0),))


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(1.0 / (1.0 + np.exp(-a.data)))
    return _record(out, (a,), lambda g: (g * out.data * (1.0 - out.data),))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), computed stably for large |x|
    out = Tensor(np.logaddexp(0.0, a.data))

    def backward(g):
        sig = 1.0 / (1.0 + np.exp(-a.data))
        return (g * sig,)

    return _record(out, (a,), backward)


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward; blocks all gradient flow into ``a``."""
    return Tensor(a.data)


def masked_softmax_rows(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over the last axis restricted to ``mask`` entries.

    Masked entries come out exactly 0. Stabilized by per-row max subtraction
    over permitted entries.
    """
    mask = np.asarray(mask, dtype=bool)
    # each row of the broadcast mask is a row of mask, so checking it suffices
    if not np.atleast_1d(mask).any(axis=-1).all():
        raise DegenerateRowError("softmax row with no permitted entries")
    z = np.where(mask, logits.data, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)  # exp(-inf) is +0.0: masked entries come out exactly 0
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def backward(g):
        # ds/dz = diag(s) - s s^T per row; masked entries carry no gradient.
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (logits,), backward)


def sym_kl_rows(a: Tensor, b: Tensor) -> Tensor:
    """Per-row symmetric KL(a_i || b_i) + KL(b_i || a_i) over the last axis.

    Entries are floored at EPS_PROB before the log, so exact zeros shared by
    both rows contribute nothing and a floored entry of ``a`` gets no
    gradient. Rows must sum to 1 within NORM_TOL. ``b`` is held constant
    (pass it through ``stop_gradient``); the gradient flows into ``a`` only.

    One tape node in place of the chain ``clip``, ``log``, ``sub``, ``mul``,
    ``tsum`` per direction: the forward takes each log once, and the backward
    evaluates that chain's expressions in its order, so values and gradients
    are bitwise equal to it.
    """
    if b.requires_grad:
        raise ContractError("sym_kl_rows holds b constant, but b needs a "
                            "gradient; pass it through stop_gradient")
    for name, t in (("a", a), ("b", b)):
        sums = t.data.sum(axis=-1)
        worst = np.abs(sums - 1.0).max()
        if worst > NORM_TOL:
            raise NormalizationError(
                f"{name} rows not normalized: max |sum-1| = {worst:.3e}"
            )
    pc = np.clip(a.data, EPS_PROB, None)
    qc = np.clip(b.data, EPS_PROB, None)
    d = np.log(pc) - np.log(qc)
    # KL(b||a) sums qc * (log qc - log pc) = -(qc * d) exactly
    out = Tensor((pc * d).sum(axis=-1) - (qc * d).sum(axis=-1))

    def backward(g):
        G = g[..., None]
        inside = a.data >= EPS_PROB
        # KL(b||a)'s chain runs first, then KL(a||b)'s, whose pc gets
        # G*d from the product before (G*pc)/pc from the log
        return (((-(G * qc)) / pc) * inside
                + (G * d + (G * pc) / pc) * inside,)

    return _record(out, (a,), backward)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


def clip_global_norm(grads, max_norm: float):
    """Scale the set of gradients so their joint L2 norm is <= max_norm."""
    if max_norm <= 0:
        raise ContractError("max_norm must be positive")
    total = np.sqrt(sum(float((g * g).sum()) for g in grads))
    if total <= max_norm or total == 0.0:
        return list(grads)
    scale = max_norm / total
    return [g * scale for g in grads]


class OptimizerState:
    """Adam moments and step counter for a fixed parameter list."""

    def __init__(self, params, lr=1e-4, clip_norm=None):
        self.params = list(params)
        self.lr = lr
        self.clip_norm = clip_norm
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """Apply one bias-corrected Adam update from accumulated grads."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params]
        if self.clip_norm is not None:
            grads = clip_global_norm(grads, self.clip_norm)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
