"""Minimal dense-tensor autodiff core.

Reverse-mode differentiation over 64-bit numpy arrays with an explicit
operation tape. Single-threaded per tape; tensors created outside a tape
are plain immutable values.
"""

from __future__ import annotations

import numpy as np

EPS_PROB = 1e-12


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
    """

    def __init__(self):
        self.nodes = []  # list of (output, inputs, backward_fn)

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
        """Accumulate d(loss)/d(x) into ``x.grad`` for every recorded tensor."""
        if loss.data.ndim != 0 and loss.data.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        loss.grad = np.ones_like(loss.data)
        # Reverse execution order; each node visited exactly once.
        for out, inputs, backward_fn in reversed(self.nodes):
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            for t, g in zip(inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                g = _unbroadcast(g, t.data.shape)
                if t.grad is None:
                    t.grad = g.copy()
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


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)
    return _record(out, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)
    return _record(out, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)
    return _record(out, (a, b), lambda g: (g * b.data, g * a.data))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data / b.data)
    return _record(
        out, (a, b), lambda g: (g / b.data, -g * a.data / (b.data * b.data))
    )


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
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
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


def exp(a: Tensor) -> Tensor:
    out = Tensor(np.exp(a.data))
    return _record(out, (a,), lambda g: (g * out.data,))


def log(a: Tensor) -> Tensor:
    out = Tensor(np.log(a.data))
    return _record(out, (a,), lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    out = Tensor(np.sqrt(a.data))
    return _record(out, (a,), lambda g: (g * 0.5 / out.data,))


def square(a: Tensor) -> Tensor:
    out = Tensor(a.data * a.data)
    return _record(out, (a,), lambda g: (g * 2.0 * a.data,))


def cos(a: Tensor) -> Tensor:
    out = Tensor(np.cos(a.data))
    return _record(out, (a,), lambda g: (-g * np.sin(a.data),))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))
    return _record(out, (a,), lambda g: (g * (a.data > 0.0),))


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(1.0 / (1.0 + np.exp(-a.data)))
    return _record(out, (a,), lambda g: (g * out.data * (1.0 - out.data),))


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), computed stably for large |x|
    out = Tensor(np.logaddexp(0.0, a.data))
    sig = 1.0 / (1.0 + np.exp(-a.data))
    return _record(out, (a,), lambda g: (g * sig,))


def clip(a: Tensor, lo=None, hi=None) -> Tensor:
    """Clamp values; gradient passes through only inside the clamp range."""
    out = Tensor(np.clip(a.data, lo, hi))
    inside = np.ones_like(a.data, dtype=bool)
    if lo is not None:
        inside &= a.data >= lo
    if hi is not None:
        inside &= a.data <= hi
    return _record(out, (a,), lambda g: (g * inside,))


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward; blocks all gradient flow into ``a``."""
    return Tensor(a.data)


def masked_softmax_rows(logits: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over the last axis restricted to ``mask`` entries.

    Masked entries come out exactly 0. Stabilized by per-row max subtraction
    over permitted entries.
    """
    m = np.broadcast_to(np.asarray(mask, dtype=bool), logits.data.shape)
    if not m.any(axis=-1).all():
        raise DegenerateRowError("softmax row with no permitted entries")
    z = np.where(m, logits.data, -np.inf)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.where(m, np.exp(z), 0.0)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)

    def backward(g):
        # ds/dz = diag(s) - s s^T per row; masked entries carry no gradient.
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _record(out, (logits,), backward)


def kl_div_rows(p: Tensor, q: Tensor, tol: float = 1e-6) -> Tensor:
    """Per-row KL(p_i || q_i) over the last axis.

    Entries are floored at EPS_PROB before the log, so exact zeros shared by
    both rows contribute nothing. Rows must sum to 1 within ``tol``.
    """
    for name, t in (("p", p), ("q", q)):
        sums = t.data.sum(axis=-1)
        worst = np.abs(sums - 1.0).max()
        if worst > tol:
            raise NormalizationError(
                f"{name} rows not normalized: max |sum-1| = {worst:.3e}"
            )
    pc = clip(p, lo=EPS_PROB)
    qc = clip(q, lo=EPS_PROB)
    return tsum(mul(pc, sub(log(pc), log(qc))), axis=-1)


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

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999,
                 eps=1e-8, clip_norm=None):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
